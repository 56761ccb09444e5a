// Failover sweep: fragment replication, health-tracked re-routing, and live
// migration under a mid-run LC outage with concurrent route churn.
//
// Sweeps replicas × ψ × outage length (LC 1's fabric port dead for `outage`
// cycles starting a quarter of the way into the trace — a primary-LC
// failure while traffic and updates are in flight) on the D_75 trace with a
// live update stream, and reports, per point, the mean/p99 lookup time, the
// latency of packets that arrived during the outage, and the failover
// ledger: re-routed requests, replica/local-copy serves, probes, rejoins,
// deferred updates, resync entries, cutovers, and degraded fallbacks. A
// final fixed point (ψ=4, R=1) performs an operator migration of fragment
// 1 to LC 3 mid-run to exercise the copy-then-cutover path.
//
// Every run executes in verify mode and the bench exits nonzero if any
// packet is unaccounted for, any resolved next hop disagrees with the
// churning full-table oracle (a stale resolution), the failover ledger
// breaks conservation (update messages vs applications − resync entries,
// cutovers vs migrations + resync cutovers, resync entries vs deferrals),
// or — the paper-facing robustness claim — an R=1 point's mean mid-outage
// latency exceeds 2× the same configuration's no-fault mean.
//
// `--replicas`, `--suspect-after`, `--outage`, and `--migrate=FROM:TO` pin
// their axes; defaults sweep R ∈ {0, 1, 2}, ψ ∈ {4, 16}, and outage
// lengths of an eighth and half the trace span (plus the no-outage
// baseline). With --json, every point embeds the full
// RouterResult (failover and outage_latency blocks included) so
// `spal_report --check` can verify the cross-component invariants.
#include "bench_util.h"

using namespace spal;

namespace {

struct Point {
  int replicas;
  int psi;
  std::uint64_t outage;
  bool migrate;
  int from;
  int to;
};

struct PointResult {
  bench::PointOutput out;
  bool ok;
  double mean_cycles;
  double outage_mean_cycles;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Failover: replication, health-tracked re-routing, and live migration "
      "under a mid-run LC outage",
      "replicas,psi,outage_cycles,migrate,mean_cycles,p99_cycles,"
      "outage_mean_cycles,rerouted,local_serves,replica_lookups,probes,"
      "rejoins,missed_updates,resync_entries,cutovers,degraded_lookups");
  bench::rt2();

  const std::vector<int> replica_counts =
      args.replicas_set ? std::vector<int>{args.replicas}
                        : std::vector<int>{0, 1, 2};
  const std::vector<int> psis{4, 16};
  // The outage must overlap the packet trace to measure anything: at
  // 40 Gbps the mean inter-arrival is 10 cycles, so the trace spans about
  // 10 × packets_per_lc cycles. The primary LC goes down a quarter of the
  // way in; the default durations cover a brief blip (the health tracker
  // barely reacts), a sustained outage with rejoin, and one reaching the
  // end of the trace (at the paper's 100k-packet default: start 250k,
  // lengths 125k and 500k — the ISSUE's "mid-run outage" scenario).
  const std::uint64_t est_horizon =
      10 * static_cast<std::uint64_t>(args.packets_per_lc);
  const std::uint64_t outage_start = est_horizon / 4;
  const std::vector<std::uint64_t> outages =
      args.outage_set ? std::vector<std::uint64_t>{args.outage_cycles}
                      : std::vector<std::uint64_t>{0, est_horizon / 8,
                                                   est_horizon / 2};

  std::vector<Point> points;
  for (const int replicas : replica_counts) {
    for (const int psi : psis) {
      if (args.migrate_set && (args.migrate_from >= psi ||
                               args.migrate_to >= psi)) {
        std::fprintf(stderr,
                     "--migrate=%d:%d out of range for psi=%d\n",
                     args.migrate_from, args.migrate_to, psi);
        return 2;
      }
      for (const std::uint64_t outage : outages) {
        points.push_back(Point{replicas, psi, outage, args.migrate_set,
                               args.migrate_from, args.migrate_to});
      }
    }
  }
  if (!args.migrate_set) {
    // Default migration coverage: one operator move of fragment 1 to LC 3
    // mid-run, with a replica in place, no outage.
    points.push_back(Point{1, 4, 0, true, 1, 3});
  }

  const auto outputs = sim::parallel_sweep(points, [&](const Point& point) {
    core::RouterConfig config =
        bench::figure_config(point.psi, args.packets_per_lc);
    config.execution = args.execution;
    config.threads = args.threads;
    config.fault.enabled = true;
    config.recovery.max_retries = args.max_retries;
    config.replication.replicas = point.replicas;
    config.replication.suspect_after = args.suspect_after;
    config.replication.down_after = 2 * args.suspect_after;
    config.track_outage_latency = true;
    if (point.outage > 0 && point.psi > 1) {
      config.fault.outages.push_back(fabric::OutageWindow{
          /*port=*/1, outage_start, outage_start + point.outage});
    }
    if (point.migrate) {
      config.migration.enabled = true;
      config.migration.from = point.from;
      config.migration.to = point.to;
      config.migration.start_cycle = outage_start;
    }
    // Concurrent route churn: the deferral/resync path only matters when
    // updates land while the primary is down.
    config.update.interval_cycles = 4'000;
    config.update.count = 200;
    config.update.seed = args.update_seed;

    core::RouterSim router(bench::rt2(), config);
    const auto result = router.run_workload(trace::profile_d75(),
                                            /*verify=*/true);

    const std::uint64_t injected =
        static_cast<std::uint64_t>(args.packets_per_lc) *
        static_cast<std::uint64_t>(point.psi);
    const auto& fo = result.failover;
    bool ok = result.resolved_packets == injected &&
              result.verify_mismatches == 0;
    // Failover conservation (the same rules spal_report --check applies).
    ok = ok && result.update.update_messages ==
                   result.update.applications - fo.resync_entries;
    ok = ok && fo.cutovers == fo.migrations + fo.resync_cutovers;
    ok = ok && fo.resync_entries <= fo.missed_updates;
    ok = ok && (!point.migrate || fo.migrations == 1);

    const double outage_mean =
        result.outage_latency.count() > 0 ? result.outage_latency.mean_cycles()
                                          : 0.0;
    PointResult pr;
    pr.ok = ok;
    pr.mean_cycles = result.mean_lookup_cycles();
    pr.outage_mean_cycles = outage_mean;
    pr.out.row = bench::rowf(
        "%d,%d,%llu,%s,%.3f,%llu,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu%s\n",
        point.replicas, point.psi,
        static_cast<unsigned long long>(point.outage),
        point.migrate ? "yes" : "no", result.mean_lookup_cycles(),
        static_cast<unsigned long long>(result.latency.percentile(0.99)),
        outage_mean,
        static_cast<unsigned long long>(fo.rerouted_requests),
        static_cast<unsigned long long>(fo.local_replica_serves),
        static_cast<unsigned long long>(fo.replica_lookups),
        static_cast<unsigned long long>(fo.probes_sent),
        static_cast<unsigned long long>(fo.rejoins),
        static_cast<unsigned long long>(fo.missed_updates),
        static_cast<unsigned long long>(fo.resync_entries),
        static_cast<unsigned long long>(fo.cutovers),
        static_cast<unsigned long long>(result.fault.degraded_lookups),
        ok ? "" : ",CONSERVATION_FAILURE");
    if (args.json) {
      pr.out.json = bench::json_point(
          bench::rowf("replicas=%d,psi=%d,outage=%llu,migrate=%s",
                      point.replicas, point.psi,
                      static_cast<unsigned long long>(point.outage),
                      point.migrate ? "yes" : "no"),
          result);
    }
    return pr;
  });

  int failures = 0;
  std::vector<std::string> entries;
  for (const auto& pr : outputs) {
    std::fputs(pr.out.row.c_str(), stdout);
    if (!pr.out.json.empty()) entries.push_back(pr.out.json);
    if (!pr.ok) ++failures;
  }
  // The robustness claim: with one replica, the mean latency of packets
  // arriving during a primary-LC outage stays within 2× the same
  // configuration's no-fault mean (the re-route path absorbs the failure
  // instead of funnelling everything into timeouts and degraded lookups).
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (p.replicas != 1 || p.outage == 0 || p.migrate) continue;
    for (std::size_t j = 0; j < points.size(); ++j) {
      const Point& base = points[j];
      if (base.replicas != 1 || base.psi != p.psi || base.outage != 0 ||
          base.migrate) {
        continue;
      }
      if (outputs[i].outage_mean_cycles >
          2.0 * outputs[j].mean_cycles) {
        std::fprintf(stderr,
                     "bench_failover: R=1 psi=%d outage=%llu mid-outage mean "
                     "%.3f exceeds 2x no-fault mean %.3f\n",
                     p.psi, static_cast<unsigned long long>(p.outage),
                     outputs[i].outage_mean_cycles, outputs[j].mean_cycles);
        ++failures;
      }
      break;
    }
  }
  bench::write_json_report(args, "failover", entries);
  if (failures > 0) {
    std::fprintf(stderr, "bench_failover: %d point(s) failed\n", failures);
    return 1;
  }
  return 0;
}
