// Fault-tolerance sweep: mean lookup time and recovery overhead as the
// fabric gets lossy.
//
// Sweeps per-message drop rate × ψ × outage length (LC 1's fabric port dead
// for the first `outage` cycles — an LC-down-at-boot scenario) on the D_75
// trace and reports, per point, the mean/p99 lookup time, the hit rate, and
// the full recovery ledger: drops, retransmits, timeouts, duplicate
// replies, degraded (slow-path) lookups, and the retry overhead
// (retransmits / remote requests).
//
// Every run executes in verify mode and the bench exits nonzero if any
// packet is unaccounted for (resolved != injected) or any resolved next hop
// disagrees with the full-table oracle — packet conservation under faults
// is a hard invariant, not a plotted curve. `--drop-rate`, `--outage`, and
// `--max-retries` pin one sweep axis each; defaults sweep
// drop ∈ {0, 0.001, 0.01, 0.05}, ψ ∈ {4, 16}, outage ∈ {0, 50000}.
//
// With --json, every point embeds the full RouterResult (fault block
// included) so `spal_report --check` can verify the conservation
// invariants (timeouts == retransmits + degraded_fallbacks, recovery
// actions cover every drop).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Fault tolerance: lookup time and recovery overhead vs drop rate, psi, "
      "outage",
      "drop_rate,psi,outage_cycles,mean_cycles,p99_cycles,hit_rate,drops,"
      "retransmits,timeouts,duplicate_replies,degraded_lookups,"
      "retry_overhead");
  bench::rt2();

  const std::vector<double> drop_rates =
      args.drop_rate_set ? std::vector<double>{args.drop_rate}
                         : std::vector<double>{0.0, 0.001, 0.01, 0.05};
  const std::vector<int> psis{4, 16};
  const std::vector<std::uint64_t> outages =
      args.outage_set ? std::vector<std::uint64_t>{args.outage_cycles}
                      : std::vector<std::uint64_t>{0, 50'000};

  struct Point {
    double drop;
    int psi;
    std::uint64_t outage;
  };
  std::vector<Point> points;
  for (const double drop : drop_rates) {
    for (const int psi : psis) {
      for (const std::uint64_t outage : outages) {
        points.push_back(Point{drop, psi, outage});
      }
    }
  }

  int conservation_failures = 0;
  const auto outputs = sim::parallel_sweep(points, [&](const Point& point) {
    core::RouterConfig config =
        bench::figure_config(point.psi, args.packets_per_lc);
    config.execution = args.execution;
    config.threads = args.threads;
    config.fault.enabled = true;
    config.fault.drop_probability = point.drop;
    config.recovery.max_retries = args.max_retries;
    if (point.outage > 0 && point.psi > 1) {
      config.fault.outages.push_back(
          fabric::OutageWindow{/*port=*/1, /*start=*/0, point.outage});
    }
    core::RouterSim router(bench::rt2(), config);
    const auto result = router.run_workload(trace::profile_d75(),
                                            /*verify=*/true);
    const std::uint64_t injected =
        static_cast<std::uint64_t>(args.packets_per_lc) *
        static_cast<std::uint64_t>(point.psi);
    const bool conserved = result.resolved_packets == injected &&
                           result.verify_mismatches == 0;
    const double retry_overhead =
        result.remote_requests == 0
            ? 0.0
            : static_cast<double>(result.fault.retransmits) /
                  static_cast<double>(result.remote_requests);
    bench::PointOutput out;
    out.row = bench::rowf(
        "%.4g,%d,%llu,%.3f,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%.5f%s\n",
        point.drop, point.psi,
        static_cast<unsigned long long>(point.outage),
        result.mean_lookup_cycles(),
        static_cast<unsigned long long>(result.latency.percentile(0.99)),
        result.cache_total.hit_rate(),
        static_cast<unsigned long long>(result.fault.drops),
        static_cast<unsigned long long>(result.fault.retransmits),
        static_cast<unsigned long long>(result.fault.timeouts),
        static_cast<unsigned long long>(result.fault.duplicate_replies),
        static_cast<unsigned long long>(result.fault.degraded_lookups),
        retry_overhead, conserved ? "" : ",CONSERVATION_FAILURE");
    if (args.json) {
      out.json = bench::json_point(
          bench::rowf("drop=%.4g,psi=%d,outage=%llu", point.drop, point.psi,
                      static_cast<unsigned long long>(point.outage)),
          result);
    }
    return std::pair<bench::PointOutput, bool>(std::move(out), conserved);
  });

  std::vector<std::string> entries;
  for (const auto& [out, conserved] : outputs) {
    std::fputs(out.row.c_str(), stdout);
    if (!out.json.empty()) entries.push_back(out.json);
    if (!conserved) ++conservation_failures;
  }
  bench::write_json_report(args, "fault_tolerance", entries);
  if (conservation_failures > 0) {
    std::fprintf(stderr,
                 "bench_fault: %d point(s) lost or mis-resolved packets\n",
                 conservation_failures);
    return 1;
  }
  return 0;
}
