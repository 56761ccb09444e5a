// Reproduces Fig. 6: mean lookup time (cycles) versus ψ (number of LCs,
// any integer — 3 included deliberately) for β = 4K, γ = 50%, five traces.
//
// Paper shape: mean lookup time falls as ψ grows (finer fragmentation =>
// better per-LC address-space coverage + more FE parallelism); ψ = 1 is
// also what an LR-cache-without-partitioning router achieves regardless of
// its LC count (the Sec. 5.2 comparison against [6]).
//
// Sweep points are grouped by ψ: one router build per ψ runs every
// trace (bench::trace_sweep).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 6: mean lookup time vs psi (beta=4K, gamma=50%)",
                      "trace,psi,mean_cycles,hit_rate,remote_fraction");
  bench::trace_sweep(
      args, "fig6_scaling", std::vector<int>{1, 2, 3, 4, 8, 16},
      [&](int psi) {
        core::RouterConfig config =
            bench::figure_config(psi, args.packets_per_lc);
        config.cache.blocks = 4096;
        config.cache.remote_fraction = 0.50;
        return config;
      },
      [](const trace::WorkloadProfile& profile, int psi,
         const core::RouterResult& result) {
        const double remote_share =
            result.resolved_packets == 0
                ? 0.0
                : static_cast<double>(result.remote_requests) /
                      static_cast<double>(result.resolved_packets);
        return bench::rowf("%s,%d,%.3f,%.4f,%.4f\n", profile.name.c_str(), psi,
                           result.mean_lookup_cycles(),
                           result.cache_total.hit_rate(), remote_share);
      },
      [](const trace::WorkloadProfile& profile, int psi) {
        return bench::rowf("trace=%s,psi=%d", profile.name.c_str(), psi);
      });
  return 0;
}
