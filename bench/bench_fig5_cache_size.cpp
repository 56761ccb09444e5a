// Reproduces Fig. 5: mean lookup time (cycles) versus LR-cache size β for
// ψ = 16, five traces, 40 Gbps LCs, 40-cycle FE lookups. Following
// Sec. 5.2, γ = 50% for β >= 2K and 25% for β = 1K.
//
// Paper shape: larger β consistently lowers mean lookup time; at β = 4K
// every trace is below 9.2 cycles (>21 Mpps per LC, >336 Mpps router-wide).
//
// Sweep points are grouped by β: one router build per β runs every
// trace (bench::trace_sweep).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 5: mean lookup time vs LR-cache size (psi=16)",
                      "trace,beta_blocks,mean_cycles,hit_rate,lc_mpps");
  bench::trace_sweep(
      args, "fig5_cache_size",
      std::vector<std::size_t>{1024, 2048, 4096, 8192},
      [&](std::size_t beta) {
        core::RouterConfig config =
            bench::figure_config(16, args.packets_per_lc);
        config.cache.blocks = beta;
        config.cache.remote_fraction = beta == 1024 ? 0.25 : 0.50;
        return config;
      },
      [](const trace::WorkloadProfile& profile, std::size_t beta,
         const core::RouterResult& result) {
        return bench::rowf(
            "%s,%zu,%.3f,%.4f,%.1f\n", profile.name.c_str(), beta,
            result.mean_lookup_cycles(), result.cache_total.hit_rate(),
            result.latency.lookups_per_second(sim::kCycleNs) / 1e6);
      },
      [](const trace::WorkloadProfile& profile, std::size_t beta) {
        return bench::rowf("trace=%s,beta=%zu", profile.name.c_str(), beta);
      });
  return 0;
}
