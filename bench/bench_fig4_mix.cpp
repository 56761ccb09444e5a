// Reproduces Fig. 4: mean lookup time (cycles) versus the mix value γ
// (the share of each LR-cache set devoted to remote-homed results) for
// ψ = 4, β = 4K blocks, five traces, 40 Gbps LCs, 40-cycle FE lookups.
//
// Paper shape: γ = 50% is best or nearly best for every trace; γ = 0%
// (no REM blocks survive) is clearly worse because every remote lookup
// re-crosses the fabric.
//
// Sweep points are grouped by γ: one router build per γ runs every
// trace (bench::trace_sweep).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 4: mean lookup time vs mix value (psi=4, beta=4K)",
                      "trace,gamma_percent,mean_cycles,hit_rate");
  bench::trace_sweep(
      args, "fig4_mix", std::vector<double>{0.0, 0.25, 0.50, 0.75},
      [&](double gamma) {
        core::RouterConfig config =
            bench::figure_config(4, args.packets_per_lc);
        config.cache.blocks = 4096;
        config.cache.remote_fraction = gamma;
        return config;
      },
      [](const trace::WorkloadProfile& profile, double gamma,
         const core::RouterResult& result) {
        return bench::rowf("%s,%d,%.3f,%.4f\n", profile.name.c_str(),
                           static_cast<int>(gamma * 100),
                           result.mean_lookup_cycles(),
                           result.cache_total.hit_rate());
      },
      [](const trace::WorkloadProfile& profile, double gamma) {
        return bench::rowf("trace=%s,gamma=%d", profile.name.c_str(),
                           static_cast<int>(gamma * 100));
      });
  return 0;
}
