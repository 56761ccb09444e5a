// Sharded-engine benchmark: wall-clock speedup and bit-identity of the
// per-LC-group parallel event engine against the sequential oracle.
//
// Runs one ψ=16 configuration (the paper's largest router) on the D_75
// trace: first with the sequential engine, then with `--engine=sharded` at
// thread counts {1, 2, 4, 8} (or the single count pinned by `--threads`).
// Every sharded run's RouterResult::to_json() is byte-compared against the
// sequential run; any difference is a correctness failure and the bench
// exits nonzero — the speedup column is meaningless if the answers differ.
//
// Points run one at a time on the main thread (never under parallel_sweep:
// nested parallelism would corrupt the wall-clock measurement), and the
// wall time covers run_workload() only — table build and trace generation
// are excluded. Speedup is sequential_wall / point_wall on THIS host; on a
// single-core container every sharded point will be ~1x or slower (the
// frontier-publication protocol is pure overhead without real cores), which
// is the honest result — see EXPERIMENTS.md.
//
// With --json, every point embeds engine/threads/shards/wall_ms/speedup/
// identical alongside the full RouterResult so `spal_report --check` can
// verify both the invariants and the bit-identity flag.
#include <chrono>

#include "bench_util.h"

using namespace spal;

namespace {

double run_wall_ms(core::RouterSim& router, const trace::WorkloadProfile& profile,
                   core::RouterResult& result) {
  const auto start = std::chrono::steady_clock::now();
  result = router.run_workload(profile, /*verify=*/false);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Sharded parallel engine: wall-clock speedup vs sequential oracle "
      "(psi=16)",
      "engine,threads,shards,wall_ms,speedup,identical");

  constexpr int kPsi = 16;
  const trace::WorkloadProfile profile = trace::profile_d75();
  core::RouterConfig base = bench::figure_config(kPsi, args.packets_per_lc);

  // Sequential oracle first: its JSON is the reference for every point.
  core::RouterConfig sequential = base;
  sequential.execution = core::RouterConfig::ExecutionMode::kSequential;
  core::RouterSim oracle_router(bench::rt2(), sequential);
  core::RouterResult oracle_result;
  const double oracle_ms = run_wall_ms(oracle_router, profile, oracle_result);
  const std::string oracle_json = oracle_result.to_json();

  std::vector<std::string> entries;
  int mismatches = 0;
  auto emit = [&](const char* engine, int threads, int shards, double wall_ms,
                  bool identical, const std::string& result_json) {
    const double speedup = wall_ms > 0.0 ? oracle_ms / wall_ms : 0.0;
    std::fputs(bench::rowf("%s,%d,%d,%.2f,%.3f,%s%s\n", engine, threads,
                           shards, wall_ms, speedup,
                           identical ? "yes" : "no",
                           identical ? "" : ",MISMATCH")
                   .c_str(),
               stdout);
    if (!identical) ++mismatches;
    if (args.json) {
      entries.push_back(
          bench::rowf("{\"label\":\"engine=%s,threads=%d\",\"engine\":\"%s\","
                      "\"threads\":%d,\"shards\":%d,\"wall_ms\":%.3f,"
                      "\"speedup\":%.4f,\"identical\":%s,\"result\":",
                      engine, threads, engine, threads, shards, wall_ms,
                      speedup, identical ? "true" : "false") +
          result_json + "}");
    }
  };
  emit("sequential", 1, 1, oracle_ms, true, oracle_json);

  const std::vector<int> thread_counts =
      args.threads > 0 ? std::vector<int>{args.threads}
                       : std::vector<int>{1, 2, 4, 8};
  for (const int threads : thread_counts) {
    core::RouterConfig config = base;
    config.execution = core::RouterConfig::ExecutionMode::kSharded;
    config.threads = threads;
    core::RouterSim router(bench::rt2(), config);
    const int shards = router.planned_shards();
    core::RouterResult result;
    const double wall_ms = run_wall_ms(router, profile, result);
    const std::string json = result.to_json();
    emit("sharded", threads, shards, wall_ms, json == oracle_json, json);
  }

  bench::write_json_report(args, "parallel", entries);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "bench_parallel: %d sharded point(s) diverged from the "
                 "sequential oracle\n",
                 mismatches);
    return 1;
  }
  return 0;
}
