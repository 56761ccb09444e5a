// SPAL benchmark: sets up and runs one workload through the library's
// public API, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of stdout, one
// JSON object. Host-time numbers (wall clock of the machine running it) and modeled
// numbers (the simulated router, deterministic for a seed) are labelled as
// such on every human-readable line. See perfbench/README.md.
//
//   spal_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//
// One repetition is a full run as ROADMAP defines it: routing-table
// generation + RouterSim construction + trace generation (setup), then one
// RouterSim::run. Every repetition builds a fresh router, so a churn run
// never starts with the FE rebuild its predecessor's updates forced.
// Repetitions continue until --seconds have passed; each metric is the
// median over them.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/spal.h"
#include "span_recorder.h"
#include "trie/simd_dispatch.h"

#ifndef SPAL_PERFBENCH_BUILD_TYPE
#define SPAL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace spal;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;
using Streams = std::vector<std::vector<net::Ipv4Addr>>;
using Samples = std::map<std::string, std::vector<double>, std::less<>>;

constexpr int kMinReps = 3;        ///< per mode (untraced / traced)
constexpr int kLpmPasses = 5;      ///< timed host-LPM passes per repetition
constexpr double kLpmWarmupS = 0.1; ///< untimed host-LPM passes before them
constexpr int kReplayPasses = 5;   ///< passes per standalone lookup replay
constexpr std::size_t kBatch = 32; ///< batch width of trie.lookup_batch32_ns

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// splitmix64: derives independent input seeds from the command-line seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  bool internet_table = false;  ///< make_rt_internet(1M) instead of make_rt2()
  trace::WorkloadProfile profile;
  core::RouterConfig config;
  /// Also run the inputs once on the sharded engine (correctness pass).
  bool sharded_check = false;
  bool churn() const { return config.update.interval_cycles != 0; }
};

/// The table is the workload's fixed stand-in (RT_2 or the 1M internet
/// table); the seed varies the traffic (flow population, packet order,
/// arrival times) and the update stream.
std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.config = core::spal_default_config(16);
  w.config.line_rate_gbps = 40.0;
  w.config.fe_service_cycles = 40;
  w.config.packets_per_lc = 100'000;
  w.config.seed = derive_seed(seed, 1);
  w.profile = trace::profile_d75();
  if (name == "paper_d75") {
    w.sharded_check = true;
  } else if (name == "backbone_churn") {
    w.profile = trace::profile_l92_0();
    w.config.trie = trie::TrieKind::kDp;
    w.config.fe_service_cycles = 62;
    w.config.update_policy = core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
    w.config.update.interval_cycles = 100;  // ~10k updates per Mcycle
    w.config.update.seed = derive_seed(seed, 3);
  } else if (name == "internet_1m") {
    w.internet_table = true;
  } else {
    return std::nullopt;
  }
  w.profile.seed = derive_seed(seed, 2);
  return w;
}

// --- Setup (the timed set-up phase of one repetition) ----------------------

struct Setup {
  net::RouteTable table;
  std::unique_ptr<core::RouterSim> router;
  Streams streams;
  double seconds = 0.0;  ///< table generation + router build + trace generation
};

Setup set_up(const Workload& w, SpanRecorder* spans) {
  Setup s;
  const auto start = Clock::now();
  {
    const Scope span(spans, "net.table_gen");
    s.table = w.internet_table ? net::make_rt_internet() : net::make_rt2();
  }
  {
    const Scope span(spans, "core.build");
    s.router = std::make_unique<core::RouterSim>(s.table, w.config);
  }
  {
    const Scope span(spans, "trace.gen");
    const trace::TraceGenerator generator(w.profile, s.table);
    for (int lc = 0; lc < w.config.num_lcs; ++lc) {
      s.streams.push_back(generator.generate(lc, w.config.packets_per_lc));
    }
  }
  s.seconds = seconds_since(start);
  return s;
}

// --- Correctness bookkeeping -----------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void count(std::uint64_t attempts, std::uint64_t failures, const char* what) {
    attempted += attempts;
    failed += failures;
    if (failures != 0) {
      std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what,
                   static_cast<unsigned long long>(failures),
                   static_cast<unsigned long long>(attempts));
    }
  }
};

/// The workload's stream keys with the full-table oracle's answers, both in
/// arrival order and regrouped by home LC (the LC whose fragment resolves
/// the key, rot().home_of), which is where host lookups are sent.
struct Keys {
  std::vector<std::vector<net::NextHop>> stream_expected;  ///< [arrival lc][i]
  std::vector<std::vector<std::uint8_t>> stream_local;     ///< home == arrival
  std::vector<std::vector<net::Ipv4Addr>> by_home;         ///< [home lc]
  std::vector<std::vector<net::NextHop>> by_home_expected; ///< [home lc]
  std::size_t total = 0;
};

Keys route_keys(const Setup& s) {
  const trie::BinaryTrie oracle(s.table);
  const partition::RotPartition& rot = s.router->rot();
  Keys keys;
  const std::size_t lcs = s.streams.size();
  keys.stream_expected.resize(lcs);
  keys.stream_local.resize(lcs);
  keys.by_home.resize(lcs);
  keys.by_home_expected.resize(lcs);
  for (std::size_t lc = 0; lc < lcs; ++lc) {
    for (const net::Ipv4Addr addr : s.streams[lc]) {
      const net::NextHop hop = oracle.lookup(addr);
      const auto home = static_cast<std::size_t>(rot.home_of(addr));
      keys.stream_expected[lc].push_back(hop);
      keys.stream_local[lc].push_back(home == lc ? 1 : 0);
      keys.by_home[home].push_back(addr);
      keys.by_home_expected[home].push_back(hop);
      ++keys.total;
    }
  }
  return keys;
}

std::uint64_t mismatches(const std::vector<std::vector<net::NextHop>>& got,
                         const std::vector<std::vector<net::NextHop>>& want) {
  std::uint64_t bad = 0;
  for (std::size_t lc = 0; lc < want.size(); ++lc) {
    for (std::size_t i = 0; i < want[lc].size(); ++i) bad += got[lc][i] != want[lc][i];
  }
  return bad;
}

std::vector<std::vector<net::NextHop>> shaped_like(const Keys& keys) {
  std::vector<std::vector<net::NextHop>> out(keys.by_home.size());
  for (std::size_t lc = 0; lc < out.size(); ++lc) out[lc].resize(keys.by_home[lc].size());
  return out;
}

/// lpm_ns_per_lookup samples: scalar RouterSim::host_fe_lookup over every
/// stream key at its home LC. Passes repeat untimed for kLpmWarmupS first:
/// right after set-up a pass runs up to 2x slower for tens of milliseconds
/// before it settles, and a forwarding engine in service runs warm. Runs on
/// a router that has not run yet, so churn has not touched its FEs and the
/// oracle is exact.
void host_lpm_ns(const core::RouterSim& router, const Keys& keys, Checks& checks,
                 std::vector<double>& pass_ns) {
  auto out = shaped_like(keys);
  const auto lookup_all = [&] {
    for (std::size_t lc = 0; lc < keys.by_home.size(); ++lc) {
      router.host_fe_lookup(static_cast<int>(lc), keys.by_home[lc].data(),
                            keys.by_home[lc].size(), out[lc].data(), 1);
    }
  };
  const auto warmup_start = Clock::now();
  lookup_all();
  checks.count(keys.total, mismatches(out, keys.by_home_expected),
               "host LPM vs BinaryTrie oracle");
  while (seconds_since(warmup_start) < kLpmWarmupS) lookup_all();
  for (int pass = 0; pass < kLpmPasses; ++pass) {
    const auto start = Clock::now();
    lookup_all();
    pass_ns.push_back(seconds_since(start) * 1e9 / static_cast<double>(keys.total));
  }
}

// --- Standalone layer replays (traced repetitions only) --------------------

/// Replays every stream key at its home LC through standalone fragment
/// tries; `batch` > 1 uses lookup_batch in chunks of that width. Returns
/// the median ns per lookup over kReplayPasses passes.
double trie_lookup_ns(const std::vector<std::unique_ptr<trie::LpmIndex>>& fragments,
                      const Keys& keys, std::size_t batch, SpanRecorder* spans,
                      const char* span_name, Checks& checks) {
  auto out = shaped_like(keys);
  std::vector<double> pass_ns;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const Scope span(spans, span_name);
    const auto start = Clock::now();
    for (std::size_t lc = 0; lc < fragments.size(); ++lc) {
      const auto& in = keys.by_home[lc];
      const trie::LpmIndex& fe = *fragments[lc];
      if (batch <= 1) {
        for (std::size_t i = 0; i < in.size(); ++i) out[lc][i] = fe.lookup(in[i]);
      } else {
        for (std::size_t i = 0; i < in.size(); i += batch) {
          fe.lookup_batch(in.data() + i, std::min(batch, in.size() - i), out[lc].data() + i);
        }
      }
    }
    pass_ns.push_back(seconds_since(start) * 1e9 / static_cast<double>(keys.total));
  }
  checks.count(keys.total, mismatches(out, keys.by_home_expected),
               "standalone fragment lookup vs oracle");
  return median(pass_ns);
}

/// cache.probe_ns: each LC's stream through a fresh LrCache — probe, and on
/// a miss insert the oracle's answer with its LOC/REM origin. Hits must
/// return the inserted answer. Leaves the caches warm.
double cache_probe_ns(const Workload& w, const Setup& s, const Keys& keys,
                      std::vector<cache::LrCache>& caches, Checks& checks) {
  caches.clear();
  for (std::size_t lc = 0; lc < s.streams.size(); ++lc) caches.emplace_back(w.config.cache);
  std::uint64_t wrong_hits = 0;
  const auto start = Clock::now();
  for (std::size_t lc = 0; lc < s.streams.size(); ++lc) {
    cache::LrCache& cache = caches[lc];
    const auto& stream = s.streams[lc];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const cache::ProbeResult probe = cache.probe(stream[i], i);
      if (probe.state == cache::ProbeState::kMiss) {
        cache.insert(stream[i], keys.stream_expected[lc][i],
                     keys.stream_local[lc][i] ? cache::Origin::kLocal
                                              : cache::Origin::kRemote,
                     i);
      } else {
        wrong_hits += probe.next_hop != keys.stream_expected[lc][i];
      }
    }
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(keys.total);
  checks.count(keys.total, wrong_hits, "LR-cache replay hit vs oracle");
  return ns;
}

/// Sized like the router's event record, so the replay copies as many bytes
/// per schedule and pop as a simulated run does.
struct ReplayEvent {
  std::uint64_t packet = 0;
  std::uint32_t lc = 0;
  std::uint32_t follow_up = 0;
  std::array<std::uint64_t, 6> payload{};
};

/// sim.queue_ns_per_event: a CalendarQueue driven by the workload's arrival
/// schedule (generate_arrival_times per LC, all pre-scheduled LC-major as
/// the router does); each popped arrival schedules one follow-up a cycle
/// later, the shape of a cache hit resolving.
double queue_ns_per_event(const Workload& w, Checks& checks) {
  std::vector<std::vector<std::uint64_t>> arrivals;
  std::size_t packets = 0;
  std::uint64_t horizon = 0;
  for (int lc = 0; lc < w.config.num_lcs; ++lc) {
    arrivals.push_back(sim::generate_arrival_times(
        w.config.line_rate_gbps, w.config.packets_per_lc,
        derive_seed(w.config.seed, static_cast<std::uint64_t>(lc))));
    packets += arrivals.back().size();
    if (!arrivals.back().empty()) horizon = std::max(horizon, arrivals.back().back());
  }
  const auto start = Clock::now();
  sim::CalendarQueue<ReplayEvent> queue;
  queue.reserve(2 * packets, horizon);
  std::uint64_t id = 0;
  for (std::size_t lc = 0; lc < arrivals.size(); ++lc) {
    for (const std::uint64_t t : arrivals[lc]) {
      queue.schedule(t, ReplayEvent{id++, static_cast<std::uint32_t>(lc), 0, {}});
    }
  }
  std::uint64_t events = 0;
  std::uint64_t last = 0;
  std::uint64_t out_of_order = 0;
  while (!queue.empty()) {
    auto [t, event] = queue.pop();
    ++events;
    out_of_order += t < last;
    last = t;
    if (event.follow_up == 0) {
      event.follow_up = 1;
      queue.schedule(t + 1, event);
    }
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(events);
  checks.count(1, (events != 2 * packets) + (out_of_order != 0),
               "calendar-queue replay event count / order");
  return ns;
}

/// The per-layer work of one traced repetition: standalone partition and
/// trie builds, lookup/cache/queue replays, and on churn the update-stream
/// generation, the invalidation replay and a churn-free run of the same
/// inputs (the run-time difference the invalidation replay explains).
void traced_layers(const Workload& w, const Setup& s, const core::RouterResult& result,
                   const Keys& keys, int rep, SpanRecorder& recorder, Samples& out,
                   Checks& checks) {
  SpanRecorder* spans = &recorder;
  const core::RouterConfig& cfg = w.config;
  std::optional<partition::RotPartition> part;
  {
    const Scope span(spans, "partition.build");
    part.emplace(s.table, cfg.num_lcs, cfg.partition_config);
  }
  const partition::FragmentSizing sizing = partition::fragment_sizing(*part, s.table.size());
  out["partition.replication_ratio"].push_back(sizing.replication);
  out["partition.max_fragment_share"].push_back(
      static_cast<double>(sizing.max_prefixes) / static_cast<double>(sizing.input_prefixes));
  std::vector<std::unique_ptr<trie::LpmIndex>> fragments;
  {
    const Scope span(spans, "trie.build");
    for (int lc = 0; lc < cfg.num_lcs; ++lc) {
      fragments.push_back(trie::build_lpm(cfg.trie, part->table_of(lc), cfg.trie_options));
    }
  }
  out["trie.lookup_ns"].push_back(
      trie_lookup_ns(fragments, keys, 1, spans, "trie.lookup", checks));
  out["trie.lookup_batch32_ns"].push_back(
      trie_lookup_ns(fragments, keys, kBatch, spans, "trie.lookup_batch32", checks));
  fragments.clear();

  std::vector<cache::LrCache> caches;
  {
    const Scope span(spans, "cache.probe_replay");
    out["cache.probe_ns"].push_back(cache_probe_ns(w, s, keys, caches, checks));
  }
  {
    const Scope span(spans, "sim.queue_replay");
    out["sim.queue_ns_per_event"].push_back(queue_ns_per_event(w, checks));
  }

  double invalidate_ns = 0.0;
  double run_delta_s = 0.0;
  if (w.churn()) {
    std::vector<net::TableUpdate> updates;
    {
      // The same call the router makes at run start, for the count it applied.
      const Scope span(spans, "net.update_gen");
      net::UpdateStreamConfig stream;
      stream.count = result.update.applied;
      stream.seed = cfg.update.seed;
      stream.announce_fraction = cfg.update.announce_fraction;
      stream.withdraw_fraction = cfg.update.withdraw_fraction;
      stream.next_hops = cfg.update.next_hops;
      updates = net::generate_update_stream(s.table, stream);
    }
    checks.count(1, updates.size() != result.update.applied, "update stream length");
    {
      const Scope span(spans, "cache.invalidate_replay");
      const auto start = Clock::now();
      for (const net::TableUpdate& update : updates) {
        for (cache::LrCache& cache : caches) cache.invalidate_matching(update.prefix);
      }
      invalidate_ns = seconds_since(start) * 1e9 /
                      static_cast<double>(std::max<std::size_t>(1, updates.size() * caches.size()));
    }
    core::RouterConfig quiet = cfg;
    quiet.update.interval_cycles = 0;
    std::optional<core::RouterSim> baseline;
    {
      const Scope span(spans, "update.baseline_build");
      baseline.emplace(s.table, quiet);
    }
    {
      const Scope span(spans, "update.baseline_run");
      baseline->run(s.streams, false);
    }
    run_delta_s = recorder.seconds(rep, "core.run") - recorder.seconds(rep, "update.baseline_run");
  }
  out["cache.invalidate_ns_per_update"].push_back(invalidate_ns);
  const double explained_s = invalidate_ns * 1e-9 * static_cast<double>(result.update.applied) *
                             static_cast<double>(cfg.num_lcs);
  out["cache.invalidate_explained_s"].push_back(explained_s);
  out["update.run_delta_s"].push_back(run_delta_s);
  out["update.host_us_per_update"].push_back(
      result.update.applied == 0 ? 0.0
                                 : run_delta_s * 1e6 / static_cast<double>(result.update.applied));
  out["cache.invalidate_share_of_delta"].push_back(run_delta_s > 0.0 ? explained_s / run_delta_s
                                                                     : 0.0);
}

// --- Reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;  ///< "host", "modeled" or "count"
};

/// The CPU's brand string from CPUID leaves 0x80000002..4.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned leaf_max = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &leaf_max, &b, &c, &d) == 0 || leaf_max < 0x80000004u) {
    return "unknown";
  }
  std::array<unsigned, 12> regs{};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs.data(), sizeof regs);
  std::string model;
  for (const char ch : std::string_view(brand)) {
    if (ch >= ' ' && ch <= '~' && ch != '"' && ch != '\\') model += ch;
  }
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string host_json(int planned_shards) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"simd\": \"%s\", \"planned_shards\": %d}",
                std::thread::hardware_concurrency(), cpu_model().c_str(), kCompiler,
                SPAL_PERFBENCH_BUILD_TYPE,
                std::string(trie::to_string(trie::resolved_simd_level())).c_str(),
                planned_shards);
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// FNV-1a of the modeled report, so runs of one workload (paper_d75
/// on one seed, say before and after a change) can be compared by eye.
std::uint64_t digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-36s %-14.6g %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.kind.c_str());
  }
  std::string line = "{\"correct\": ";
  line += checks.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(checks.attempted);
  line += ", \"failed\": " + std::to_string(checks.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: spal_perfbench --workload <paper_d75|backbone_churn|internet_1m>"
                 " --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n");
    return 2;
  }
  const std::optional<Workload> workload = make_workload(args->workload, args->seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  std::printf("# spal perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds, args->trace ? 1 : 0);
  std::fflush(stdout);

  SpanRecorder recorder;
  Checks checks;
  Samples samples;
  Keys keys;
  Setup last;
  std::string reference_json;
  core::RouterResult reference;
  int planned_shards = 0;
  int untraced_reps = 0;
  int traced_reps = 0;
  const auto loop_start = Clock::now();
  for (int rep = 0;; ++rep) {
    // With --trace 1, untraced and traced repetitions alternate so both see
    // the same machine conditions; their totals differ by tracing overhead.
    const bool traced = args->trace && rep % 2 == 1;
    SpanRecorder* spans = traced ? &recorder : nullptr;
    recorder.begin_run(rep);
    last = Setup{};  // free the previous repetition's router first
    core::RouterResult result;
    double run_s = 0.0;
    {
      const Scope root(spans, "bench.repetition");
      last = set_up(w, spans);
      if (rep == 0) {
        keys = route_keys(last);
        planned_shards = last.router->planned_shards(false);
      }
      if (!traced) host_lpm_ns(*last.router, keys, checks, samples["lpm_ns"]);
      const auto start = Clock::now();
      {
        const Scope span(spans, "core.run");
        result = last.router->run(last.streams, false);
      }
      run_s = seconds_since(start);
    }
    const std::string json = result.to_json();
    if (rep == 0) {
      reference_json = json;
      reference = result;
    } else {
      checks.count(1, json != reference_json, "modeled report differs from repetition 0");
    }
    if (traced) {
      ++traced_reps;
      samples["traced.total_s"].push_back(last.seconds + run_s);
      samples["net.table_gen_s"].push_back(recorder.seconds(rep, "net.table_gen"));
      samples["core.build_s"].push_back(recorder.seconds(rep, "core.build"));
      samples["trace.gen_s"].push_back(recorder.seconds(rep, "trace.gen"));
      samples["core.run_s"].push_back(recorder.seconds(rep, "core.run"));
      samples["traced.setup_s"].push_back(last.seconds);
      traced_layers(w, last, result, keys, rep, recorder, samples, checks);
      samples["partition.build_s"].push_back(recorder.seconds(rep, "partition.build"));
      samples["trie.build_s"].push_back(recorder.seconds(rep, "trie.build"));
      samples["net.update_gen_s"].push_back(recorder.seconds(rep, "net.update_gen"));
      for (const auto& [layer, self_s] : recorder.self_seconds(rep)) {
        samples[layer + ".self_s"].push_back(self_s);
      }
    } else {
      ++untraced_reps;
      samples["setup_s"].push_back(last.seconds);
      samples["run_s"].push_back(run_s);
      samples["total_s"].push_back(last.seconds + run_s);
    }
    const bool enough = untraced_reps >= kMinReps && (!args->trace || traced_reps >= kMinReps);
    if (enough && seconds_since(loop_start) >= args->seconds) break;
  }
  const double measured_s = seconds_since(loop_start);
  std::uint64_t packets = 0;
  for (const auto& stream : last.streams) packets += stream.size();

  // Correctness pass (untimed): the last repetition's inputs again, in
  // verify mode. Every packet must resolve to the oracle's next hop, and the
  // modeled report must equal the timed repetitions'. On churn this rerun
  // also exercises the FE rebuild the previous run's updates forced.
  {
    const core::RouterResult verified = last.router->run(last.streams, true);
    checks.count(packets, verified.verify_mismatches + (packets - verified.resolved_packets),
                 "simulated packets unresolved or mismatching the oracle");
    checks.count(1, verified.to_json() != reference_json,
                 "modeled report differs from the verify run");
  }
  // The sim layer's sharded engine on the same inputs, one worker per
  // hardware thread: its report must be byte-identical to the sequential
  // one, and it must not fall back to fewer shards than threads asked for.
  double sharded_run_s = 0.0;
  if (w.sharded_check) {
    core::RouterConfig sharded = w.config;
    sharded.execution = core::RouterConfig::ExecutionMode::kSharded;
    sharded.threads = 0;
    core::RouterSim router(last.table, sharded);
    planned_shards = router.planned_shards(false);
    const unsigned hw = std::thread::hardware_concurrency();
    const int asked = std::clamp(hw == 0 ? 1 : static_cast<int>(hw), 1, w.config.num_lcs);
    checks.count(1, planned_shards < asked, "sharded engine planned fewer shards than threads");
    recorder.begin_run(-1);
    const auto start = Clock::now();
    core::RouterResult result;
    {
      const Scope span(args->trace ? &recorder : nullptr, "sim.sharded_run");
      result = router.run(last.streams, false);
    }
    sharded_run_s = seconds_since(start);
    checks.count(1, result.to_json() != reference_json,
                 "sharded report differs from the sequential one");
  }
  const double rss_mb = peak_rss_mb();

  std::printf("# host %s\n", host_json(planned_shards).c_str());
  std::printf("# repetitions: %d untraced, %d traced, over %.2f s; %llu packets, %zu prefixes\n",
              untraced_reps, traced_reps, measured_s, static_cast<unsigned long long>(packets),
              last.table.size());
  std::printf("# modeled report digest %016llx (fnv1a of RouterResult::to_json)\n",
              static_cast<unsigned long long>(digest(reference_json)));
  std::printf("# failed_share %.17g (%llu of %llu checks)\n",
              static_cast<double>(checks.failed) / static_cast<double>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));

  const auto med = [&](std::string_view name) {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  };
  for (const char* name : {"setup_s", "run_s", "total_s", "lpm_ns"}) {
    const std::vector<double>& v = samples[name];
    if (v.empty()) continue;
    std::printf("# samples %-8s n=%-3zu min %-12.6g median %-12.6g max %.6g\n", name, v.size(),
                *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()));
  }
  std::vector<Metric> metrics;
  if (!args->trace) {
    const double run_s = med("run_s");
    metrics = {
        {"setup_s", med("setup_s"), "s", "host"},
        {"run_ns_per_packet", run_s * 1e9 / static_cast<double>(packets), "ns", "host"},
        {"total_s", med("setup_s") + run_s, "s", "host"},
        {"lpm_ns_per_lookup", med("lpm_ns"), "ns", "host"},
        {"peak_rss_mb", rss_mb, "MB", "host"},
        {"mean_lookup_cycles", reference.mean_lookup_cycles(), "cycles", "modeled"},
        {"p99_lookup_cycles", static_cast<double>(reference.latency.percentile(0.99)), "cycles",
         "modeled"},
    };
  } else {
    const core::RouterResult& r = reference;
    const auto per_packet = [&](double count) { return count / static_cast<double>(packets); };
    std::uint64_t queue_wait = 0;
    std::uint64_t waiting_highwater = 0;
    for (const core::LcStats& lc : r.per_lc) {
      queue_wait += lc.fe_queue_wait_cycles;
      waiting_highwater = std::max(waiting_highwater, lc.waiting_highwater);
    }
    std::size_t storage_max = 0;
    for (const std::size_t bytes : last.router->trie_storage_bytes()) {
      storage_max = std::max(storage_max, bytes);
    }
    const double setup_s = med("traced.setup_s");
    const double covered_s = med("net.table_gen_s") + med("partition.build_s") + med("trie.build_s");
    metrics = {
        {"net.table_gen_s", med("net.table_gen_s"), "s", "host"},
        {"net.update_gen_s", med("net.update_gen_s"), "s", "host"},
        {"partition.build_s", med("partition.build_s"), "s", "host"},
        {"partition.replication_ratio", med("partition.replication_ratio"), "ratio", "count"},
        {"partition.max_fragment_share", med("partition.max_fragment_share"), "ratio", "count"},
        {"trie.build_s", med("trie.build_s"), "s", "host"},
        {"trie.storage_kb_max", static_cast<double>(storage_max) / 1024.0, "kB", "count"},
        {"trie.lookup_ns", med("trie.lookup_ns"), "ns", "host"},
        {"trie.lookup_batch32_ns", med("trie.lookup_batch32_ns"), "ns", "host"},
        {"trace.gen_s", med("trace.gen_s"), "s", "host"},
        {"core.build_s", med("core.build_s"), "s", "host"},
        {"core.run_s", med("core.run_s"), "s", "host"},
        {"core.fe_lookups_per_packet", per_packet(static_cast<double>(r.fe_lookups)), "ratio",
         "modeled"},
        {"core.remote_share", per_packet(static_cast<double>(r.remote_requests)), "ratio",
         "modeled"},
        {"core.max_fe_utilization", r.max_fe_utilization, "ratio", "modeled"},
        {"core.fe_queue_wait_mean_cycles",
         r.fe_lookups == 0 ? 0.0
                           : static_cast<double>(queue_wait) / static_cast<double>(r.fe_lookups),
         "cycles", "modeled"},
        {"cache.hit_rate", r.cache_total.hit_rate(), "ratio", "modeled"},
        {"cache.waiting_hit_share",
         r.cache_total.probes == 0 ? 0.0
                                   : static_cast<double>(r.cache_total.waiting_hits) /
                                         static_cast<double>(r.cache_total.probes),
         "ratio", "modeled"},
        {"cache.victim_hits", static_cast<double>(r.cache_total.victim_hits), "count", "modeled"},
        {"cache.evictions", static_cast<double>(r.cache_total.evictions), "count", "modeled"},
        {"cache.waiting_highwater_max", static_cast<double>(waiting_highwater), "count",
         "modeled"},
        {"cache.probe_ns", med("cache.probe_ns"), "ns", "host"},
        {"cache.invalidate_ns_per_update", med("cache.invalidate_ns_per_update"), "ns", "host"},
        {"cache.blocks_invalidated", static_cast<double>(r.update.blocks_invalidated), "count",
         "modeled"},
        {"cache.invalidate_explained_s", med("cache.invalidate_explained_s"), "s", "host"},
        {"cache.invalidate_share_of_delta", med("cache.invalidate_share_of_delta"), "ratio",
         "host"},
        {"fabric.messages_per_packet", per_packet(static_cast<double>(r.fabric.messages)),
         "ratio", "modeled"},
        {"fabric.queueing_cycles_per_message",
         r.fabric.messages == 0 ? 0.0
                                : static_cast<double>(r.fabric.total_queueing_cycles) /
                                      static_cast<double>(r.fabric.messages),
         "cycles", "modeled"},
        {"sim.queue_ns_per_event", med("sim.queue_ns_per_event"), "ns", "host"},
        {"sim.planned_shards", static_cast<double>(planned_shards), "count", "count"},
        {"sim.sharded_run_s", sharded_run_s, "s", "host"},
        {"update.applied", static_cast<double>(r.update.applied), "count", "modeled"},
        {"update.applications", static_cast<double>(r.update.applications), "count", "modeled"},
        {"update.fe_incremental", static_cast<double>(r.update.fe_incremental), "count",
         "modeled"},
        {"update.messages",
         static_cast<double>(r.update.update_messages + r.update.invalidation_messages), "count",
         "modeled"},
        {"update.run_delta_s", med("update.run_delta_s"), "s", "host"},
        {"update.host_us_per_update", med("update.host_us_per_update"), "us", "host"},
        {"net.self_s", med("net.self_s"), "s", "host"},
        {"partition.self_s", med("partition.self_s"), "s", "host"},
        {"trie.self_s", med("trie.self_s"), "s", "host"},
        {"trace.self_s", med("trace.self_s"), "s", "host"},
        {"core.self_s", med("core.self_s"), "s", "host"},
        {"cache.self_s", med("cache.self_s"), "s", "host"},
        {"sim.self_s", med("sim.self_s"), "s", "host"},
        {"update.self_s", med("update.self_s"), "s", "host"},
        {"bench.self_s", med("bench.self_s"), "s", "host"},
        {"tracing.overhead_s", med("traced.total_s") - med("total_s"), "s", "host"},
        {"tracing.setup_coverage", setup_s > 0.0 ? covered_s / setup_s : 0.0, "ratio", "host"},
    };
    if (w.churn()) {
      std::printf("# churn: %llu updates x %d caches x %.0f ns per invalidate_matching scan = "
                  "%.3f s, against %.3f s of run time the updates add (%.0f%%; %.1f us per "
                  "update)\n",
                  static_cast<unsigned long long>(r.update.applied), w.config.num_lcs,
                  med("cache.invalidate_ns_per_update"), med("cache.invalidate_explained_s"),
                  med("update.run_delta_s"), 100.0 * med("cache.invalidate_share_of_delta"),
                  med("update.host_us_per_update"));
    }
    if (!args->spans_path.empty() && !recorder.write_json(args->spans_path)) {
      std::fprintf(stderr, "warning: could not write spans to %s\n", args->spans_path.c_str());
    }
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}
