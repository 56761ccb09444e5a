// Golden whole-router digests. Each case folds RouterResult::to_json() into
// an FNV-1a digest and compares it with a value recorded before the run
// loop stopped pre-filing arrivals into the calendar queue. The configs are
// built so that pre-scheduled sources collide on the same cycle: packet
// arrivals (2-18 cycles apart at 40 Gbps) against live-update injects,
// rebalancer ticks and an operator migration start. Any change to the
// equal-time order of those sources moves a digest. Every case that the
// sharded engine supports also runs on it with four threads and must give
// the same digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"
#include "sim/packet_source.h"

namespace {

using namespace spal;
using core::RouterConfig;
using core::RouterResult;
using core::RouterSim;
using core::RouterSim6;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

net::RouteTable table4() {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = 4'243;
  return net::generate_table(config);
}

net::RouteTable6 table6() {
  net::TableGen6Config config;
  config.size = 2'000;
  config.seed = 4'249;
  return net::generate_table6(config);
}

trace::WorkloadProfile profile() {
  trace::WorkloadProfile p = trace::profile_d75();
  p.flows = 2'000;
  return p;
}

RouterConfig base_config(int psi) {
  RouterConfig config = core::spal_default_config(psi);
  config.packets_per_lc = 1'500;
  config.cache.blocks = 512;
  return config;
}

/// threads < 0 runs the sequential engine; otherwise kSharded capped at
/// `threads` workers.
template <typename Router, typename Table>
RouterResult run(const Table& table, RouterConfig config, bool verify,
                 int threads) {
  if (threads >= 0) {
    config.execution = RouterConfig::ExecutionMode::kSharded;
    config.threads = threads;
  }
  Router router(table, config);
  return router.run_workload(profile(), verify);
}

/// Checks the sequential engine and, for configs the sharded engine runs
/// with more than one shard, four sharded threads against `expected`.
/// Returns the sequential result so a case can check that its scenario
/// actually happened.
template <typename Router, typename Table>
RouterResult expect_digest(const Table& table, const RouterConfig& config,
                           bool verify, std::uint64_t expected) {
  const RouterResult result = run<Router>(table, config, verify, -1);
  EXPECT_EQ(fnv1a(result.to_json()), expected);
  EXPECT_EQ(result.resolved_packets,
            config.packets_per_lc * static_cast<std::size_t>(config.num_lcs));
  EXPECT_EQ(result.verify_mismatches, 0u);
  RouterConfig sharded = config;
  sharded.execution = RouterConfig::ExecutionMode::kSharded;
  sharded.threads = 4;
  if (Router(table, sharded).planned_shards(verify) > 1) {
    EXPECT_EQ(fnv1a(run<Router>(table, config, verify, 4).to_json()),
              expected);
  }
  return result;
}

TEST(RouterGolden, BaselineD75) {
  expect_digest<RouterSim>(table4(), base_config(16), /*verify=*/true,
                           0x8119516C399E34B4ULL);
}

TEST(RouterGolden, UpdateInjectsOnArrivalCycles) {
  // One inject every 10 cycles (count 0 fills the arrival horizon), so
  // injects and arrivals share cycles throughout the run.
  RouterConfig config = base_config(4);
  config.packets_per_lc = 600;
  config.update.interval_cycles = 10;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/false, 0x0DEF10D33EE4C81FULL);
  EXPECT_GT(result.update.applied, 400u);
}

TEST(RouterGolden, RebalancerTicksOnArrivalCycles) {
  RouterConfig config = base_config(4);
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 1'000;
  config.rebalancer.skew_threshold = 1.0;
  config.rebalancer.max_migrations = 4;
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0x92ACBA866D616DFFULL);
  EXPECT_GT(result.rebalancer.windows, 10u);
  EXPECT_GT(result.rebalancer.completed_migrations, 0u);
}

TEST(RouterGolden, MigrationStartsOnAnArrivalCycle) {
  RouterConfig config = base_config(4);
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  // The 500th packet arrival at LC 1, derived exactly as the router seeds
  // its per-LC arrival streams.
  config.migration.start_cycle = sim::generate_arrival_times(
      config.line_rate_gbps, 500, config.seed ^ (0xabcdef12345ULL + 1))[499];
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0x2AC70D1C86F7C93CULL);
  EXPECT_EQ(result.failover.migrations, 1u);
}

TEST(RouterGolden, FaultsWithReplication) {
  RouterConfig config = base_config(4);
  config.line_rate_gbps = 10.0;
  config.fault.enabled = true;
  config.fault.drop_probability = 0.02;
  config.fault.outages.push_back(
      fabric::OutageWindow{/*port=*/1, /*start=*/10'000, /*end=*/30'000});
  config.recovery.max_retries = 3;
  config.replication.replicas = 1;
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0xF73AD1423C784AC2ULL);
  EXPECT_GT(result.fault.retransmits, 0u);
  EXPECT_GT(result.failover.rerouted_requests, 0u);
}

TEST(RouterGolden, Ipv6WithUpdateInjects) {
  RouterConfig config = base_config(4);
  config.update.interval_cycles = 10;
  config.update.count = 300;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  const RouterResult result = expect_digest<RouterSim6>(
      table6(), config, /*verify=*/false, 0x58F3B73810B1CD63ULL);
  EXPECT_EQ(result.update.applied, 300u);
}

}  // namespace
