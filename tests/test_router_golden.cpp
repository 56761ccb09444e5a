// Golden whole-router digests. Each case folds RouterResult::to_json() into
// an FNV-1a digest and compares it with a value recorded before a change to
// the run loop or the router core. The first configs are built so that
// pre-scheduled sources collide on the same cycle: packet arrivals (2-18
// cycles apart at 40 Gbps) against live-update injects, rebalancer ticks
// and an operator migration start. Any change to the equal-time order of
// those sources moves a digest. The later ones combine live updates with
// migration, the rebalancer, replicas, an outage and the memory model, so
// a change to how an update reaches the structure serving its prefix moves
// a digest too. Every case that the sharded engine supports also runs on
// it with four threads and must give the same digest.
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
      table4(), config, /*verify=*/true, 0xC20694F9ED2151DBULL);
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
      table4(), config, /*verify=*/true, 0xF59E3254C7D671BBULL);
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

// Feature combinations: live updates crossing a migration's copy phase and
// cutover, the rebalancer with replicas, an outage with replicas (deferred
// primary applies, resync, acting-primary broadcast), and a migrated
// structure priced by the memory model.

RouterConfig churn(RouterConfig config) {
  config.update.interval_cycles = 10;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  return config;
}

RouterConfig operator_migration(RouterConfig config) {
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = 2'000;
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  return config;
}

TEST(RouterGolden, MigrationWithChurn) {
  const RouterConfig config = churn(operator_migration(base_config(4)));
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0x4E1B0A242E2DC161ULL);
  EXPECT_EQ(result.failover.migrations, 1u);
  EXPECT_GT(result.failover.double_delivered_updates, 0u);
  // Injects every 10 cycles run to the arrival horizon, far past the
  // cutover (a few thousand cycles after the start).
  EXPECT_GT(result.update.applied, 1'000u);
}

TEST(RouterGolden, RebalancerWithChurnAndReplicas) {
  RouterConfig config = churn(base_config(4));
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 1'000;
  config.rebalancer.skew_threshold = 1.0;
  config.rebalancer.max_migrations = 4;
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  config.replication.replicas = 1;
  config.trie = trie::TrieKind::kDp;
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/false, 0xDDC96821FF724BA0ULL);
  EXPECT_GT(result.rebalancer.completed_migrations, 0u);
  EXPECT_GT(result.failover.replica_update_applications, 0u);
  EXPECT_GT(result.failover.double_delivered_updates, 0u);
}

TEST(RouterGolden, OutageWithReplicasAndChurn) {
  RouterConfig config = base_config(4);
  config.line_rate_gbps = 10.0;
  config.update.interval_cycles = 50;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  config.fault.enabled = true;
  config.fault.outages.push_back(
      fabric::OutageWindow{/*port=*/1, /*start=*/10'000, /*end=*/30'000});
  config.recovery.max_retries = 3;
  config.replication.replicas = 1;
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0xB9EE55AB7F7B6C56ULL);
  EXPECT_GT(result.failover.missed_updates, 0u);
  EXPECT_GT(result.failover.acting_primary_applications, 0u);
  EXPECT_GT(result.failover.resync_entries, 0u);
  EXPECT_GT(result.failover.resync_cutovers, 0u);
}

TEST(RouterGolden, MigrationWithMemoryModelAndChurn) {
  RouterConfig config = churn(operator_migration(base_config(4)));
  config.trie = trie::TrieKind::kDp;
  config.memory.enabled = true;
  config.memory.tiers = {{"sram", 16 * 1024, 2}, {"dram", 0, 70}};
  const RouterResult result = expect_digest<RouterSim>(
      table4(), config, /*verify=*/true, 0xFADB8B699F272B4EULL);
  EXPECT_EQ(result.failover.migrations, 1u);
  EXPECT_GT(result.update.fe_incremental, 0u);
  ASSERT_EQ(result.memory.tiers.size(), 2u);
  // The table outgrows the SRAM tier, so placement (and with it the base a
  // moved structure packs behind) decides what a lookup costs.
  EXPECT_GT(result.memory.tiers[1].placed_bytes, 0u);
}

// Regressions for lookups and updates crossing a cutover. The configs run
// longer than the goldens (3,000 packets per LC) so that FE backlogs and
// update streams straddle every cutover; each must verify clean.

RouterConfig cutover_race_config(trie::TrieKind trie) {
  RouterConfig config = churn(base_config(4));
  config.packets_per_lc = 3'000;
  config.trie = trie;
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  return config;
}

RouterConfig rebalancing(RouterConfig config) {
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 1'000;
  config.rebalancer.skew_threshold = 1.0;
  config.rebalancer.max_migrations = 4;
  return config;
}

void expect_clean(const RouterConfig& config) {
  RouterResult result;
  ASSERT_NO_THROW(result = RouterSim(table4(), config)
                               .run_workload(profile(), /*verify=*/true));
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.resolved_packets,
            config.packets_per_lc * static_cast<std::size_t>(config.num_lcs));
  EXPECT_GE(result.failover.migrations, 1u);
}

TEST(RouterGolden, UpdateInFlightAcrossRebalancerCutover) {
  // An update sent to a fragment's host before a cutover moved it on (1 to
  // 2 at cycle 8,371) reaches the former host, which keeps no structure
  // for it: it must be relayed to the new home, not thrown on.
  expect_clean(rebalancing(cutover_race_config(trie::TrieKind::kDp)));
}

TEST(RouterGolden, FrozenSourceJobAfterOperatorCutover) {
  // LC 1's FE backlog outlasts the cutover of its fragment to LC 3: jobs
  // admitted before it must not answer from the frozen structure, which
  // misses every later update.
  RouterConfig config =
      operator_migration(cutover_race_config(trie::TrieKind::kLulea));
  expect_clean(config);
  config.trie = trie::TrieKind::kDp;
  config.fe_service_cycles = 400;
  config.update.interval_cycles = 20;
  expect_clean(config);
}

TEST(RouterGolden, RebalancerWithReplicasAndChurnVerifies) {
  RouterConfig config = rebalancing(churn(base_config(4)));
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  config.replication.replicas = 1;
  expect_clean(config);
}

TEST(RouterGolden, ReplicaUpdatesApplyOnceToTheCopy) {
  // The RebalancerWithChurnAndReplicas config moves fragments onto their
  // own replica holders. Each update goes out as one primary and R replica
  // messages; no fault defers any, so every primary message must apply
  // once to the primary and every replica message once to the holder's
  // copy, even where the holder now hosts the primary too.
  RouterConfig config = rebalancing(churn(base_config(4)));
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 16;
  config.replication.replicas = 1;
  config.trie = trie::TrieKind::kDp;
  const RouterResult result = RouterSim(table4(), config).run_workload(profile(), false);
  ASSERT_GT(result.rebalancer.completed_migrations, 0u);
  const std::uint64_t messages = result.update.update_messages;
  const std::uint64_t replica_applies = result.failover.replica_update_applications;
  const std::uint64_t primary_applies = result.update.applications - replica_applies;
  EXPECT_EQ(replica_applies, messages / 2);
  EXPECT_EQ(primary_applies, messages / 2);
  EXPECT_EQ(messages % 2, 0u);
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
