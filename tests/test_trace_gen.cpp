#include "trace/trace_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "net/table_gen.h"
#include "stream_shape_checks.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using trace::TraceGenerator;
using trace::WorkloadProfile;

net::RouteTable test_table() {
  net::TableGenConfig config;
  config.size = 5'000;
  config.seed = 101;
  return net::generate_table(config);
}

TEST(TraceGen, GeneratesRequestedCount) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_EQ(gen.generate(0, 1'000).size(), 1'000u);
  EXPECT_EQ(gen.generate(0, 0).size(), 0u);
}

TEST(TraceGen, DeterministicPerLc) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_EQ(gen.generate(3, 500), gen.generate(3, 500));
}

TEST(TraceGen, DifferentLcsGetDifferentStreams) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_NE(gen.generate(0, 500), gen.generate(1, 500));
}

TEST(TraceGen, SharedFlowPopulationAcrossLcs) {
  // Hot destinations recur across LCs — the property SPAL's remote-result
  // caching depends on.
  const TraceGenerator gen(trace::profile_d75(), test_table());
  const auto a = gen.generate(0, 5'000);
  const auto b = gen.generate(1, 5'000);
  std::set<std::uint32_t> set_a;
  for (const auto addr : a) set_a.insert(addr.value());
  std::size_t shared = 0;
  for (const auto addr : b) {
    if (set_a.count(addr.value()) > 0) ++shared;
  }
  EXPECT_GT(static_cast<double>(shared), 0.3 * static_cast<double>(b.size()));
}

TEST(TraceGen, EveryDestinationMatchesTheTable) {
  const net::RouteTable table = test_table();
  const trie::BinaryTrie oracle(table);
  const TraceGenerator gen(trace::profile_l92_0(), table);
  for (const auto addr : gen.generate(0, 2'000)) {
    EXPECT_NE(oracle.lookup(addr), net::kNoRoute) << addr.to_string();
  }
}

TEST(TraceGen, BurstinessProducesRepeats) {
  WorkloadProfile profile = trace::profile_d75();
  profile.burst_mean = 8.0;
  const TraceGenerator gen(profile, test_table());
  const auto stream = gen.generate(0, 10'000);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream[i] == stream[i - 1]) ++repeats;
  }
  // Mean train length 8 => ~7/8 of packets repeat the previous destination.
  EXPECT_GT(static_cast<double>(repeats), 0.8 * static_cast<double>(stream.size()));
}

TEST(TraceGen, BurstMeanOneNeverForcesRepeatStructure) {
  WorkloadProfile profile = trace::profile_d75();
  profile.burst_mean = 1.0;
  const TraceGenerator gen(profile, test_table());
  const auto stream = gen.generate(0, 10'000);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream[i] == stream[i - 1]) ++repeats;
  }
  // Repeats now only happen via Zipf re-draws of hot flows.
  EXPECT_LT(static_cast<double>(repeats), 0.5 * static_cast<double>(stream.size()));
}

TEST(TraceGen, ZipfHeadCarriesTraffic) {
  // The Estan-Varghese-style skew the paper cites: a small fraction of
  // flows carries a large fraction of packets.
  const TraceGenerator gen(trace::profile_d75(), test_table());
  const auto stats = trace::analyze_trace(gen.generate(0, 100'000));
  const std::size_t head = std::max<std::size_t>(1, stats.distinct / 10);
  EXPECT_GT(stats.concentration(head), 0.6);
}

TEST(TraceGen, ScanSweepsFlowsWithoutReuseFromPerLcOffsets) {
  shape_checks::expect_scan_shape(test_table());
}

TEST(TraceGen, FlashCrowdConcentratesOnHotSetAfterOnset) {
  shape_checks::expect_flash_crowd_shape(test_table());
}

TEST(TraceGen, EmptyTableYieldsEmptyStream) {
  const TraceGenerator gen(trace::profile_d75(), net::RouteTable{});
  EXPECT_TRUE(gen.generate(0, 100).empty());
}

TEST(TraceGen, AllProfilesAreDistinctAndNamed) {
  const auto profiles = trace::all_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_EQ(profiles[0].name, "D_75");
  EXPECT_EQ(profiles[1].name, "D_81");
  EXPECT_EQ(profiles[2].name, "L_92-0");
  EXPECT_EQ(profiles[3].name, "L_92-1");
  EXPECT_EQ(profiles[4].name, "B_L");
  std::set<std::uint64_t> seeds;
  for (const auto& p : profiles) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), 5u);
}

TEST(AnalyzeTrace, CountsDistinctAndMass) {
  std::vector<net::Ipv4Addr> stream;
  for (int i = 0; i < 90; ++i) stream.emplace_back(1u);
  for (int i = 0; i < 10; ++i) stream.emplace_back(static_cast<std::uint32_t>(100 + i));
  const auto stats = trace::analyze_trace(stream);
  EXPECT_EQ(stats.packets, 100u);
  EXPECT_EQ(stats.distinct, 11u);
  EXPECT_DOUBLE_EQ(stats.concentration(1), 0.9);
  EXPECT_DOUBLE_EQ(stats.concentration(11), 1.0);
  EXPECT_DOUBLE_EQ(stats.concentration(999), 1.0);
}

TEST(AnalyzeTrace, EmptyStream) {
  const auto stats = trace::analyze_trace({});
  EXPECT_EQ(stats.packets, 0u);
  EXPECT_EQ(stats.distinct, 0u);
}

}  // namespace
