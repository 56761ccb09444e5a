// Control-bit selection tests, including the paper's own worked example
// (Sec. 3.1: seven simplified prefixes P1..P7).
#include "partition/bit_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "net/table_gen.h"

namespace {

using namespace spal;
using net::Ipv4Addr;
using net::Prefix;
using net::RouteTable;
using partition::compute_bit_stats;
using partition::evaluate_bits;
using partition::select_control_bits;

// The paper's simplified 8-bit prefixes, MSB-aligned into IPv4:
//   P1 = 101*, P2 = 1011*, P3 = 01*, P4 = 001110*, P5 = 10010011,
//   P6 = 10011*, P7 = 011001*.
RouteTable paper_example_table() {
  RouteTable table;
  table.add(Prefix(Ipv4Addr{0xA0000000u}, 3), 1);  // P1
  table.add(Prefix(Ipv4Addr{0xB0000000u}, 4), 2);  // P2
  table.add(Prefix(Ipv4Addr{0x40000000u}, 2), 3);  // P3
  table.add(Prefix(Ipv4Addr{0x38000000u}, 6), 4);  // P4
  table.add(Prefix(Ipv4Addr{0x93000000u}, 8), 5);  // P5
  table.add(Prefix(Ipv4Addr{0x98000000u}, 5), 6);  // P6
  table.add(Prefix(Ipv4Addr{0x64000000u}, 6), 7);  // P7
  return table;
}

TEST(BitStats, PaperExampleBitZero) {
  const RouteTable table = paper_example_table();
  const auto stats = compute_bit_stats(table.entries(), 0);
  // b0: P3, P4, P7 are 0; P1, P2, P5, P6 are 1; none are *.
  EXPECT_EQ(stats.phi0, 3u);
  EXPECT_EQ(stats.phi1, 4u);
  EXPECT_EQ(stats.phi_star, 0u);
  EXPECT_EQ(stats.imbalance(), 1u);
}

TEST(BitStats, PaperExampleBitTwo) {
  const RouteTable table = paper_example_table();
  const auto stats = compute_bit_stats(table.entries(), 2);
  // b2: P4 and P7 are 1 (001110*, 011001*), P1/P2 are 1, P5/P6 are 0,
  // P3 (01*) is *.
  EXPECT_EQ(stats.phi_star, 1u);
  EXPECT_EQ(stats.phi0, 2u);
  EXPECT_EQ(stats.phi1, 4u);
}

TEST(BitStats, PaperExampleBitFour) {
  const RouteTable table = paper_example_table();
  const auto stats = compute_bit_stats(table.entries(), 4);
  // b4: * for P1 (len 3), P2 (len 4), P3 (len 2); 0 for P5 (10010011) and
  // P7 (011001*); 1 for P4 (001110*) and P6 (10011*).
  EXPECT_EQ(stats.phi_star, 3u);
  EXPECT_EQ(stats.phi0, 2u);
  EXPECT_EQ(stats.phi1, 2u);
}

TEST(EvaluateBits, PaperExampleB2B4GivesTenTotal) {
  // Paper: partitioning by {b2, b4} yields {P3,P5}, {P3,P6}, {P1,P2,P3,P7},
  // {P1,P2,P3,P4} — 2+2+4+4 = 12 entries... the paper lists those four
  // partitions; sizes 2,2,4,4.
  const auto quality = evaluate_bits(paper_example_table(), std::array{2, 4});
  EXPECT_EQ(quality.total_entries, 12u);
  EXPECT_EQ(quality.largest, 4u);
  EXPECT_EQ(quality.smallest, 2u);
}

TEST(EvaluateBits, PaperExampleB0B4IsSuperior) {
  // Paper: {b0, b4} yields {P3,P7}, {P3,P4}, {P1,P2,P5}, {P1,P2,P6} —
  // sizes 2,2,3,3: fewer total entries and a smaller spread.
  const auto b0b4 = evaluate_bits(paper_example_table(), std::array{0, 4});
  EXPECT_EQ(b0b4.total_entries, 10u);
  EXPECT_EQ(b0b4.largest, 3u);
  EXPECT_EQ(b0b4.smallest, 2u);
  const auto b2b4 = evaluate_bits(paper_example_table(), std::array{2, 4});
  EXPECT_LT(b0b4.total_entries, b2b4.total_entries);
  EXPECT_LE(b0b4.largest - b0b4.smallest, b2b4.largest - b2b4.smallest);
}

TEST(SelectControlBits, PaperExamplePicksBitZeroFirst) {
  // b0 has zero replication and minimal imbalance; the greedy recursive
  // selection must prefer it.
  const auto bits = select_control_bits(paper_example_table(), 1);
  ASSERT_EQ(bits.size(), 1u);
  EXPECT_EQ(bits[0], 0);
}

TEST(SelectControlBits, PaperExampleTwoBitsBeatNaiveChoice) {
  const auto bits = select_control_bits(paper_example_table(), 2);
  ASSERT_EQ(bits.size(), 2u);
  const auto chosen = evaluate_bits(paper_example_table(), bits);
  const auto naive = evaluate_bits(paper_example_table(), std::array{2, 4});
  EXPECT_LE(chosen.total_entries, naive.total_entries);
}

TEST(SelectControlBits, EmptyTableAndZeroCount) {
  EXPECT_TRUE(select_control_bits(RouteTable{}, 2).empty());
  EXPECT_TRUE(select_control_bits(paper_example_table(), 0).empty());
}

TEST(SelectControlBits, BitsAreDistinct) {
  net::TableGenConfig config;
  config.size = 20'000;
  config.seed = 71;
  const RouteTable table = net::generate_table(config);
  const auto bits = select_control_bits(table, 4);
  ASSERT_EQ(bits.size(), 4u);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    for (std::size_t j = i + 1; j < bits.size(); ++j) {
      EXPECT_NE(bits[i], bits[j]);
    }
  }
}

TEST(SelectControlBits, AvoidsHighPositionsOnBackboneTables) {
  // Criterion (1): since >83% of prefixes are <= /24, bits past ~24 are *
  // for most prefixes and would replicate massively. The chosen bits must
  // sit well below that.
  net::TableGenConfig config;
  config.size = 20'000;
  config.seed = 72;
  const RouteTable table = net::generate_table(config);
  for (const int bit : select_control_bits(table, 4)) {
    EXPECT_LT(bit, 16) << "criterion (1) should rule out high, mostly-* bits";
  }
}

TEST(SelectControlBits, LowReplicationOnBackboneTables) {
  net::TableGenConfig config;
  config.size = 20'000;
  config.seed = 73;
  const RouteTable table = net::generate_table(config);
  const auto bits = select_control_bits(table, 2);
  const auto quality = evaluate_bits(table, bits);
  // 4 partitions should cost well under 10% replication on a typical table.
  EXPECT_LT(static_cast<double>(quality.total_entries),
            1.10 * static_cast<double>(table.size()));
}

TEST(SelectControlBits, BalancedPartitionsOnBackboneTables) {
  net::TableGenConfig config;
  config.size = 20'000;
  config.seed = 74;
  const RouteTable table = net::generate_table(config);
  const auto quality = evaluate_bits(table, select_control_bits(table, 2));
  EXPECT_LT(static_cast<double>(quality.largest),
            1.5 * static_cast<double>(quality.smallest));
}

TEST(SelectControlBits, MaxBitConfigIsRespected) {
  net::TableGenConfig config;
  config.size = 5'000;
  config.seed = 75;
  const RouteTable table = net::generate_table(config);
  for (const int bit : select_control_bits(table, 3, 7)) {
    EXPECT_LE(bit, 7);
  }
}

// --- Differential: select_control_bits vs a naive reference greedy --------

/// The Sec. 3.1 greedy written the slow, obvious way: every round scores
/// each unchosen bit with compute_bit_stats over every current subset and
/// keeps the first minimum under BitScore's order; the chosen bit then
/// splits each subset, a "*" entry going to both sides.
template <typename Addr>
std::vector<int> reference_select(const net::BasicRouteTable<Addr>& table,
                                  int count, int max_bit) {
  using Entry = net::BasicRouteEntry<Addr>;
  std::vector<std::vector<Entry>> subsets{
      std::vector<Entry>(table.entries().begin(), table.entries().end())};
  std::vector<int> chosen;
  for (int round = 0; round < count; ++round) {
    int best_bit = -1;
    partition::BitScore best{};
    for (int bit = 0; bit <= max_bit; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
      partition::BitScore score{};
      for (const auto& subset : subsets) {
        const auto stats = compute_bit_stats(std::span<const Entry>(subset), bit);
        score.replication += stats.phi_star;
        score.imbalance += stats.imbalance();
      }
      if (best_bit < 0 || score < best) {
        best = score;
        best_bit = bit;
      }
    }
    if (best_bit < 0) break;
    chosen.push_back(best_bit);
    std::vector<std::vector<Entry>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const Entry& e : subset) {
        if (e.prefix.bit(best_bit) != net::PrefixBit::kOne) zero.push_back(e);
        if (e.prefix.bit(best_bit) != net::PrefixBit::kZero) one.push_back(e);
      }
    }
    subsets = std::move(next);
  }
  return chosen;
}

template <typename Addr>
void expect_matches_reference(const net::BasicRouteTable<Addr>& table,
                              int max_bit) {
  // The greedy's first k choices do not depend on how many follow, so one
  // five-round reference run covers every count.
  const std::vector<int> reference = reference_select(table, 5, max_bit);
  for (int count = 1; count <= 5; ++count) {
    const std::vector<int> expected(
        reference.begin(),
        reference.begin() + std::min<std::ptrdiff_t>(count, std::ssize(reference)));
    EXPECT_EQ(select_control_bits(table, count, max_bit), expected)
        << "size " << table.size() << ", count " << count << ", max_bit "
        << max_bit;
  }
}

TEST(SelectControlBitsDifferential, RandomIpv4Tables) {
  const std::size_t sizes[] = {50, 300, 2'000, 20'000};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const std::size_t size : sizes) {
      net::TableGenConfig config;
      config.size = size;
      config.seed = 0xd1ff'0000 + seed * 31 + size;
      const RouteTable table = net::generate_table(config);
      for (const int max_bit : {31, 15, 9}) expect_matches_reference(table, max_bit);
    }
  }
}

TEST(SelectControlBitsDifferential, RandomIpv6Tables) {
  const std::size_t sizes[] = {50, 400, 5'000, 20'000};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const std::size_t size : sizes) {
      net::TableGen6Config config;
      config.size = size;
      config.seed = 0xd1ff'6000 + seed * 37 + size;
      const net::RouteTable6 table = net::generate_table6(config);
      for (const int max_bit : {127, 63, 40}) expect_matches_reference(table, max_bit);
    }
  }
}

TEST(SelectControlBitsDifferential, TinyTieHeavyTables) {
  // The paper's P1..P7, and tables of short prefixes where many bits score
  // alike, so the lowest-position tie-break decides. A max_bit below the
  // count leaves fewer candidates than requested.
  expect_matches_reference(paper_example_table(), 31);
  expect_matches_reference(paper_example_table(), 7);
  expect_matches_reference(paper_example_table(), 2);

  RouteTable only_default;
  only_default.add(Prefix(Ipv4Addr{0}, 0), 1);
  expect_matches_reference(only_default, 31);

  std::mt19937_64 rng(0x71e5);
  for (int trial = 0; trial < 40; ++trial) {
    RouteTable table;
    const int entries = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < entries; ++i) {
      const int length = static_cast<int>(rng() % 6);
      table.add(Prefix(Ipv4Addr{static_cast<std::uint32_t>(rng())}, length),
                static_cast<net::NextHop>(i));
    }
    expect_matches_reference(table, trial % 2 == 0 ? 31 : 4);

    net::RouteTable6 table6;
    for (int i = 0; i < entries; ++i) {
      const int length = static_cast<int>(rng() % 6) + (trial % 3 == 0 ? 62 : 0);
      table6.add(net::Prefix6(net::Ipv6Addr{rng(), rng()}, length),
                 static_cast<net::NextHop>(i));
    }
    expect_matches_reference(table6, trial % 2 == 0 ? 127 : 66);
  }
}

TEST(BitScore, CombinedCostOrdering) {
  using partition::BitScore;
  // Sum of replication and imbalance decides; replication breaks ties.
  EXPECT_LT((BitScore{2, 0}), (BitScore{1, 100}));
  EXPECT_LT((BitScore{1, 5}), (BitScore{1, 6}));
  EXPECT_LT((BitScore{1, 5}), (BitScore{2, 4}));
  EXPECT_FALSE((BitScore{1, 5}) < (BitScore{1, 5}));
}

}  // namespace
