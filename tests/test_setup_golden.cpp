// Golden digests of the set-up outputs: the synthetic tables the generators
// produce and the ROT-partitions built from them. Each case folds the
// output (RouteTable::save() text; control bits, group map and every
// fragment for a partition) into an FNV-1a digest and compares it with a
// value recorded before a change to the generators or the partitioner. A
// rewrite of either that changes a single entry, bit choice or fragment
// moves a digest; the DeterministicPerSeed tests elsewhere only check that
// two runs agree with each other.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/prefix6.h"
#include "net/table_gen.h"
#include "partition/rot_partition.h"

namespace {

using namespace spal;

std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t hash = 0xCBF29CE484222325ULL) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

template <typename Table>
std::string saved(const Table& table) {
  std::ostringstream out;
  table.save(out);
  return out.str();
}

template <typename Table>
std::uint64_t table_digest(const Table& table) {
  return fnv1a(saved(table));
}

TEST(SetupGolden, Rt1Table) {
  EXPECT_EQ(table_digest(net::make_rt1()), 0x996dda7967819bf9ULL);
}

TEST(SetupGolden, Rt2Table) {
  EXPECT_EQ(table_digest(net::make_rt2()), 0x5203ee48cac5aabaULL);
}

TEST(SetupGolden, InternetTable) {
  EXPECT_EQ(table_digest(net::make_rt_internet()), 0xfe02259db310db72ULL);
}

TEST(SetupGolden, Internet6Table) {
  EXPECT_EQ(table_digest(net::make_rt6_internet()), 0xcdeea3bc5609e94aULL);
}

TEST(SetupGolden, FlatCustomWeightsTable) {
  // No nesting and a length mix of its own: every prefix takes the
  // first-octet path, and the /8 and /12 weights hit their capacity caps.
  net::TableGenConfig config;
  config.size = 30'000;
  config.seed = 0x5eed'0077;
  config.next_hops = 7;
  config.nested_fraction = 0.0;
  config.length_weights = {};
  config.length_weights[8] = 5.0;
  config.length_weights[12] = 10.0;
  config.length_weights[16] = 20.0;
  config.length_weights[20] = 15.0;
  config.length_weights[24] = 40.0;
  config.length_weights[28] = 5.0;
  config.length_weights[32] = 5.0;
  EXPECT_EQ(table_digest(net::generate_table(config)), 0xf09da6b97ddd19bdULL);
}

/// Deterministic, strongly non-uniform popularity weights parallel to a
/// table's entries (a hashed rank, so hot entries are scattered).
std::vector<double> skewed_weights(std::size_t n) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t rank = (i * 2'654'435'761ULL) % n;
    weights[i] = 1.0 / static_cast<double>(1 + rank);
  }
  return weights;
}

template <typename Addr>
std::uint64_t partition_digest(const partition::BasicRotPartition<Addr>& part) {
  std::string head = "bits";
  for (const int bit : part.control_bits()) head += ' ' + std::to_string(bit);
  head += "\ngroups";
  for (const int lc : part.group_to_lc()) head += ' ' + std::to_string(lc);
  head += '\n';
  std::uint64_t hash = fnv1a(head);
  for (const auto& fragment : part.tables()) {
    hash = fnv1a(saved(fragment) + "--\n", hash);
  }
  return hash;
}

constexpr int kPsis[] = {1, 2, 3, 5, 8, 16};

/// One digest per ψ in kPsis, count-balanced (weighted = false) or with
/// skewed_weights.
template <typename Addr>
std::vector<std::uint64_t> partition_digests(const net::BasicRouteTable<Addr>& table,
                                             bool weighted) {
  partition::PartitionConfig config;
  if (weighted) config.weights = skewed_weights(table.size());
  std::vector<std::uint64_t> digests;
  for (const int psi : kPsis) {
    digests.push_back(
        partition_digest(partition::BasicRotPartition<Addr>(table, psi, config)));
  }
  return digests;
}

void expect_digests(const std::vector<std::uint64_t>& actual,
                    const std::vector<std::uint64_t>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "psi = " << kPsis[i];
  }
}

net::RouteTable6 table6() {
  net::TableGen6Config config;
  config.size = 20'000;
  config.seed = 0x5eed'0066;
  return net::generate_table6(config);
}

TEST(SetupGolden, Rt2CountBalancedPartitions) {
  expect_digests(partition_digests(net::make_rt2(), false),
                 {0xd4caa5403566ae2aULL, 0x801daf1e2fc43e7dULL, 0x3ecaef48cdce9638ULL,
                  0x7c05c42ef0cd5c7cULL, 0xd1599b1cd54782d9ULL, 0x74b24fdde278bcdbULL});
}

TEST(SetupGolden, Rt2WeightedPartitions) {
  expect_digests(partition_digests(net::make_rt2(), true),
                 {0xd4caa5403566ae2aULL, 0x2c88c1de26e51c58ULL, 0xe1650e010bf91696ULL,
                  0x1596f080f360eb01ULL, 0xd827c669a0359055ULL, 0x9af4c38d2f4b0952ULL});
}

TEST(SetupGolden, Ipv6CountBalancedPartitions) {
  expect_digests(partition_digests(table6(), false),
                 {0x898f6c4a8aef8c49ULL, 0xece5ac9448f20c00ULL, 0x93e633611b534e35ULL,
                  0x07f2718f3ed03cdcULL, 0x242c0d73335ac085ULL, 0x2f876ce34f6387e9ULL});
}

TEST(SetupGolden, Ipv6WeightedPartitions) {
  expect_digests(partition_digests(table6(), true),
                 {0x898f6c4a8aef8c49ULL, 0xa0973eaab2b40b29ULL, 0x8e88151a66af5b40ULL,
                  0xb64b05d6dd1eb201ULL, 0x70bed4924061e324ULL, 0xc4c95ee532569b88ULL});
}

}  // namespace
