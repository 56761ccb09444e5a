#include "partition/weighted.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "partition/generic.h"

namespace spal::partition {
namespace {

/// Weighted per-position Φ tallies over one subset: the weight mass of
/// one-bits and star-bits per candidate position, plus the subset total
/// (zero mass falls out by subtraction, like the unweighted tallies).
/// Positions length..bits-1 of a record are its stars.
struct WeightedTallies {
  std::array<double, 128> ones{};
  std::array<double, 128> stars{};
  double total = 0.0;

  template <int Words>
  void add(const generic::SelectorRecord<Words>& r, double w, int bits) {
    total += w;
    for (int word = 0; word < Words; ++word) {
      for (std::uint64_t m = r.ones[static_cast<std::size_t>(word)]; m != 0;
           m &= m - 1) {
        ones[static_cast<std::size_t>(word * 64 + 63 - std::countr_zero(m))] += w;
      }
    }
    for (int b = r.length; b < bits; ++b) stars[static_cast<std::size_t>(b)] += w;
  }
};

/// Weighted analogue of BitScore, same arbitration rule: minimize
/// replication + imbalance, ties by lower replication.
struct WeightedBitScore {
  double replication = 0.0;
  double imbalance = 0.0;

  double combined() const { return replication + imbalance; }

  friend bool operator<(const WeightedBitScore& a, const WeightedBitScore& b) {
    if (a.combined() != b.combined()) return a.combined() < b.combined();
    return a.replication < b.replication;
  }
};

}  // namespace

/// Greedy recursive selection over weighted Φ: per subset and candidate
/// bit, replication is the star weight mass and imbalance is |W0 − W1|.
/// Weights are pre-scaled to sum to the entry count so both terms stay on
/// the unweighted score's scale. Structure mirrors select_control_bits
/// (same recursion, same subset splitting).
template <typename Addr>
std::vector<int> select_control_bits_weighted(
    const net::BasicRouteTable<Addr>& table, std::span<const double> weights,
    int count, int max_bit) {
  if (uniform_weights(weights)) {
    return select_control_bits(table, count, max_bit);
  }
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "select_control_bits_weighted: weights must parallel table entries");
  }
  std::vector<int> chosen;
  if (count <= 0 || table.size() == 0 || max_bit < 0 || max_bit > 127) {
    return chosen;
  }
  const int bits = max_bit + 1;
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  const double scale =
      total_weight > 0.0
          ? static_cast<double>(table.size()) / total_weight
          : 0.0;

  struct Member {
    generic::SelectorRecord<generic::kRecordWords<net::PrefixOf<Addr>>> r;
    double w;
  };
  std::vector<std::vector<Member>> subsets(1);
  subsets[0].reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    subsets[0].push_back(Member{
        generic::make_record(table.entries()[i].prefix, bits), weights[i] * scale});
  }

  for (int round = 0; round < count; ++round) {
    std::vector<WeightedTallies> tallies(subsets.size());
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      for (const Member& m : subsets[s]) tallies[s].add(m.r, m.w, bits);
    }
    int best_bit = -1;
    WeightedBitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) {
        continue;
      }
      WeightedBitScore score{};
      for (const WeightedTallies& t : tallies) {
        const auto b = static_cast<std::size_t>(bit);
        const double w1 = t.ones[b];
        const double wstar = t.stars[b];
        const double w0 = t.total - w1 - wstar;
        score.replication += wstar;
        score.imbalance += std::abs(w0 - w1);
      }
      if (best_bit < 0 || score < best_score) {
        best_score = score;
        best_bit = bit;
      }
    }
    if (best_bit < 0) break;
    chosen.push_back(best_bit);
    std::vector<std::vector<Member>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const Member& member : subset) {
        if (member.r.length <= best_bit) {
          // A star prefix replicates into both subsets; its traffic splits
          // evenly, so each side tallies half the weight from here on.
          zero.push_back(Member{member.r, member.w / 2.0});
          one.push_back(Member{member.r, member.w / 2.0});
        } else if (generic::record_one(member.r, best_bit)) {
          one.push_back(member);
        } else {
          zero.push_back(member);
        }
      }
    }
    subsets = std::move(next);
  }
  return chosen;
}

template <typename Addr>
std::vector<double> expected_loads(const BasicRotPartition<Addr>& partition,
                                   const net::BasicRouteTable<Addr>& table,
                                   std::span<const double> weights) {
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "expected_loads: weights must parallel table entries");
  }
  std::vector<double> loads(static_cast<std::size_t>(partition.num_lcs()),
                            0.0);
  if (partition.control_bits().empty()) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (!loads.empty()) loads[0] = total;
    return loads;
  }
  const std::vector<double> per_group = generic::group_loads(
      table.entries(), weights, partition.control_bits());
  const auto group_to_lc = partition.group_to_lc();
  for (std::size_t g = 0; g < per_group.size(); ++g) {
    loads[static_cast<std::size_t>(group_to_lc[g])] += per_group[g];
  }
  return loads;
}

template std::vector<int> select_control_bits_weighted(
    const net::RouteTable&, std::span<const double>, int, int);
template std::vector<int> select_control_bits_weighted(
    const net::RouteTable6&, std::span<const double>, int, int);
template std::vector<double> expected_loads(const RotPartition&,
                                            const net::RouteTable&,
                                            std::span<const double>);
template std::vector<double> expected_loads(const RotPartition6&,
                                            const net::RouteTable6&,
                                            std::span<const double>);

}  // namespace spal::partition
