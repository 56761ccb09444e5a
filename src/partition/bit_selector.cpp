#include "partition/bit_selector.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "partition/generic.h"

namespace spal::partition {
namespace {

/// Per-position Φ tallies over one subset: the ones per candidate position
/// (each member's set bits, Kernighan-style) and a length histogram. Star
/// counts follow from the histogram, since position b is "*" exactly for
/// members no longer than b.
template <int Words>
struct SubsetTallies {
  std::array<std::size_t, 128> ones{};
  std::array<std::size_t, 129> lengths{};
  std::size_t members = 0;

  void add(const generic::SelectorRecord<Words>& r) {
    ++members;
    ++lengths[r.length];
    for (int w = 0; w < Words; ++w) {
      for (std::uint64_t m = r.ones[static_cast<std::size_t>(w)]; m != 0; m &= m - 1) {
        ++ones[static_cast<std::size_t>(w * 64 + 63 - std::countr_zero(m))];
      }
    }
  }

  /// Φ per candidate position 0..bits-1.
  std::vector<BitStats> stats(int bits) const {
    std::vector<BitStats> out(static_cast<std::size_t>(bits));
    std::size_t stars = 0;  // members with length <= b
    for (int b = 0; b < bits; ++b) {
      stars += lengths[static_cast<std::size_t>(b)];
      BitStats& s = out[static_cast<std::size_t>(b)];
      s.phi1 = ones[static_cast<std::size_t>(b)];
      s.phi_star = stars;
      s.phi0 = members - s.phi1 - s.phi_star;
    }
    return out;
  }
};

}  // namespace

template <typename Addr>
BitStats compute_bit_stats(std::span<const net::BasicRouteEntry<Addr>> entries,
                           int bit) {
  BitStats stats;
  for (const auto& e : entries) {
    switch (e.prefix.bit(bit)) {
      case net::PrefixBit::kZero: ++stats.phi0; break;
      case net::PrefixBit::kOne: ++stats.phi1; break;
      case net::PrefixBit::kStar: ++stats.phi_star; break;
    }
  }
  return stats;
}

/// Greedy recursive selection per the two criteria (see BitScore for the
/// arbitration rule). Each prefix becomes one compact record (address
/// words and length). The subsets of a round sit back to back in one flat
/// array; a round scores every candidate from the subsets' tallies, then
/// scatters each subset into its two children — exact sizes are known from
/// the tallies — and tallies the children in the same pass. Scores, and so
/// the chosen bits, are identical to the direct per-bit scan of
/// compute_bit_stats.
template <typename Addr>
std::vector<int> select_control_bits(const net::BasicRouteTable<Addr>& table,
                                     int count, int max_bit) {
  constexpr int kWords = generic::kRecordWords<net::PrefixOf<Addr>>;
  using Record = generic::SelectorRecord<kWords>;
  using Tallies = SubsetTallies<kWords>;
  std::vector<int> chosen;
  if (count <= 0 || table.size() == 0 || max_bit < 0 || max_bit > 127) {
    return chosen;
  }
  const int bits = max_bit + 1;
  std::vector<Record> records;
  records.reserve(table.size());
  std::vector<Tallies> tallies(1);
  for (const auto& e : table.entries()) {
    records.push_back(generic::make_record(e.prefix, bits));
    tallies[0].add(records.back());
  }
  std::vector<Record> next_records;

  for (int round = 0; round < count; ++round) {
    std::vector<std::vector<BitStats>> stats;
    stats.reserve(tallies.size());
    for (const Tallies& t : tallies) stats.push_back(t.stats(bits));
    int best_bit = -1;
    BitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
      BitScore score{};
      for (const auto& subset : stats) {
        const BitStats& s = subset[static_cast<std::size_t>(bit)];
        score.replication += s.phi_star;
        score.imbalance += s.imbalance();
      }
      if (best_bit < 0 || score < best_score) {
        best_score = score;
        best_bit = bit;
      }
    }
    if (best_bit < 0) break;
    chosen.push_back(best_bit);
    if (round + 1 == count) break;  // no later round reads the split

    // Child 2s takes subset s's zeros and stars, child 2s+1 its ones and
    // stars; the stars go to both.
    const auto b = static_cast<std::size_t>(best_bit);
    std::vector<std::size_t> child_start;
    child_start.reserve(2 * tallies.size() + 1);
    std::size_t total = 0;
    for (const auto& subset : stats) {
      child_start.push_back(total);
      total += subset[b].phi0 + subset[b].phi_star;
      child_start.push_back(total);
      total += subset[b].phi1 + subset[b].phi_star;
    }
    next_records.resize(total);
    std::vector<Tallies> next_tallies(2 * tallies.size());
    std::size_t begin = 0;
    for (std::size_t s = 0; s < tallies.size(); ++s) {
      std::size_t zero = child_start[2 * s];
      std::size_t one = child_start[2 * s + 1];
      Tallies& zero_tallies = next_tallies[2 * s];
      Tallies& one_tallies = next_tallies[2 * s + 1];
      const std::size_t end = begin + tallies[s].members;
      for (std::size_t i = begin; i < end; ++i) {
        const Record& r = records[i];
        if (r.length <= best_bit) {
          next_records[zero++] = r;
          zero_tallies.add(r);
          next_records[one++] = r;
          one_tallies.add(r);
        } else if (generic::record_one(r, best_bit)) {
          next_records[one++] = r;
          one_tallies.add(r);
        } else {
          next_records[zero++] = r;
          zero_tallies.add(r);
        }
      }
      begin = end;
    }
    records.swap(next_records);
    tallies = std::move(next_tallies);
  }
  return chosen;
}

template BitStats compute_bit_stats(std::span<const net::RouteEntry>, int);
template BitStats compute_bit_stats(std::span<const net::RouteEntry6>, int);
template std::vector<int> select_control_bits(const net::RouteTable&, int, int);
template std::vector<int> select_control_bits(const net::RouteTable6&, int, int);

SplitQuality evaluate_bits(const net::RouteTable& table,
                           std::span<const int> bits) {
  std::vector<std::vector<net::RouteEntry>> subsets(1);
  subsets[0].assign(table.entries().begin(), table.entries().end());
  for (const int bit : bits) {
    std::vector<std::vector<net::RouteEntry>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const net::RouteEntry& e : subset) {
        if (e.prefix.bit(bit) != net::PrefixBit::kOne) zero.push_back(e);
        if (e.prefix.bit(bit) != net::PrefixBit::kZero) one.push_back(e);
      }
    }
    subsets = std::move(next);
  }
  SplitQuality quality;
  quality.smallest = std::numeric_limits<std::size_t>::max();
  for (const auto& subset : subsets) {
    quality.total_entries += subset.size();
    quality.largest = std::max(quality.largest, subset.size());
    quality.smallest = std::min(quality.smallest, subset.size());
  }
  if (subsets.empty()) quality.smallest = 0;
  return quality;
}

}  // namespace spal::partition
