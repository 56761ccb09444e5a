// Internals of SPAL's table partitioning, shared by the count-balanced
// control-bit selector (bit_selector.cpp), the traffic-weighted selector
// (weighted.cpp) and the ROT-partition construction (rot_partition.cpp).
//
// Everything here reads only the tri-state bit view of prefixes
// (`prefix.bit(pos) -> net::PrefixBit`), so one implementation serves IPv4
// (32-bit) and IPv6 (128-bit) route entries.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "net/prefix.h"

namespace spal::partition::generic {

/// Compact selector record of one prefix: its address words MSB-first
/// (position p is bit 63 - p % 64 of word p / 64), cut to the candidate
/// positions, plus its length. The prefix types zero every bit past the
/// length, so a set bit is a kOne position; position p is kStar exactly
/// when p >= length, which lets star tallies come from a length histogram.
template <int Words>
struct SelectorRecord {
  std::array<std::uint64_t, Words> ones{};
  std::uint8_t length = 0;
};

/// Words a prefix type's address spans (1 for IPv4, 2 for IPv6).
template <typename Prefix>
inline constexpr int kRecordWords = Prefix::kMaxLength > 64 ? 2 : 1;

inline std::array<std::uint64_t, 1> address_words(const net::Prefix& prefix) {
  return {std::uint64_t{prefix.bits()} << 32};
}

template <typename Prefix>
std::array<std::uint64_t, 2> address_words(const Prefix& prefix) {
  return {prefix.address().hi(), prefix.address().lo()};
}

/// The record of `prefix` over candidate positions 0..bits-1.
template <typename Prefix>
SelectorRecord<kRecordWords<Prefix>> make_record(const Prefix& prefix, int bits) {
  SelectorRecord<kRecordWords<Prefix>> record;
  record.ones = address_words(prefix);
  for (int w = 0; w < kRecordWords<Prefix>; ++w) {
    const int kept = std::clamp(bits - 64 * w, 0, 64);
    record.ones[static_cast<std::size_t>(w)] &=
        kept == 0 ? 0 : ~std::uint64_t{0} << (64 - kept);
  }
  record.length = static_cast<std::uint8_t>(prefix.length());
  return record;
}

/// Whether candidate position `pos` of `record` is a one (not zero, not *).
template <int Words>
bool record_one(const SelectorRecord<Words>& record, int pos) {
  return (record.ones[static_cast<std::size_t>(pos >> 6)] >> (63 - (pos & 63))) & 1u;
}

/// The control-bit groups a prefix belongs to: its control bits packed
/// MSB-first in selection order, each "*" bit expanding to both values
/// (2^s patterns for s star control bits). Held as the one-bits and the
/// star bits of the pattern, so no list of patterns is ever built.
struct GroupSet {
  std::uint32_t base = 0;   ///< control bits that are 1
  std::uint32_t stars = 0;  ///< control bits that are *

  /// Number of groups, 2^s, as the divisor of a per-group weight share.
  double count() const {
    return static_cast<double>(std::uint64_t{1} << std::popcount(stars));
  }

  /// Calls f(pattern) for every group, in ascending pattern order.
  template <typename F>
  void for_each(F&& f) const {
    std::uint32_t sub = 0;  // submasks of `stars`, ascending
    do {
      f(base | sub);
      sub = (sub - stars) & stars;
    } while (sub != 0);
  }
};

template <typename Prefix>
GroupSet groups_of(const Prefix& prefix, std::span<const int> control_bits) {
  GroupSet groups;
  for (const int bit : control_bits) {
    groups.base <<= 1;
    groups.stars <<= 1;
    switch (prefix.bit(bit)) {
      case net::PrefixBit::kZero: break;
      case net::PrefixBit::kOne: groups.base |= 1u; break;
      case net::PrefixBit::kStar: groups.stars |= 1u; break;
    }
  }
  return groups;
}

/// Longest-processing-time greedy: groups in descending cost (stable), each
/// onto the LC with the least accumulated cost (lowest index on ties).
/// Returns the group → LC map.
template <typename Cost>
std::vector<int> lpt_placement(const std::vector<Cost>& costs, int num_lcs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] > costs[b];
  });
  std::vector<int> group_to_lc(costs.size(), 0);
  std::vector<Cost> lc_costs(static_cast<std::size_t>(num_lcs), Cost{});
  for (const std::size_t g : order) {
    const auto lc = static_cast<std::size_t>(std::distance(
        lc_costs.begin(), std::min_element(lc_costs.begin(), lc_costs.end())));
    group_to_lc[g] = static_cast<int>(lc);
    lc_costs[lc] += costs[g];
  }
  return group_to_lc;
}

/// Concatenates each group's entries onto its LC, in group order.
template <typename Entry>
std::vector<std::vector<Entry>> merge_groups(std::vector<std::vector<Entry>>& groups,
                                             const std::vector<int>& group_to_lc,
                                             int num_lcs) {
  std::vector<std::vector<Entry>> lc_entries(static_cast<std::size_t>(num_lcs));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& bucket = lc_entries[static_cast<std::size_t>(group_to_lc[g])];
    if (bucket.empty()) {
      bucket = std::move(groups[g]);
    } else {
      bucket.insert(bucket.end(), groups[g].begin(), groups[g].end());
    }
  }
  return lc_entries;
}

/// Buckets every entry into each control-bit group it can match ("*" bits
/// expand to both values) and packs 2^η groups onto ψ LCs (identity when
/// ψ = 2^η, longest-processing-time greedy over group sizes otherwise).
/// Returns the per-LC entry vectors and fills `group_to_lc`.
template <typename Entry>
std::vector<std::vector<Entry>> assign_groups(std::span<const Entry> entries,
                                              std::span<const int> control_bits,
                                              int num_lcs,
                                              std::vector<int>& group_to_lc) {
  const std::size_t num_groups = std::size_t{1} << control_bits.size();
  std::vector<std::vector<Entry>> groups(num_groups);
  for (const Entry& e : entries) {
    groups_of(e.prefix, control_bits).for_each(
        [&](std::uint32_t p) { groups[p].push_back(e); });
  }
  if (static_cast<std::size_t>(num_lcs) == num_groups) {
    group_to_lc.resize(num_groups);
    std::iota(group_to_lc.begin(), group_to_lc.end(), 0);
  } else {
    std::vector<std::size_t> sizes(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) sizes[g] = groups[g].size();
    group_to_lc = lpt_placement(sizes, num_lcs);
  }
  return merge_groups(groups, group_to_lc, num_lcs);
}

/// Expected load of each of the 2^η control-bit groups: every entry
/// contributes weight / 2^s to each of the 2^s groups its s star control
/// bits expand into. Σ group loads == Σ weights exactly (no dedup — two
/// patterns landing in one group both count).
template <typename Entry>
std::vector<double> group_loads(std::span<const Entry> entries,
                                std::span<const double> weights,
                                std::span<const int> control_bits) {
  std::vector<double> loads(std::size_t{1} << control_bits.size(), 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GroupSet set = groups_of(entries[i].prefix, control_bits);
    const double share = weights[i] / set.count();
    set.for_each([&](std::uint32_t p) { loads[p] += share; });
  }
  return loads;
}

/// Weighted group→LC placement. Builds both candidate mappings — the
/// count-balanced one (exactly assign_groups' rule) and a
/// longest-processing-time greedy over group *loads* — and keeps whichever
/// has the lower max per-LC expected load (ties favor count-balanced, so a
/// weight vector with no useful signal changes nothing). Identity when
/// ψ == 2^η: with one group per LC every bijection yields the same load
/// multiset, and identity keeps the degenerate case aligned with the
/// unweighted mapping.
template <typename Entry>
std::vector<std::vector<Entry>> assign_groups_weighted(
    std::span<const Entry> entries, std::span<const double> weights,
    std::span<const int> control_bits, int num_lcs,
    std::vector<int>& group_to_lc) {
  const std::size_t num_groups = std::size_t{1} << control_bits.size();
  if (static_cast<std::size_t>(num_lcs) == num_groups) {
    return assign_groups(entries, control_bits, num_lcs, group_to_lc);
  }
  // Bucket entries exactly as assign_groups does (star bits expand), and
  // accumulate each group's expected load alongside.
  std::vector<std::vector<Entry>> groups(num_groups);
  std::vector<double> loads(num_groups, 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GroupSet set = groups_of(entries[i].prefix, control_bits);
    const double share = weights[i] / set.count();
    set.for_each([&](std::uint32_t p) {
      groups[p].push_back(entries[i]);
      loads[p] += share;
    });
  }
  std::vector<std::size_t> sizes(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) sizes[g] = groups[g].size();
  const std::vector<int> by_count = lpt_placement(sizes, num_lcs);
  const std::vector<int> by_load = lpt_placement(loads, num_lcs);
  const auto max_lc_load = [&](const std::vector<int>& mapping) {
    std::vector<double> lc_loads(static_cast<std::size_t>(num_lcs), 0.0);
    for (std::size_t g = 0; g < num_groups; ++g) {
      lc_loads[static_cast<std::size_t>(mapping[g])] += loads[g];
    }
    return *std::max_element(lc_loads.begin(), lc_loads.end());
  };
  group_to_lc =
      max_lc_load(by_load) < max_lc_load(by_count) ? by_load : by_count;
  return merge_groups(groups, group_to_lc, num_lcs);
}

}  // namespace spal::partition::generic
