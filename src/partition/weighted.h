// Traffic-aware table partitioning: control-bit selection and group→LC
// placement driven by per-prefix popularity weights.
//
// The paper's two criteria (bit_selector.h) balance *prefix counts*; under
// a Zipf traffic model a handful of hot prefixes can pin one LC while the
// others idle. The weighted variants here re-run the same greedy machinery
// over expected *load*:
//   * a prefix's weight is the fraction of lookups expected to match it;
//   * a "*" control bit splits a prefix's traffic evenly between the two
//     subsets (uniform host bits), so a prefix replicated into 2^s groups
//     contributes w / 2^s of load to each — total load is conserved, which
//     is the `partition_balance` conservation rule spal_report checks;
//   * bit selection minimizes weighted imbalance Σ|W0 − W1| plus weighted
//     replication Σ W* (weights pre-scaled to sum to the entry count so the
//     two terms stay commensurate with the unweighted score);
//   * group→LC packing is longest-processing-time greedy over group loads.
//
// Guarantees (property-tested in tests/test_weighted_partition.cpp):
//   * uniform (or empty, or all-zero) weights take the count-balanced path
//     exactly — the weighted partitioner is a strict superset;
//   * the weighted assignment's max per-LC expected load never exceeds the
//     count-balanced assignment's, because both candidate placements (and,
//     in RotPartition, both candidate bit sets) are evaluated and the
//     better one kept.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "partition/rot_partition.h"

namespace spal::partition {

/// True when the weight vector carries no balancing signal: empty, or every
/// weight exactly equal (including all-zero). Such vectors must reproduce
/// the count-balanced partition bit-for-bit.
inline bool uniform_weights(std::span<const double> weights) {
  if (weights.empty()) return true;
  const double first = weights.front();
  for (const double w : weights) {
    if (w != first) return false;
  }
  return true;
}

/// Jain's fairness index (Σx)² / (n·Σx²) over per-LC loads: 1 when
/// perfectly balanced, 1/n when one LC carries everything. Defined as 1
/// for an empty or all-zero load vector.
inline double jain_fairness(std::span<const double> loads) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : loads) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(loads.size()) * sum_sq);
}

/// Largest per-LC share of the total load (1/n when balanced, 1 when one
/// LC carries everything). 0 for an empty or all-zero load vector.
inline double max_share(std::span<const double> loads) {
  double sum = 0.0;
  double max = 0.0;
  for (const double x : loads) {
    sum += x;
    max = std::max(max, x);
  }
  return sum == 0.0 ? 0.0 : max / sum;
}

/// Weighted control-bit selection over positions 0..max_bit. `weights`
/// must be parallel to `table.entries()`. Uniform weights delegate to the
/// count-based selector (identical result by construction).
template <typename Addr>
std::vector<int> select_control_bits_weighted(
    const net::BasicRouteTable<Addr>& table, std::span<const double> weights,
    int count, int max_bit = kDefaultMaxBit<Addr>);

/// Per-LC expected loads of a partition under `weights` (parallel to
/// `table.entries()`): each entry's weight splits evenly across the groups
/// its star control bits expand into, and group shares accumulate onto the
/// group's LC. Σ expected_loads == Σ weights exactly — the conservation
/// rule behind the `partition_balance` report point.
template <typename Addr>
std::vector<double> expected_loads(const BasicRotPartition<Addr>& partition,
                                   const net::BasicRouteTable<Addr>& table,
                                   std::span<const double> weights);

}  // namespace spal::partition
