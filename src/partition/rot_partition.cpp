#include "partition/rot_partition.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "partition/generic.h"
#include "partition/weighted.h"

namespace spal::partition {
namespace {

int ceil_log2(int value) {
  return value <= 1 ? 0 : std::bit_width(static_cast<unsigned>(value - 1));
}

}  // namespace

template <typename Addr>
BasicRotPartition<Addr>::BasicRotPartition(const RouteTable& table, int num_lcs,
                                           const PartitionConfig& config) {
  const int eta = ceil_log2(num_lcs);
  const bool weighted = eta > 0 && !uniform_weights(config.weights);
  control_bits_ = config.control_bits;
  if (!weighted) {
    if (control_bits_.empty() && eta > 0) {
      control_bits_ = select_control_bits(table, eta);
    }
    auto lc_entries = generic::assign_groups(
        table.entries(), std::span<const int>(control_bits_), num_lcs,
        group_to_lc_);
    tables_.reserve(static_cast<std::size_t>(num_lcs));
    for (auto& entries : lc_entries) {
      // A group merge may duplicate an entry that was replicated into two
      // groups packed onto the same LC; RouteTable normalization de-dups.
      tables_.emplace_back(std::move(entries));
    }
    return;
  }
  if (config.weights.size() != table.size()) {
    throw std::invalid_argument(
        "RotPartition: weights must parallel table entries");
  }
  const std::span<const double> weights(config.weights);
  // Candidate bit sets: count-balanced first, then traffic-aware with η
  // bits, then traffic-aware with η+1 bits. A weighted candidate is kept
  // only when it strictly lowers the max per-LC expected load, so the
  // weighted path can never do worse than the count-balanced one
  // (tests/test_weighted_partition.cpp property (c)). The η+1 variant
  // matters when ψ == 2^η: there the group→LC map is a bijection and no
  // placement can unpin a hot group, but 2^(η+1) finer groups give the LPT
  // packing real freedom to pair hot groups with cold ones.
  std::vector<std::vector<int>> candidates;
  if (control_bits_.empty()) {
    candidates.push_back(select_control_bits(table, eta));
    for (const int bits : {eta, eta + 1}) {
      auto traffic = select_control_bits_weighted(table, weights, bits);
      if (std::find(candidates.begin(), candidates.end(), traffic) ==
          candidates.end()) {
        candidates.push_back(std::move(traffic));
      }
    }
  } else {
    candidates.push_back(control_bits_);
  }
  double best_max = 0.0;
  bool have_best = false;
  for (auto& bits : candidates) {
    std::vector<int> group_to_lc;
    auto lc_entries = generic::assign_groups_weighted(
        table.entries(), weights, std::span<const int>(bits), num_lcs,
        group_to_lc);
    const std::vector<double> per_group = generic::group_loads(
        table.entries(), weights, std::span<const int>(bits));
    std::vector<double> lc_loads(static_cast<std::size_t>(num_lcs), 0.0);
    for (std::size_t g = 0; g < per_group.size(); ++g) {
      lc_loads[static_cast<std::size_t>(group_to_lc[g])] += per_group[g];
    }
    const double max_load =
        *std::max_element(lc_loads.begin(), lc_loads.end());
    if (!have_best || max_load < best_max) {
      have_best = true;
      best_max = max_load;
      control_bits_ = std::move(bits);
      group_to_lc_ = std::move(group_to_lc);
      tables_.clear();
      tables_.reserve(static_cast<std::size_t>(num_lcs));
      for (auto& entries : lc_entries) {
        tables_.emplace_back(std::move(entries));
      }
    }
  }
}

template <typename Addr>
std::vector<std::size_t> BasicRotPartition<Addr>::partition_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(tables_.size());
  for (const auto& t : tables_) sizes.push_back(t.size());
  return sizes;
}

template <typename Addr>
std::vector<int> BasicRotPartition<Addr>::homes_of(const Prefix& prefix) const {
  // Every group compatible with the prefix's tri-state control bits — the
  // same rule the fragmenter replicates entries by.
  std::vector<int> lcs;
  generic::groups_of(prefix, control_bits()).for_each([&](std::uint32_t g) {
    lcs.push_back(group_to_lc_[g]);
  });
  std::sort(lcs.begin(), lcs.end());
  lcs.erase(std::unique(lcs.begin(), lcs.end()), lcs.end());
  return lcs;
}

template class BasicRotPartition<net::Ipv4Addr>;
template class BasicRotPartition<net::Ipv6Addr>;

FragmentSizing fragment_sizing(const RotPartition& partition,
                               std::size_t input_prefixes, int replicas) {
  FragmentSizing sizing;
  sizing.input_prefixes = input_prefixes;
  const std::vector<std::size_t> sizes = partition.partition_sizes();
  sizing.min_prefixes = sizes.empty() ? 0 : sizes.front();
  for (const std::size_t s : sizes) {
    sizing.total_prefixes += s;
    sizing.min_prefixes = std::min(sizing.min_prefixes, s);
    sizing.max_prefixes = std::max(sizing.max_prefixes, s);
  }
  if (input_prefixes > 0) {
    sizing.replication = static_cast<double>(sizing.total_prefixes) /
                         static_cast<double>(input_prefixes);
  }
  // Price the failover copies: each LC additionally hosts the fragments
  // whose replica rotation lands on it, so its residency is its own
  // fragment plus the R fragments preceding it on the ring.
  const auto plan = assign_replicas(partition.num_lcs(), replicas);
  sizing.replicas = plan.empty() ? 0 : static_cast<int>(plan.front().size());
  std::vector<std::size_t> resident(sizes);
  for (std::size_t frag = 0; frag < plan.size(); ++frag) {
    for (const int lc : plan[frag]) {
      sizing.replica_prefixes += sizes[frag];
      resident[static_cast<std::size_t>(lc)] += sizes[frag];
    }
  }
  for (const std::size_t r : resident) {
    sizing.max_prefixes_with_replicas =
        std::max(sizing.max_prefixes_with_replicas, r);
  }
  return sizing;
}

std::vector<std::vector<int>> assign_replicas(int num_lcs, int replicas) {
  std::vector<std::vector<int>> plan(
      static_cast<std::size_t>(std::max(num_lcs, 0)));
  if (num_lcs <= 1 || replicas <= 0) return plan;
  const int copies = std::min(replicas, num_lcs - 1);
  for (int frag = 0; frag < num_lcs; ++frag) {
    plan[static_cast<std::size_t>(frag)].reserve(
        static_cast<std::size_t>(copies));
    for (int k = 1; k <= copies; ++k) {
      plan[static_cast<std::size_t>(frag)].push_back((frag + k) % num_lcs);
    }
  }
  return plan;
}

int min_lcs_for_budget(const net::RouteTable& table,
                       std::size_t budget_bytes, double bytes_per_prefix,
                       int max_lcs, const PartitionConfig& config) {
  for (int psi = 1; psi <= max_lcs; ++psi) {
    const std::vector<std::size_t> sizes =
        RotPartition(table, psi, config).partition_sizes();
    const double worst =
        static_cast<double>(*std::max_element(sizes.begin(), sizes.end())) *
        bytes_per_prefix;
    if (worst <= static_cast<double>(budget_bytes)) return psi;
  }
  return 0;
}

std::vector<net::RouteTable> partition_by_length(const net::RouteTable& table) {
  std::vector<std::vector<net::RouteEntry>> buckets(net::Prefix::kMaxLength + 1);
  for (const net::RouteEntry& e : table.entries()) {
    buckets[static_cast<std::size_t>(e.prefix.length())].push_back(e);
  }
  std::vector<net::RouteTable> result;
  result.reserve(buckets.size());
  for (auto& bucket : buckets) result.emplace_back(std::move(bucket));
  return result;
}

}  // namespace spal::partition
