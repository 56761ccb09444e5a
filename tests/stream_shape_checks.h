// Stream-shape checks shared by the IPv4 (test_trace_gen) and IPv6
// (test_router_sim6) trace-generator tests: one body per check, run on
// either BasicTraceGenerator instantiation.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace_gen.h"

namespace spal::shape_checks {

/// Share of `stream` carried by its `k` most frequent destinations; fills
/// `top` with those destinations.
template <typename Addr>
double top_share(std::span<const Addr> stream, std::size_t k, std::set<Addr>& top) {
  std::map<Addr, std::size_t> counts;
  for (const Addr& addr : stream) ++counts[addr];
  std::vector<std::pair<std::size_t, Addr>> ranked;
  for (const auto& [addr, n] : counts) ranked.emplace_back(n, addr);
  std::sort(ranked.rbegin(), ranked.rend());
  std::size_t carried = 0;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    carried += ranked[i].first;
    top.insert(ranked[i].second);
  }
  return static_cast<double>(carried) / static_cast<double>(stream.size());
}

/// kScan sweeps the flow population: a lap of flow_count() packets has no
/// reuse (up to flows that drew the same host route), the next lap replays
/// it, and LC 1 runs the same sweep from its own nonzero start offset.
template <typename Addr>
void expect_scan_shape(const net::BasicRouteTable<Addr>& table) {
  trace::WorkloadProfile profile = trace::profile_scan();
  profile.flows = 2'000;
  const trace::BasicTraceGenerator<Addr> gen(profile, table);
  const std::size_t n = gen.flow_count();
  ASSERT_EQ(n, profile.flows);
  const std::vector<Addr> lc0 = gen.generate(0, 2 * n);
  const std::vector<Addr> lc1 = gen.generate(1, n);
  EXPECT_GE(std::set<Addr>(lc0.begin(), lc0.begin() + n).size(), n * 98 / 100);
  EXPECT_TRUE(std::equal(lc0.begin(), lc0.begin() + n, lc0.begin() + n));
  std::size_t offset = 1;
  while (offset < n && !std::equal(lc1.begin(), lc1.end(), lc0.begin() + offset)) {
    ++offset;
  }
  EXPECT_LT(offset, n) << "LC 1's stream is not a rotation of LC 0's sweep";
}

/// kFlashCrowd: before the onset the stream has the stationary Zipf head;
/// after it, most traffic lands on a hot set of flash_flows destinations,
/// the same set on every LC.
template <typename Addr>
void expect_flash_crowd_shape(const net::BasicRouteTable<Addr>& table) {
  const trace::WorkloadProfile profile = trace::profile_flash_crowd();
  const trace::BasicTraceGenerator<Addr> gen(profile, table);
  constexpr std::size_t kCount = 20'000;
  const auto onset = static_cast<std::size_t>(profile.flash_start * kCount);
  const std::vector<Addr> lc0 = gen.generate(0, kCount);
  const std::vector<Addr> lc1 = gen.generate(1, kCount);
  std::set<Addr> head_before, hot0, hot1;
  const std::span<const Addr> s0(lc0);
  EXPECT_LT(top_share(s0.first(onset), profile.flash_flows, head_before), 0.35);
  EXPECT_GT(top_share(s0.subspan(onset), profile.flash_flows, hot0), 0.55);
  top_share(std::span<const Addr>(lc1).subspan(onset), profile.flash_flows, hot1);
  EXPECT_EQ(hot0.size(), profile.flash_flows);
  EXPECT_EQ(hot0, hot1);
}

}  // namespace spal::shape_checks
