// Packet arrival-time generation (paper Sec. 5.1).
//
// The paper generates variable-length packets so that each LC sustains its
// line rate with a 256-byte mean packet (40-byte minimum): at the 5 ns cycle
// this yields one packet every uniform[2,18] cycles at 40 Gbps and every
// uniform[6,74] cycles at 10 Gbps.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace spal::sim {

inline constexpr double kCycleNs = 5.0;  ///< the paper's simulated clock

struct ArrivalBounds {
  int min_cycles;
  int max_cycles;
};

/// Inter-arrival bounds for a line rate; only the paper's two rates are
/// meaningful but any rate is scaled from the 40 Gbps bounds.
inline ArrivalBounds arrival_bounds(double line_rate_gbps) {
  if (line_rate_gbps <= 0) throw std::invalid_argument("line rate must be positive");
  if (line_rate_gbps >= 40.0) return {2, 18};
  if (line_rate_gbps >= 10.0 && line_rate_gbps < 11.0) return {6, 74};
  // General scaling: mean inter-arrival = mean packet bits / rate / cycle.
  const double mean_cycles = (256.0 * 8.0) / line_rate_gbps / kCycleNs;
  const int min_cycles = std::max(1, static_cast<int>(mean_cycles * 0.2));
  const int max_cycles = static_cast<int>(mean_cycles * 1.8);
  return {min_cycles, std::max(max_cycles, min_cycles + 1)};
}

/// Deterministic arrival-time sequence for one LC, written into `times`
/// (one strictly increasing time per packet).
inline void fill_arrival_times(double line_rate_gbps,
                               std::span<std::uint64_t> times,
                               std::uint64_t seed) {
  const ArrivalBounds bounds = arrival_bounds(line_rate_gbps);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> gap(bounds.min_cycles, bounds.max_cycles);
  std::uint64_t now = 0;
  for (std::uint64_t& time : times) {
    now += static_cast<std::uint64_t>(gap(rng));
    time = now;
  }
}

inline std::vector<std::uint64_t> generate_arrival_times(double line_rate_gbps,
                                                         std::size_t packets,
                                                         std::uint64_t seed) {
  std::vector<std::uint64_t> times(packets);
  fill_arrival_times(line_rate_gbps, times, seed);
  return times;
}

}  // namespace spal::sim
