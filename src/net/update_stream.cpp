#include "net/update_stream.h"

#include "net/table_gen.h"

namespace spal::net {

std::vector<TableUpdate> generate_update_stream(const RouteTable& initial,
                                                const UpdateStreamConfig& config) {
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<NextHop> hop_dist(
      0, config.next_hops == 0 ? 0 : config.next_hops - 1);
  // Lengths for announcements follow the same distribution the table
  // generator uses, so the table's shape is preserved as it evolves.
  const auto weights = TableGenConfig::default_length_weights();
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());
  std::uniform_int_distribution<std::uint32_t> word;

  // Track the live prefix set to keep withdrawals/changes valid.
  std::vector<Prefix> live;
  live.reserve(initial.size() + config.count);
  for (const RouteEntry& e : initial.entries()) live.push_back(e.prefix);

  RouteTable working = initial;  // for announce-uniqueness checks
  std::vector<TableUpdate> updates;
  updates.reserve(config.count);
  while (updates.size() < config.count) {
    const double kind_draw = unit(rng);
    if (kind_draw < config.announce_fraction || live.empty()) {
      // Announce: synthesize a prefix not currently in the table.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int length = std::max(8, length_dist(rng));
        const Prefix prefix(Ipv4Addr{word(rng)}, length);
        if (working.find(prefix).has_value()) continue;
        const NextHop hop = hop_dist(rng);
        updates.push_back(TableUpdate{UpdateKind::kAnnounce, prefix, hop});
        working.add(prefix, hop);
        live.push_back(prefix);
        break;
      }
    } else if (kind_draw < config.announce_fraction + config.withdraw_fraction) {
      // Withdraw a live prefix.
      const std::size_t index =
          std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
      const Prefix prefix = live[index];
      updates.push_back(TableUpdate{UpdateKind::kWithdraw, prefix, kNoRoute});
      working.remove(prefix);
      live[index] = live.back();
      live.pop_back();
    } else {
      // Next-hop change of a live prefix.
      const Prefix prefix =
          live[std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng)];
      const NextHop hop = hop_dist(rng);
      updates.push_back(TableUpdate{UpdateKind::kHopChange, prefix, hop});
      working.add(prefix, hop);
    }
  }
  return updates;
}

std::vector<TableUpdate6> generate_update_stream6(const RouteTable6& initial,
                                                  const UpdateStreamConfig& config) {
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<NextHop> hop_dist(
      0, config.next_hops == 0 ? 0 : config.next_hops - 1);
  // Announcement lengths follow the v6 table generator's BGP-shaped model
  // (/48 dominant, /32 spike); see generate_table6.
  const auto weights = TableGen6Config::default_length_weights();
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());
  std::uniform_int_distribution<std::uint64_t> word;

  std::vector<Prefix6> live;
  live.reserve(initial.size() + config.count);
  for (const RouteEntry6& e : initial.entries()) live.push_back(e.prefix);

  RouteTable6 working = initial;  // for announce-uniqueness checks
  std::vector<TableUpdate6> updates;
  updates.reserve(config.count);
  while (updates.size() < config.count) {
    const double kind_draw = unit(rng);
    if (kind_draw < config.announce_fraction || live.empty()) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int length = std::max(16, length_dist(rng));
        // Global unicast 2000::/3, same space as the table generator.
        const std::uint64_t hi =
            (word(rng) & 0x1fffffffffffffffULL) | 0x2000000000000000ULL;
        const Prefix6 prefix(Ipv6Addr{hi, word(rng)}, length);
        if (working.find(prefix).has_value()) continue;
        const NextHop hop = hop_dist(rng);
        updates.push_back(TableUpdate6{UpdateKind::kAnnounce, prefix, hop});
        working.add(prefix, hop);
        live.push_back(prefix);
        break;
      }
    } else if (kind_draw < config.announce_fraction + config.withdraw_fraction) {
      const std::size_t index =
          std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
      const Prefix6 prefix = live[index];
      updates.push_back(TableUpdate6{UpdateKind::kWithdraw, prefix, kNoRoute});
      working.remove(prefix);
      live[index] = live.back();
      live.pop_back();
    } else {
      const Prefix6 prefix =
          live[std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng)];
      const NextHop hop = hop_dist(rng);
      updates.push_back(TableUpdate6{UpdateKind::kHopChange, prefix, hop});
      working.add(prefix, hop);
    }
  }
  return updates;
}

}  // namespace spal::net
