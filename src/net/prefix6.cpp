#include "net/prefix6.h"

#include <algorithm>
#include <charconv>

#include "net/dedup_set.h"

namespace spal::net {

std::optional<Prefix6> Prefix6::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view len_part = text.substr(slash + 1);
  int length = 0;
  auto [next, ec] =
      std::from_chars(len_part.data(), len_part.data() + len_part.size(), length);
  if (ec != std::errc{} || next != len_part.data() + len_part.size() ||
      length < 0 || length > kMaxLength) {
    return std::nullopt;
  }
  // Eight 16-bit hex groups separated by ':' (full form, no "::").
  std::string_view addr_part = text.substr(0, slash);
  std::uint64_t hi = 0, lo = 0;
  for (int group = 0; group < 8; ++group) {
    if (group > 0) {
      if (addr_part.empty() || addr_part.front() != ':') return std::nullopt;
      addr_part.remove_prefix(1);
    }
    std::uint32_t value = 0;
    auto [gnext, gec] = std::from_chars(
        addr_part.data(), addr_part.data() + std::min<std::size_t>(4, addr_part.size()),
        value, 16);
    if (gec != std::errc{} || gnext == addr_part.data() || value > 0xffff) {
      return std::nullopt;
    }
    addr_part.remove_prefix(static_cast<std::size_t>(gnext - addr_part.data()));
    if (group < 4) {
      hi = (hi << 16) | value;
    } else {
      lo = (lo << 16) | value;
    }
  }
  if (!addr_part.empty()) return std::nullopt;
  return Prefix6(Ipv6Addr{hi, lo}, length);
}

std::array<double, Prefix6::kMaxLength + 1> TableGen6Config::default_length_weights() {
  // Length mass shaped after global IPv6 BGP tables: /48 dominates, /32
  // spikes (RIR allocations), body over /29-/44, thin /64+ tail.
  std::array<double, Prefix6::kMaxLength + 1> weights{};
  weights[29] = 2.0;
  weights[32] = 22.0;
  weights[36] = 4.0;
  weights[40] = 5.0;
  weights[44] = 6.0;
  weights[48] = 48.0;
  weights[52] = 2.0;
  weights[56] = 4.0;
  weights[64] = 6.0;
  for (int len = 30; len < 48; ++len) {
    if (weights[static_cast<std::size_t>(len)] == 0.0) {
      weights[static_cast<std::size_t>(len)] = 0.3;
    }
  }
  return weights;
}

RouteTable6 generate_table6(const TableGen6Config& config) {
  std::mt19937_64 rng(config.seed);
  const auto weights = TableGen6Config::default_length_weights();
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> word;
  std::uniform_int_distribution<NextHop> hop_dist(
      0, config.next_hops == 0 ? 0 : config.next_hops - 1);

  std::vector<RouteEntry6> entries;
  entries.reserve(config.size);
  std::vector<Prefix6> nestable;
  // Dedup on (hi, lo, len); len is never 0 (the length weights start at
  // /29), so Key{} is free to mark empty slots.
  struct Key {
    std::uint64_t hi, lo;
    int len;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::uint64_t operator()(const Key& k) const {
      return mix64(k.hi ^ mix64(k.lo ^ static_cast<std::uint64_t>(k.len)));
    }
  };
  DedupSet<Key, KeyHash> seen(config.size);

  while (entries.size() < config.size) {
    const int length = length_dist(rng);
    Ipv6Addr addr;
    const Prefix6* parent = nullptr;
    if (!nestable.empty() && unit(rng) < config.nested_fraction) {
      for (int attempt = 0; attempt < 4 && parent == nullptr; ++attempt) {
        const Prefix6& candidate = nestable[std::uniform_int_distribution<std::size_t>(
            0, nestable.size() - 1)(rng)];
        if (candidate.length() < length) parent = &candidate;
      }
    }
    if (parent != nullptr) {
      addr = random_address_in(*parent, rng);
    } else {
      // Global unicast 2000::/3.
      const std::uint64_t hi = (word(rng) & 0x1fffffffffffffffULL) | 0x2000000000000000ULL;
      addr = Ipv6Addr{hi, word(rng)};
    }
    const Prefix6 prefix(addr, length);
    const Key key{prefix.address().hi(), prefix.address().lo(), prefix.length()};
    if (!seen.insert(key)) continue;
    entries.push_back(RouteEntry6{prefix, hop_dist(rng)});
    if (prefix.length() <= 48) nestable.push_back(prefix);
  }
  return RouteTable6(std::move(entries));
}

RouteTable6 make_rt6_internet(std::size_t size) {
  TableGen6Config config;
  config.size = size;
  config.seed = 0x5eed'0011;
  config.next_hops = 64;
  return generate_table6(config);
}

Ipv6Addr random_address_in(const Prefix6& prefix, std::mt19937_64& rng) {
  const int len = prefix.length();
  const std::uint64_t hi_mask =
      len <= 0 ? 0 : (len >= 64 ? ~std::uint64_t{0} : ~std::uint64_t{0} << (64 - len));
  const std::uint64_t lo_mask =
      len <= 64 ? 0 : (len >= 128 ? ~std::uint64_t{0} : ~std::uint64_t{0} << (128 - len));
  const std::uint64_t hi = (prefix.address().hi() & hi_mask) | (rng() & ~hi_mask);
  const std::uint64_t lo = (prefix.address().lo() & lo_mask) | (rng() & ~lo_mask);
  return Ipv6Addr{hi, lo};
}

}  // namespace spal::net
