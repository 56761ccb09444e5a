// Golden behaviour check for BasicLrCache, shared by the IPv4 and IPv6
// cache tests. A seeded random sequence of probe / reserve / fill /
// cancel_waiting / insert / flush / invalidate_matching / invalidate_if
// calls runs over every replacement policy, γ, associativity and victim
// cache size; every return value and the final statistics are folded into
// one FNV-1a digest. The expected digests pin the cache's observable
// behaviour — hits, evictions, victim traffic, the random policy's RNG
// stream — independently of its storage layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "cache/basic_lr_cache.h"

namespace spal::cache::golden {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

inline void fold_stats(Fnv1a& hash, const LrCacheStats& s) {
  for (const std::uint64_t field :
       {s.probes, s.hits, s.loc_hits, s.rem_hits, s.victim_hits,
        s.waiting_hits, s.misses, s.reservations, s.failed_reservations,
        s.quota_bypasses, s.failed_promotions, s.fills, s.orphan_fills,
        s.cancelled_reservations, s.evictions, s.flushes,
        s.invalidated_blocks}) {
    hash.add(field);
  }
}

/// One seeded call sequence against a cache built from `config`. `Family`
/// supplies the address type, a clustered address generator (so short and
/// mid-length prefixes cover groups of cached blocks), a prefix builder,
/// the maximum prefix length and a pure address hash for invalidate_if.
template <typename Family>
std::uint64_t run_sequence(const LrCacheConfig& config, std::uint64_t seed,
                           int ops) {
  using Addr = typename Family::Addr;
  BasicLrCache<Addr> cache(config);
  std::mt19937_64 rng(seed);
  std::vector<Addr> pool(config.blocks * 3);
  for (Addr& addr : pool) addr = Family::address(rng());
  std::vector<Addr> pending;  // recent successful reservations
  // fill / cancel_waiting mostly target an in-flight reservation, sometimes
  // an arbitrary address (orphan fills, no-op cancels).
  const auto target = [&](const Addr& fallback) -> Addr {
    const std::uint64_t coin = rng();
    if (pending.empty() || coin % 5 == 0) return fallback;
    return pending[rng() % pending.size()];
  };
  Fnv1a hash;
  for (int step = 0; step < ops; ++step) {
    // Three calls share each timestamp, so LRU/FIFO stamps tie and the
    // policies' tie-break (first oldest block in block order) is pinned too.
    const auto now = static_cast<std::uint64_t>(step / 3);
    const Addr addr = pool[rng() % pool.size()];
    const std::uint64_t op = rng() % 1000;
    const Origin origin = (rng() & 1u) != 0 ? Origin::kRemote : Origin::kLocal;
    if (op < 380) {
      const ProbeResult result = cache.probe(addr, now);
      hash.add(static_cast<std::uint64_t>(result.state));
      hash.add(result.next_hop);
    } else if (op < 530) {
      const bool reserved = cache.reserve(addr, origin, now);
      hash.add(reserved ? 1 : 0);
      if (reserved) pending.push_back(addr);
    } else if (op < 680) {
      const Addr filled = target(addr);
      const auto next_hop = static_cast<net::NextHop>(rng() % 64);
      hash.add(cache.fill(filled, next_hop, now) ? 1 : 0);
    } else if (op < 710) {
      hash.add(cache.cancel_waiting(target(addr)) ? 1 : 0);
    } else if (op < 960) {
      cache.insert(addr, static_cast<net::NextHop>(rng() % 64), origin, now);
    } else if (op < 990) {
      // Biased toward long prefixes: the max of two uniform draws.
      const auto first = static_cast<int>(rng() % (Family::kMaxLength + 1));
      const auto second = static_cast<int>(rng() % (Family::kMaxLength + 1));
      hash.add(cache.invalidate_matching(
          Family::prefix(addr, std::max(first, second))));
    } else if (op < 999) {
      const std::uint64_t salt = rng() % 5;
      hash.add(cache.invalidate_if(
          [salt](const Addr& a) { return Family::hash(a) % 5 == salt; }));
    } else {
      cache.flush();
    }
    if (pending.size() > 64) pending.erase(pending.begin());
  }
  fold_stats(hash, cache.stats());
  hash.add(cache.count_origin(Origin::kLocal));
  hash.add(cache.count_origin(Origin::kRemote));
  return hash.value();
}

/// The digest of one replacement policy (main and victim cache alike) over
/// γ ∈ {0, 0.25, 0.5, 1} × associativity {1, 4, 8} × victim {0, 8}: 24
/// configurations of a 64-block cache, ~100k calls in total.
template <typename Family>
std::uint64_t run_matrix(Replacement policy) {
  constexpr int kOpsPerConfig = 4200;
  Fnv1a hash;
  std::uint64_t seed = 0x5EED0000u + static_cast<std::uint64_t>(policy);
  for (const double gamma : {0.0, 0.25, 0.5, 1.0}) {
    for (const std::size_t associativity : {1u, 4u, 8u}) {
      for (const std::size_t victim_blocks : {0u, 8u}) {
        LrCacheConfig config;
        config.blocks = 64;
        config.associativity = associativity;
        config.remote_fraction = gamma;
        config.victim_blocks = victim_blocks;
        config.replacement = policy;
        config.victim_replacement = policy;
        config.seed = seed * 31;
        hash.add(run_sequence<Family>(config, seed++, kOpsPerConfig));
      }
    }
  }
  return hash.value();
}

}  // namespace spal::cache::golden
