// Address-family-generic LR-cache implementation. See lr_cache.h for the
// design commentary (M/W bits, γ ways quotas, victim cache) — that header
// also provides the IPv4 alias `LrCache` every IPv4 component uses, while
// the IPv6 router instantiates BasicLrCache<net::Ipv6Addr>.
//
// Requirements on Addr: regular value type with operator==, plus an
// overload of lr_cache_set_bits(addr) yielding the 32 low-entropy bits the
// set index is drawn from.
//
// Storage is a structure of arrays: a dense tag array, a one-byte state
// array (valid, W and M bits) and a cold payload array (next hop, LRU and
// FIFO stamps), for the main blocks and the victim cache alike. Every route
// update scans all blocks of every LR-cache for covered tags
// (invalidate_matching), and almost always finds none; the dense layout
// lets that scan read 5 bytes per IPv4 block (tag and state) and leave the
// payloads untouched.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "net/ip_addr.h"
#include "net/route_table.h"

namespace spal::cache {

/// Conventional replacement policy applied among eviction candidates.
enum class Replacement : std::uint8_t { kLru, kFifo, kRandom };

/// The M status bit: where the cached result was produced.
enum class Origin : std::uint8_t { kLocal, kRemote };

struct LrCacheConfig {
  std::size_t blocks = 4096;          ///< β, total blocks
  std::size_t associativity = 4;      ///< paper's choice (Sec. 3.2)
  double remote_fraction = 0.5;       ///< γ, share of each set for REM blocks
  std::size_t victim_blocks = 8;      ///< 0 disables the victim cache
  Replacement replacement = Replacement::kLru;
  Replacement victim_replacement = Replacement::kLru;
  std::uint64_t seed = 0x1004;        ///< used by the random policy only
};

/// Outcome of a probe.
enum class ProbeState : std::uint8_t {
  kHit,      ///< completed block found; next_hop is valid
  kWaiting,  ///< block found but W=1; park the packet on the waiting list
  kMiss,     ///< not present
};

struct ProbeResult {
  ProbeState state = ProbeState::kMiss;
  net::NextHop next_hop = net::kNoRoute;
};

struct LrCacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;          ///< completed-block hits (incl. victim hits)
  std::uint64_t loc_hits = 0;      ///< hits on M=LOC blocks (hits = loc + rem)
  std::uint64_t rem_hits = 0;      ///< hits on M=REM blocks
  std::uint64_t victim_hits = 0;   ///< subset of hits served by the victim cache
  std::uint64_t waiting_hits = 0;  ///< probes that matched a W=1 block
  std::uint64_t misses = 0;
  std::uint64_t reservations = 0;
  std::uint64_t failed_reservations = 0;  ///< quota full of waiting blocks
  std::uint64_t quota_bypasses = 0;       ///< origin has zero ways (not cached)
  std::uint64_t failed_promotions = 0;    ///< victim hit kept in victim cache
  std::uint64_t fills = 0;
  std::uint64_t orphan_fills = 0;  ///< reply arrived after flush removed block
  std::uint64_t cancelled_reservations = 0;  ///< W=1 blocks reclaimed on timeout
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  std::uint64_t invalidated_blocks = 0;  ///< blocks dropped by invalidate_matching

  double hit_rate() const {
    return probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
  }

  void accumulate(const LrCacheStats& other) {
    probes += other.probes;
    hits += other.hits;
    loc_hits += other.loc_hits;
    rem_hits += other.rem_hits;
    victim_hits += other.victim_hits;
    waiting_hits += other.waiting_hits;
    misses += other.misses;
    reservations += other.reservations;
    failed_reservations += other.failed_reservations;
    quota_bypasses += other.quota_bypasses;
    failed_promotions += other.failed_promotions;
    fills += other.fills;
    orphan_fills += other.orphan_fills;
    cancelled_reservations += other.cancelled_reservations;
    evictions += other.evictions;
    flushes += other.flushes;
    invalidated_blocks += other.invalidated_blocks;
  }
};

/// Set-index source bits per address family.
inline std::uint32_t lr_cache_set_bits(net::Ipv4Addr addr) { return addr.value(); }
inline std::uint32_t lr_cache_set_bits(const net::Ipv6Addr& addr) {
  return static_cast<std::uint32_t>(addr.lo());
}

template <typename Addr>
class BasicLrCache {
 public:
  /// Throws std::invalid_argument unless blocks is a nonzero multiple of
  /// the associativity and the set count is a power of two.
  explicit BasicLrCache(const LrCacheConfig& config)
      : config_(config), rng_(config.seed) {
    if (config.associativity == 0 || config.blocks == 0 ||
        config.blocks % config.associativity != 0) {
      throw std::invalid_argument(
          "LrCache: blocks must be a nonzero multiple of associativity");
    }
    sets_ = config.blocks / config.associativity;
    if (!std::has_single_bit(sets_)) {
      throw std::invalid_argument("LrCache: set count must be a power of two");
    }
    if (config.remote_fraction < 0.0 || config.remote_fraction > 1.0) {
      throw std::invalid_argument("LrCache: remote_fraction outside [0,1]");
    }
    main_ = Blocks(config.blocks);
    victim_ = Blocks(config.victim_blocks);
  }

  /// Looks `addr` up in its set and the victim cache simultaneously.
  ProbeResult probe(const Addr& addr, std::uint64_t now) {
    ++stats_.probes;
    if (const std::size_t i = find_in_set(addr); i != kNone) {
      if ((main_.states[i] & kWaiting) != 0) {
        ++stats_.waiting_hits;
        return ProbeResult{ProbeState::kWaiting, net::kNoRoute};
      }
      main_.payloads[i].last_use = now;
      ++stats_.hits;
      count_hit_origin(origin_of(main_.states[i]));
      return ProbeResult{ProbeState::kHit, main_.payloads[i].next_hop};
    }
    // The victim cache is searched simultaneously (Sec. 3.2); on a hit the
    // block is promoted back into its set.
    if (const std::size_t v = find_victim_entry(addr); v != kNone) {
      ++stats_.hits;
      ++stats_.victim_hits;
      const std::uint8_t state = victim_.states[v];
      const net::NextHop next_hop = victim_.payloads[v].next_hop;
      count_hit_origin(origin_of(state));
      victim_.states[v] = 0;  // free the slot: promote() may demote into it
      if (!promote(addr, state, next_hop, now)) {
        // Promotion declined (origin quota entirely waiting, or zero ways
        // at this γ): restore the entry instead of destroying a valid
        // result — it stays servable from the victim cache.
        victim_.states[v] = state;
        victim_.payloads[v].last_use = now;
        ++stats_.failed_promotions;
      }
      return ProbeResult{ProbeState::kHit, next_hop};
    }
    ++stats_.misses;
    return ProbeResult{ProbeState::kMiss, net::kNoRoute};
  }

  /// Early recording: reserves a W=1 block (see lr_cache.h).
  bool reserve(const Addr& addr, Origin origin, std::uint64_t now) {
    const std::size_t i = choose_victim(set_index(addr), origin, now);
    if (i == kNone) {
      ++stats_.failed_reservations;
      return false;
    }
    ++stats_.reservations;
    main_.store(i, addr, state_of(origin) | kWaiting, net::kNoRoute, now);
    return true;
  }

  /// Completes the waiting block for `addr`; false if it was flushed away.
  bool fill(const Addr& addr, net::NextHop next_hop, std::uint64_t now) {
    const std::size_t i = find_in_set(addr);
    if (i == kNone || (main_.states[i] & kWaiting) == 0) {
      ++stats_.orphan_fills;
      return false;
    }
    main_.payloads[i].next_hop = next_hop;
    main_.states[i] &= static_cast<std::uint8_t>(~kWaiting);
    main_.payloads[i].last_use = now;
    ++stats_.fills;
    return true;
  }

  /// Releases the waiting (W=1) block for `addr` without filling it: the
  /// router's timeout path reclaims blocks whose reply was lost so they
  /// stop pinning their origin's γ quota forever. False when no waiting
  /// block exists (already filled, flushed, or never reserved). Completed
  /// blocks are never touched.
  bool cancel_waiting(const Addr& addr) {
    const std::size_t i = find_in_set(addr);
    if (i == kNone || (main_.states[i] & kWaiting) == 0) return false;
    main_.states[i] = 0;
    ++stats_.cancelled_reservations;
    return true;
  }

  /// Inserts a completed result directly (reserve+fill in one step).
  void insert(const Addr& addr, net::NextHop next_hop, Origin origin,
              std::uint64_t now) {
    if (const std::size_t i = find_in_set(addr); i != kNone) {
      main_.payloads[i].next_hop = next_hop;
      main_.states[i] = state_of(origin);
      main_.payloads[i].last_use = now;
      return;
    }
    const std::size_t i = choose_victim(set_index(addr), origin, now);
    if (i == kNone) return;  // no ways for this origin / quota waiting
    main_.store(i, addr, state_of(origin), next_hop, now);
  }

  /// Invalidates every block including the victim cache (table update).
  void flush() {
    ++stats_.flushes;
    std::fill(main_.states.begin(), main_.states.end(), std::uint8_t{0});
    std::fill(victim_.states.begin(), victim_.states.end(), std::uint8_t{0});
  }

  /// Cold restart: flush() plus statistics and RNG reset.
  void reset() {
    main_ = Blocks(main_.size());
    victim_ = Blocks(victim_.size());
    stats_ = LrCacheStats{};
    rng_.seed(config_.seed);
  }

  /// Selective invalidation: drops completed blocks `prefix` covers
  /// (victim cache included); waiting blocks are left for their fill.
  template <typename PrefixT>
  std::size_t invalidate_matching(const PrefixT& prefix) {
    return invalidate_if(
        [&prefix](const Addr& addr) { return prefix.matches(addr); });
  }

  /// Predicate invalidation: drops every completed block whose *address*
  /// satisfies `pred` (victim cache included); waiting blocks are left for
  /// their fill. The migration cutover uses this to shed all blocks homed
  /// on a re-homed fragment — a set no single prefix covers. `pred` must be
  /// pure: the scan also evaluates it on idle blocks' stale tags.
  template <typename Pred>
  std::size_t invalidate_if(Pred&& pred) {
    const std::size_t invalidated =
        drop_matching(main_, pred) + drop_matching(victim_, pred);
    stats_.invalidated_blocks += invalidated;
    return invalidated;
  }

  const LrCacheStats& stats() const { return stats_; }
  const LrCacheConfig& config() const { return config_; }
  std::size_t set_count() const { return sets_; }

  /// Valid completed blocks of the given origin (test/diagnostic aid).
  std::size_t count_origin(Origin origin) const {
    std::size_t count = 0;
    for (const std::uint8_t state : main_.states) {
      if (live(state) && origin_of(state) == origin) ++count;
    }
    return count;
  }

  /// Ways of each set devoted to the origin. floor(): a fractional REM
  /// share never rounds a LOC way away (γ = 50% on a direct-mapped cache
  /// keeps the single way for LOC results).
  std::size_t ways(Origin origin) const {
    const auto rem = static_cast<std::size_t>(
        config_.remote_fraction * static_cast<double>(config_.associativity));
    return origin == Origin::kRemote ? rem : config_.associativity - rem;
  }

 private:
  // Block status bits (lr_cache.h): availability, W and M.
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kWaiting = 2;
  static constexpr std::uint8_t kRemote = 4;
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Blocks per invalidation chunk: one any-match reduction each.
  static constexpr std::size_t kScanChunk = 64;

  /// The fields a block needs only once its tag has matched or it is
  /// being replaced.
  struct Payload {
    net::NextHop next_hop = net::kNoRoute;
    std::uint64_t last_use = 0;  ///< LRU stamp
    std::uint64_t inserted = 0;  ///< FIFO stamp
  };

  /// Blocks as parallel arrays: the dense tags and one-byte states the
  /// probe and invalidation scans read, beside the cold payloads. Block i
  /// is (tags[i], states[i], payloads[i]); it is idle when kValid is clear,
  /// and an idle block's tag and payload are stale.
  struct Blocks {
    std::vector<Addr> tags;
    std::vector<std::uint8_t> states;
    std::vector<Payload> payloads;

    explicit Blocks(std::size_t count)
        : tags(count), states(count, 0), payloads(count) {}
    std::size_t size() const { return tags.size(); }

    /// Writes a freshly (re)placed block stamped `now`.
    void store(std::size_t i, const Addr& tag, std::uint8_t state,
               net::NextHop next_hop, std::uint64_t now) {
      tags[i] = tag;
      states[i] = state;
      payloads[i] = Payload{next_hop, now, now};
    }
  };

  static std::uint8_t state_of(Origin origin) {
    return origin == Origin::kRemote ? std::uint8_t{kValid | kRemote} : kValid;
  }
  static Origin origin_of(std::uint8_t state) {
    return (state & kRemote) != 0 ? Origin::kRemote : Origin::kLocal;
  }
  /// Valid and completed (W=0): the blocks invalidation may drop.
  static bool live(std::uint8_t state) {
    return (state & (kValid | kWaiting)) == kValid;
  }

  std::size_t set_index(const Addr& addr) const {
    return lr_cache_set_bits(addr) & (sets_ - 1);
  }

  void count_hit_origin(Origin origin) {
    if (origin == Origin::kLocal) {
      ++stats_.loc_hits;
    } else {
      ++stats_.rem_hits;
    }
  }

  /// Moves a victim-cache hit back into its set (Sec. 3.2). Unlike
  /// insert(), a declined allocation is reported to the caller and is not a
  /// quota bypass — the result is not lost, it stays in the victim cache.
  bool promote(const Addr& addr, std::uint8_t state, net::NextHop next_hop,
               std::uint64_t now) {
    const std::size_t i = choose_victim(set_index(addr), origin_of(state), now,
                                        /*count_quota_bypass=*/false);
    if (i == kNone) return false;
    main_.store(i, addr, state, next_hop, now);
    return true;
  }

  std::size_t find_in_set(const Addr& addr) const {
    const std::size_t base = set_index(addr) * config_.associativity;
    for (std::size_t i = base; i < base + config_.associativity; ++i) {
      if (main_.tags[i] == addr && (main_.states[i] & kValid) != 0) return i;
    }
    return kNone;
  }

  std::size_t find_victim_entry(const Addr& addr) const {
    for (std::size_t i = 0; i < victim_.size(); ++i) {
      if (victim_.tags[i] == addr && (victim_.states[i] & kValid) != 0) return i;
    }
    return kNone;
  }

  /// Clears every live block of `blocks` whose tag satisfies `match`.
  /// Most route updates cover no cached block, so each 64-block chunk
  /// first gets a branch-free any-match reduction over its tags and states;
  /// only a chunk with a match is revisited to clear.
  template <typename Match>
  static std::size_t drop_matching(Blocks& blocks, Match& match) {
    std::size_t dropped = 0;
    for (std::size_t begin = 0; begin < blocks.size(); begin += kScanChunk) {
      const std::size_t end = std::min(begin + kScanChunk, blocks.size());
      std::uint8_t any = 0;
      for (std::size_t i = begin; i < end; ++i) {
        any |= static_cast<std::uint8_t>(live(blocks.states[i])) &
               static_cast<std::uint8_t>(match(blocks.tags[i]));
      }
      if (any == 0) continue;
      for (std::size_t i = begin; i < end; ++i) {
        if (live(blocks.states[i]) && match(blocks.tags[i])) {
          blocks.states[i] = 0;
          ++dropped;
        }
      }
    }
    return dropped;
  }

  /// The policy's pick among the `count` (> 0) blocks of [begin, end) whose
  /// state satisfies `candidate`, scanning in block order: LRU and FIFO take
  /// the first block with the oldest stamp, random draws k uniformly and
  /// takes the k-th candidate.
  template <typename Candidate>
  std::size_t pick_by_policy(const Blocks& blocks, std::size_t begin,
                             std::size_t end, std::size_t count,
                             Replacement policy, Candidate candidate) {
    if (policy == Replacement::kRandom) {
      std::size_t k =
          std::uniform_int_distribution<std::size_t>(0, count - 1)(rng_);
      std::size_t i = begin;
      while (!candidate(blocks.states[i]) || k-- != 0) ++i;
      return i;
    }
    std::size_t best = kNone;
    std::uint64_t best_stamp = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (!candidate(blocks.states[i])) continue;
      const Payload& payload = blocks.payloads[i];
      const std::uint64_t stamp =
          policy == Replacement::kLru ? payload.last_use : payload.inserted;
      if (best == kNone || stamp < best_stamp) {
        best = i;
        best_stamp = stamp;
      }
    }
    return best;
  }

  /// Picks the block an `origin` insertion may overwrite under the γ ways
  /// quota; kNone when the origin has no ways or only waiting blocks.
  std::size_t choose_victim(std::size_t set, Origin origin, std::uint64_t now,
                            bool count_quota_bypass = true) {
    const std::size_t quota = ways(origin);
    if (quota == 0) {
      // This origin is not cached at this γ — but a promotion that keeps
      // its victim-cache entry is not a bypassed (lost) result.
      if (count_quota_bypass) ++stats_.quota_bypasses;
      return kNone;
    }
    const std::size_t base = set * config_.associativity;
    const std::size_t end = base + config_.associativity;
    const std::uint8_t own = origin == Origin::kRemote ? kRemote : 0;
    const auto evictable_own = [own](std::uint8_t state) {
      return live(state) && (state & kRemote) == own;
    };
    // Same-origin blocks count against the γ quota (waiting ones included).
    std::size_t same_origin_valid = 0;
    std::size_t same_origin_evictable = 0;
    for (std::size_t i = base; i < end; ++i) {
      const std::uint8_t state = main_.states[i];
      if ((state & kValid) == 0 || (state & kRemote) != own) continue;
      ++same_origin_valid;
      if ((state & kWaiting) == 0) ++same_origin_evictable;
    }
    if (same_origin_valid >= quota) {
      // Quota reached: replace within the origin's own ways.
      if (same_origin_evictable == 0) return kNone;  // quota entirely waiting
      return evict(pick_by_policy(main_, base, end, same_origin_evictable,
                                  config_.replacement, evictable_own),
                   now);
    }
    // Below quota: take an idle block first...
    for (std::size_t i = base; i < end; ++i) {
      if ((main_.states[i] & kValid) == 0) return i;
    }
    // ...else the other origin necessarily exceeds its quota; reclaim.
    const auto evictable_other = [own](std::uint8_t state) {
      return live(state) && (state & kRemote) != own;
    };
    const auto other = static_cast<std::size_t>(
        std::count_if(main_.states.begin() + static_cast<std::ptrdiff_t>(base),
                      main_.states.begin() + static_cast<std::ptrdiff_t>(end),
                      evictable_other));
    if (other == 0) return kNone;
    return evict(pick_by_policy(main_, base, end, other, config_.replacement,
                                evictable_other),
                 now);
  }

  /// Frees main block `i` for replacement, demoting it into the victim
  /// cache when there is one; returns `i`.
  std::size_t evict(std::size_t i, std::uint64_t now) {
    if (victim_.size() > 0) demote(i, now);
    return i;
  }

  /// Demotes valid main block `i` into the victim cache.
  void demote(std::size_t i, std::uint64_t now) {
    ++stats_.evictions;
    const auto idle = std::find(victim_.states.begin(), victim_.states.end(),
                                std::uint8_t{0});
    const std::size_t slot =
        idle != victim_.states.end()
            ? static_cast<std::size_t>(idle - victim_.states.begin())
            : pick_by_policy(victim_, 0, victim_.size(), victim_.size(),
                             config_.victim_replacement,
                             [](std::uint8_t) { return true; });
    victim_.store(slot, main_.tags[i], main_.states[i],
                  main_.payloads[i].next_hop, now);
  }

  LrCacheConfig config_;
  std::size_t sets_ = 0;
  Blocks main_{0};    // sets_ * associativity, set-major
  Blocks victim_{0};  // fully associative
  LrCacheStats stats_;
  std::mt19937_64 rng_;
};

}  // namespace spal::cache
