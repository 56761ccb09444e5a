// BasicLrCache<Ipv6Addr>: the LR-cache over 128-bit addresses, as the IPv6
// router uses it. Mechanics are shared with the IPv4 instantiation; these
// tests pin the v6-specific pieces (set indexing from the low half, full
// 128-bit tag comparison, Prefix6 selective invalidation).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/basic_lr_cache.h"
#include "lr_cache_golden.h"
#include "net/prefix6.h"

namespace {

using namespace spal;
using cache::BasicLrCache;
using cache::LrCacheConfig;
using cache::Origin;
using cache::ProbeState;
using cache::Replacement;
using net::Ipv6Addr;

using Cache6 = BasicLrCache<Ipv6Addr>;

LrCacheConfig config16() {
  LrCacheConfig config;
  config.blocks = 16;
  config.victim_blocks = 0;
  return config;
}

TEST(LrCache6, MissInsertHit) {
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 42};
  EXPECT_EQ(cache.probe(a, 0).state, ProbeState::kMiss);
  cache.insert(a, 7, Origin::kLocal, 1);
  const auto result = cache.probe(a, 2);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(result.next_hop, 7u);
}

TEST(LrCache6, TagComparesFullAddress) {
  // Two addresses agreeing on the set-index bits (low 32) but differing in
  // the high half must not alias.
  Cache6 cache(config16());
  const Ipv6Addr a{0x2001000000000000ULL, 5};
  const Ipv6Addr b{0x2002000000000000ULL, 5};
  cache.insert(a, 1, Origin::kLocal, 0);
  EXPECT_EQ(cache.probe(b, 1).state, ProbeState::kMiss);
  cache.insert(b, 2, Origin::kLocal, 2);
  EXPECT_EQ(cache.probe(a, 3).next_hop, 1u);
  EXPECT_EQ(cache.probe(b, 4).next_hop, 2u);
}

TEST(LrCache6, SetIndexComesFromLowHalf) {
  // Addresses with distinct low-word set bits land in different sets, so a
  // same-origin quota in one set does not evict across sets.
  Cache6 cache(config16());  // 4 sets, assoc 4, LOC ways 2
  for (std::uint64_t set = 0; set < 4; ++set) {
    cache.insert(Ipv6Addr{0x2001000000000000ULL, set}, 1, Origin::kLocal, 1);
    cache.insert(Ipv6Addr{0x2002000000000000ULL, set}, 2, Origin::kLocal, 2);
  }
  for (std::uint64_t set = 0; set < 4; ++set) {
    EXPECT_EQ(cache.probe(Ipv6Addr{0x2001000000000000ULL, set}, 10).state,
              ProbeState::kHit);
    EXPECT_EQ(cache.probe(Ipv6Addr{0x2002000000000000ULL, set}, 11).state,
              ProbeState::kHit);
  }
}

TEST(LrCache6, WaitingAndFill) {
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 9};
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  EXPECT_EQ(cache.probe(a, 1).state, ProbeState::kWaiting);
  EXPECT_TRUE(cache.fill(a, 3, 2));
  EXPECT_EQ(cache.probe(a, 3).next_hop, 3u);
}

TEST(LrCache6, FillAfterFlushIsOrphan) {
  // A reply that lands after a table update flushed its W=1 block must be
  // reported (not silently re-create a block) — same contract as IPv4.
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 9};
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  cache.flush();
  EXPECT_FALSE(cache.fill(a, 7, 1));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
  EXPECT_EQ(cache.probe(a, 2).state, ProbeState::kMiss);
}

TEST(LrCache6, QuotaEntirelyWaitingFailsReservation) {
  // Both ways of an origin pinned by W=1 blocks: a further reservation must
  // fail (and be counted) rather than evict an in-flight block.
  Cache6 cache(config16());  // 4 sets, assoc 4, γ = 50%: 2 REM ways
  const Ipv6Addr r1{0x2001000000000000ULL, 0x20};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x20};  // same set
  const Ipv6Addr r3{0x2003000000000000ULL, 0x20};
  ASSERT_TRUE(cache.reserve(r1, Origin::kRemote, 0));
  ASSERT_TRUE(cache.reserve(r2, Origin::kRemote, 1));
  EXPECT_FALSE(cache.reserve(r3, Origin::kRemote, 2));
  EXPECT_EQ(cache.stats().failed_reservations, 1u);
  EXPECT_EQ(cache.probe(r1, 3).state, ProbeState::kWaiting);
  EXPECT_EQ(cache.probe(r2, 4).state, ProbeState::kWaiting);
}

TEST(LrCache6, CancelWaitingReclaimsBlock) {
  Cache6 cache(config16());
  const Ipv6Addr r1{0x2001000000000000ULL, 0x20};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x20};
  const Ipv6Addr r3{0x2003000000000000ULL, 0x20};
  ASSERT_TRUE(cache.reserve(r1, Origin::kRemote, 0));
  ASSERT_TRUE(cache.reserve(r2, Origin::kRemote, 1));
  ASSERT_FALSE(cache.reserve(r3, Origin::kRemote, 2));
  EXPECT_TRUE(cache.cancel_waiting(r1));
  EXPECT_FALSE(cache.cancel_waiting(r1));  // already gone
  EXPECT_EQ(cache.stats().cancelled_reservations, 1u);
  EXPECT_TRUE(cache.reserve(r3, Origin::kRemote, 3));  // quota released
}

TEST(LrCache6, Prefix6SelectiveInvalidation) {
  Cache6 cache(config16());
  const Ipv6Addr inside{0x20010DB800000000ULL, 1};
  const Ipv6Addr outside{0x20010DB900000000ULL, 1};
  cache.insert(inside, 1, Origin::kLocal, 0);
  cache.insert(outside, 2, Origin::kLocal, 1);
  const net::Prefix6 changed(Ipv6Addr{0x20010DB800000000ULL, 0}, 32);
  EXPECT_EQ(cache.invalidate_matching(changed), 1u);
  EXPECT_EQ(cache.probe(inside, 2).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(outside, 3).state, ProbeState::kHit);
}

/// `addr` with MSB-relative bit `pos` inverted.
Ipv6Addr flip_bit(const Ipv6Addr& addr, int pos) {
  return pos < 64 ? Ipv6Addr{addr.hi() ^ (1ULL << (63 - pos)), addr.lo()}
                  : Ipv6Addr{addr.hi(), addr.lo() ^ (1ULL << (127 - pos))};
}

/// Bit-by-bit oracle for "the /length prefix of `base` covers `addr`",
/// independent of Prefix6's hi/lo masks.
bool covers(const Ipv6Addr& base, int length, const Ipv6Addr& addr) {
  for (int pos = 0; pos < length; ++pos) {
    if (addr.bit(pos) != base.bit(pos)) return false;
  }
  return true;
}

TEST(LrCache6, InvalidationAcrossTheHiLoSplit) {
  // Prefix lengths on both sides of the 64-bit mask split. One set of 8
  // LOC ways plus a 4-block victim cache holds: two blocks demoted into the
  // victim cache (one covered below /128, one never covered), a waiting
  // block on the prefix address itself (covered, must survive), and
  // completed blocks differing from it just before, at and after the
  // prefix boundary and at bits 63/64.
  const Ipv6Addr base{0x20010DB85555AAAAULL, 0xAAAA555500001234ULL};
  for (const int length : {0, 63, 64, 65, 128}) {
    SCOPED_TRACE(length);
    LrCacheConfig config;
    config.blocks = 8;
    config.associativity = 8;
    config.remote_fraction = 0.0;
    config.victim_blocks = 4;
    Cache6 cache(config);

    std::vector<Ipv6Addr> completed;
    const auto add = [&](const Ipv6Addr& addr) {
      if (addr == base ||
          std::find(completed.begin(), completed.end(), addr) != completed.end()) {
        return;
      }
      cache.insert(addr, static_cast<net::NextHop>(completed.size() + 1),
                   Origin::kLocal, completed.size());
      completed.push_back(addr);
    };
    add(flip_bit(base, 127));  // oldest two: demoted to the victim cache
    add(flip_bit(base, 0));
    ASSERT_TRUE(cache.reserve(base, Origin::kLocal, 100));
    if (length > 0) add(flip_bit(base, length - 1));
    if (length < 128) add(flip_bit(base, length));
    add(flip_bit(base, 63));
    add(flip_bit(base, 64));
    for (std::uint64_t k = 1; cache.stats().evictions < 2; ++k) {
      add(Ipv6Addr{0x3FFE000000000000ULL + k, k});
    }
    ASSERT_EQ(cache.stats().evictions, 2u);

    std::size_t expected = 0;
    for (const Ipv6Addr& addr : completed) expected += covers(base, length, addr);
    EXPECT_EQ(cache.invalidate_matching(net::Prefix6(base, length)), expected);
    EXPECT_EQ(cache.stats().invalidated_blocks, expected);

    EXPECT_EQ(cache.probe(base, 200).state, ProbeState::kWaiting);
    for (const Ipv6Addr& addr : completed) {
      EXPECT_EQ(cache.probe(addr, 201).state,
                covers(base, length, addr) ? ProbeState::kMiss : ProbeState::kHit);
    }
    EXPECT_TRUE(cache.fill(base, 9, 202));
    EXPECT_EQ(cache.stats().orphan_fills, 0u);
  }
}

TEST(LrCache6, GammaQuotasApply) {
  LrCacheConfig config = config16();
  config.remote_fraction = 0.25;  // 1 REM way per set
  Cache6 cache(config);
  const Ipv6Addr r1{0x2001000000000000ULL, 0x10};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x10};  // same set
  cache.insert(r1, 1, Origin::kRemote, 0);
  cache.insert(r2, 2, Origin::kRemote, 1);
  EXPECT_EQ(cache.probe(r1, 2).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(r2, 3).state, ProbeState::kHit);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 1u);
}

TEST(LrCache6, VictimCacheWorks) {
  LrCacheConfig config = config16();
  config.blocks = 4;  // one set, LOC ways 2
  config.victim_blocks = 4;
  Cache6 cache(config);
  const Ipv6Addr a{0x2001000000000000ULL, 0};
  const Ipv6Addr b{0x2002000000000000ULL, 0};
  const Ipv6Addr c{0x2003000000000000ULL, 0};
  cache.insert(a, 1, Origin::kLocal, 0);
  cache.insert(b, 2, Origin::kLocal, 1);
  cache.insert(c, 3, Origin::kLocal, 2);  // evicts a into the victim cache
  const auto result = cache.probe(a, 3);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(cache.stats().victim_hits, 1u);
}

// --- Golden behaviour ------------------------------------------------------

struct Ipv6Family {
  using Addr = Ipv6Addr;
  static constexpr int kMaxLength = net::Prefix6::kMaxLength;
  /// Clusters on both sides of the /64 split: 8 x 256 high halves under
  /// 2001::/16, 16 groups on the top nibble of the low half, random low 32
  /// bits (the set-index bits).
  static Ipv6Addr address(std::uint64_t r) {
    const std::uint64_t hi = (0x2001ULL << 48) | (((r >> 3) & 0xFFu) << 8) |
                             ((r & 7u) << 32);
    const std::uint64_t lo = (((r >> 11) & 0xFu) << 60) | ((r >> 15) & 0xFFFFFFFFu);
    return Ipv6Addr{hi, lo};
  }
  static net::Prefix6 prefix(const Ipv6Addr& addr, int length) {
    return net::Prefix6(addr, length);
  }
  static std::uint64_t hash(const Ipv6Addr& addr) {
    return ((addr.hi() ^ (addr.lo() * 0x9E3779B97F4A7C15ULL)) *
            0xBF58476D1CE4E5B9ULL) >> 40;
  }
};

// Expected digests recorded from the array-of-blocks cache this layout
// replaced; any change to a return value, a statistic or the random
// policy's RNG draws moves them.
TEST(LrCache6Golden, LruMatrix) {
  EXPECT_EQ(cache::golden::run_matrix<Ipv6Family>(Replacement::kLru),
            0x46A75FBB2A936B03ULL);
}

TEST(LrCache6Golden, FifoMatrix) {
  EXPECT_EQ(cache::golden::run_matrix<Ipv6Family>(Replacement::kFifo),
            0xDCBAF9A1695B4895ULL);
}

TEST(LrCache6Golden, RandomMatrix) {
  EXPECT_EQ(cache::golden::run_matrix<Ipv6Family>(Replacement::kRandom),
            0x4D260C6315EFFF31ULL);
}

}  // namespace
