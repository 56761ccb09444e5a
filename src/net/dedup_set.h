// Flat duplicate filter for the synthetic table generators.
//
// The generators draw prefixes at random and reject the ones they already
// produced. A node-based std::unordered_set spends most of that time in one
// heap allocation per key; this set keeps its keys in a single
// open-addressing array with linear probing instead, sized up front from the
// number of keys the caller expects.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace spal::net {

/// splitmix64's finalizer: a full-avalanche mix, so linear probing sees
/// well-spread slots even for keys that differ only in their low bits.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Insert-only hash set of keys. `Key{}` marks an empty slot, so it must
/// never be inserted; `Hash` maps a key to a 64-bit hash. The table is sized
/// once, at twice the expected key count (rounded up to a power of two), so
/// it stays at most half full while the caller inserts no more keys than it
/// said it would.
template <typename Key, typename Hash>
class DedupSet {
 public:
  explicit DedupSet(std::size_t expected_keys)
      : slots_(std::bit_ceil(std::max<std::size_t>(16, 2 * expected_keys))),
        capacity_(expected_keys) {}

  /// Inserts `key`; false when it was already present.
  bool insert(const Key& key) {
    assert(!(key == Key{}));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == Key{}) {
        assert(size_ < capacity_);
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  std::vector<Key> slots_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

}  // namespace spal::net
