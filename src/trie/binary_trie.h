// Plain one-bit-at-a-time binary trie, one class template over the address
// type (IPv4 and IPv6 share every line).
//
// This is the library's correctness oracle: the simplest possible LPM
// structure, supporting incremental insert/remove (used by the update tests)
// as well as the immutable LpmIndex interface (IPv4). It is also the "no
// compression" reference point the other tries are judged against, and the
// storage yardstick for the Sec. 6 IPv6 extension (the paper argues SPAL's
// SRAM reduction grows under IPv6 because tries get several times larger).
#pragma once

#include <cstdint>
#include <vector>

#include "net/prefix6.h"
#include "trie/lpm.h"

namespace spal::trie {

template <typename Addr>
class BasicBinaryTrie final : public LpmBase<Addr> {
 public:
  using Prefix = typename net::AddrFamily<Addr>::Prefix;
  using RouteTable = typename net::AddrFamily<Addr>::RouteTable;

  BasicBinaryTrie();
  explicit BasicBinaryTrie(const RouteTable& table);

  /// Inserts or replaces `prefix`.
  void insert(const Prefix& prefix, net::NextHop next_hop);

  /// Removes `prefix` exactly; returns true if it was present. Handles the
  /// root/default route (length 0) like any other prefix. (Nodes are not
  /// reclaimed; the empty chain left behind costs 12 bytes a node and never
  /// changes lookup results.)
  bool remove(const Prefix& prefix);

  bool supports_incremental_update() const { return true; }

  net::NextHop lookup(Addr addr) const;
  net::NextHop lookup_counted(Addr addr, MemAccessCounter& counter) const;
  /// Two 4-byte child pointers + 4-byte next hop per node.
  std::size_t storage_bytes() const { return nodes_.size() * 12; }
  std::string_view name() const { return "binary"; }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    net::NextHop next_hop = net::kNoRoute;
  };

  template <bool kCounted>
  net::NextHop lookup_impl(Addr addr, MemAccessCounter* counter) const;

  std::vector<Node> nodes_;  // nodes_[0] is the root
};

extern template class BasicBinaryTrie<net::Ipv4Addr>;
extern template class BasicBinaryTrie<net::Ipv6Addr>;
using BinaryTrie = BasicBinaryTrie<net::Ipv4Addr>;
using BinaryTrie6 = BasicBinaryTrie<net::Ipv6Addr>;

}  // namespace spal::trie
