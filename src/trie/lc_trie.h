// LC-trie (level-compressed trie), after Nilsson & Karlsson, "IP-Address
// Lookup Using LC-Tries", IEEE JSAC 1999. One class template over the
// address type: LcTrie (IPv4) and LcTrie6 (IPv6, the structure behind the
// paper's Sec. 2.1 remark that software tries are "applicable to 128-bit
// IPv6 prefixes" but pay "far longer lookup times and bigger storage").
//
// The prefix set is split into a *base vector* (prefixes that are not proper
// prefixes of any other) and a *prefix vector* of internal prefixes chained
// from the base entries that they cover. A path- and level-compressed trie
// is built over the base vector: each node either branches on 2^branch bits
// (after skipping `skip` bits) or is a leaf naming a base entry. The branch
// factor is grown greedily while the fraction of non-empty children stays
// above the fill factor; empty children are filled with a neighbouring leaf
// and rejected by the explicit comparison search performs at the leaf — the
// paper's Sec. 2.1 notes exactly this "explicit comparison" step.
//
// The SPAL paper evaluates the LC-trie with fill factor 0.25 (Sec. 4).
//
// Host layout: trie nodes are packed into the 4-byte word the JSAC paper's
// storage model describes (5-bit branch, 7-bit skip, 20-bit adr), so 16
// nodes share a cache line and storage_bytes() reports actual host memory.
// Base entries are 12 bytes (IPv4) or 24 bytes (IPv6: 16-byte string +
// length + next hop + chain pointer); internal entries are 8 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/prefix6.h"
#include "trie/lpm.h"

namespace spal::trie {

namespace lc_detail {

/// Packed 4-byte LC-trie node: branch in the top 5 bits, skip in the next
/// 7, adr (children start, or base-vector index for leaves) in the low 20.
/// branch == 0 marks a leaf. The reachable value ranges fit: branch <= 31
/// (bounded by the address width minus one consumed bit, and by the
/// IPv6 branch cap), skip <= 127.
/// Structures outgrowing the 20-bit adr (~1.05M nodes or base entries, i.e.
/// internet-scale tables) are size-selected onto WideNode instead.
struct PackedNode {
  static constexpr std::uint32_t kAdrBits = 20;
  static constexpr std::uint32_t kAdrMask = (1u << kAdrBits) - 1;
  static constexpr std::uint32_t kSkipBits = 7;

  std::uint32_t word = 0;

  static PackedNode make(std::uint32_t branch, std::uint32_t skip,
                         std::uint32_t adr) {
    return PackedNode{(branch << (kAdrBits + kSkipBits)) | (skip << kAdrBits) |
                      adr};
  }
  std::uint32_t branch() const { return word >> (kAdrBits + kSkipBits); }
  std::uint32_t skip() const { return (word >> kAdrBits) & ((1u << kSkipBits) - 1); }
  std::uint32_t adr() const { return word & kAdrMask; }
};

/// 8-byte node with a full 32-bit adr: the build-time staging type, and the
/// lookup layout when the structure exceeds PackedNode's 20-bit adr. Same
/// accessor surface as PackedNode so the walk code is shared by template.
struct WideNode {
  std::uint32_t adr_ = 0;
  std::uint8_t branch_ = 0;
  std::uint8_t skip_ = 0;

  static WideNode make(std::uint32_t branch, std::uint32_t skip,
                       std::uint32_t adr) {
    return WideNode{adr, static_cast<std::uint8_t>(branch),
                    static_cast<std::uint8_t>(skip)};
  }
  std::uint32_t branch() const { return branch_; }
  std::uint32_t skip() const { return skip_; }
  std::uint32_t adr() const { return adr_; }
};

/// Arena indexes for counted-lookup attribution; must match the order the
/// LC tries' arenas() list their spans.
enum LcArena : std::size_t {
  kArenaNodes = 0,
  kArenaBase = 1,
  kArenaPre = 2,
};

}  // namespace lc_detail

template <typename Addr>
class BasicLcTrie final : public LpmBase<Addr> {
 public:
  using RouteTable = typename net::AddrFamily<Addr>::RouteTable;

  /// `max_branch` caps level compression. The cap is applied per address
  /// type: IPv4 caps only the root's branch at `max_branch`; IPv6 caps every
  /// node at min(max_branch, 20). `packed_limit` is the largest adr value the
  /// packed 4-byte layout may hold; structures whose node or base count
  /// exceeds it keep the 8-byte wide layout instead. The default is the
  /// format's real 20-bit ceiling — tests lower it to exercise the wide path
  /// without million-node builds.
  explicit BasicLcTrie(const RouteTable& table, double fill_factor = 0.25,
                       int max_branch = 16,
                       std::size_t packed_limit = lc_detail::PackedNode::kAdrMask);

  net::NextHop lookup(Addr addr) const;
  /// Results are bit-identical to the scalar path; a batched pipeline
  /// hides one key's dependent misses behind the others'.
  void lookup_batch(const Addr* keys, std::size_t n, net::NextHop* out) const;
  net::NextHop lookup_counted(Addr addr, MemAccessCounter& counter) const;
  std::size_t storage_bytes() const;
  /// Arena order matches lc_detail::LcArena.
  std::vector<ArenaSpan> arenas() const;
  std::string_view name() const { return "lc"; }

  std::size_t node_count() const {
    return wide_nodes_.empty() ? nodes_.size() : wide_nodes_.size();
  }
  std::size_t base_count() const { return base_.size(); }
  std::size_t internal_count() const { return pre_.size(); }
  /// True when the structure outgrew the packed 20-bit adr and uses the
  /// 8-byte wide node layout.
  bool wide_layout() const { return !wide_nodes_.empty(); }

 private:
  static constexpr bool kIpv4 = std::is_same_v<Addr, net::Ipv4Addr>;
  static constexpr std::size_t kBaseEntryBytes = kIpv4 ? 12 : 24;

  using Node = lc_detail::PackedNode;
  using WideNode = lc_detail::WideNode;
  struct BaseEntry {
    Addr bits;
    std::uint8_t len = 0;
    net::NextHop next_hop = net::kNoRoute;
    std::int32_t pre = -1;  ///< chain of covering internal prefixes
  };
  struct PreEntry {
    std::uint8_t len = 0;
    net::NextHop next_hop = net::kNoRoute;
    std::int32_t pre = -1;
  };

  /// Builds the trie into wide staging nodes: the root's children are
  /// partitioned into per-pattern subtrees built independently (over the
  /// sweep pool for large tables), then spliced into one exactly pre-sized
  /// array in DFS order — bit-for-bit the array the sequential recursion
  /// produces, because the recursion appends each child's whole subtree
  /// before its next sibling's.
  void build_nodes(std::vector<WideNode>& out) const;
  /// Appends the subtree over base_[first, first+n) with its root at
  /// out[node_index] (sequential recursion, shared by every build path).
  void build_at(std::vector<WideNode>& out, std::size_t node_index,
                std::size_t first, std::size_t n, int pos) const;
  int compute_branch(std::size_t first, std::size_t n, int pos, int* skip_out) const;
  /// The base entry an empty child slot points at: the sorted neighbour of
  /// insertion point p in base_[first, first+n) sharing the longest prefix
  /// with the slot's path (`pattern` at bits [fixed, fixed+branch)).
  std::size_t empty_slot_neighbour(std::size_t first, std::size_t n,
                                   std::size_t p, int fixed, int branch,
                                   std::uint32_t pattern) const;

  /// Below this many keys lookup_batch uses the plain scalar loop (pipeline
  /// setup cost exceeds the overlap win; see BENCH_lpm.json small batches).
  static constexpr std::size_t kMinWaveWidth = 8;

  // Dispatch-level kernels (trie/simd_dispatch.h). There is no SSE4.2 tier:
  // the LC walk has no rank computation for POPCNT to accelerate, so the
  // sse42 level runs the generic pipeline. The AVX2 kernels
  // (lc_trie_simd.cpp; generic-calling stubs off x86) run the node walk and
  // base comparison as gather waves over the packed layout — 8 lanes of
  // 32-bit keys for IPv4, 4 lanes of 128-bit keys for IPv6; the wide layout
  // always takes the generic pipeline.
  void lookup_batch_generic(const Addr* keys, std::size_t n,
                            net::NextHop* out) const;
  template <typename NodeT>
  void lookup_batch_pipeline(const NodeT* nodes, const Addr* keys,
                             std::size_t n, net::NextHop* out) const;
  void lookup_batch_avx2(const Addr* keys, std::size_t n,
                         net::NextHop* out) const;

  template <bool kCounted, typename NodeT>
  net::NextHop lookup_impl(const NodeT* nodes, Addr addr,
                           MemAccessCounter* counter) const;

  double fill_factor_;
  int max_branch_;
  std::vector<Node> nodes_;           // packed layout (empty when wide)
  std::vector<WideNode> wide_nodes_;  // wide layout (empty when packed)
  std::vector<BaseEntry> base_;
  std::vector<PreEntry> pre_;
};

// The AVX2 kernels are per-address-type specializations (lc_trie_simd.cpp).
template <>
void BasicLcTrie<net::Ipv4Addr>::lookup_batch_avx2(const net::Ipv4Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const;
template <>
void BasicLcTrie<net::Ipv6Addr>::lookup_batch_avx2(const net::Ipv6Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const;

extern template class BasicLcTrie<net::Ipv4Addr>;
extern template class BasicLcTrie<net::Ipv6Addr>;
using LcTrie = BasicLcTrie<net::Ipv4Addr>;
using LcTrie6 = BasicLcTrie<net::Ipv6Addr>;

}  // namespace spal::trie
