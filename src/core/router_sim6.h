// The IPv6 SPAL router — the end-to-end form of the paper's Sec. 6 claim
// that SPAL "is feasibly applicable to IPv6". Identical lookup flow to the
// IPv4 router (basic_router_sim.h): 128-bit destinations, RotPartition6
// fragmentation, BasicLrCache<Ipv6Addr> LR-caches, DpTrie6 FEs and a
// BinaryTrie6 oracle. The tries are the IPv4 router's own: one class
// template per structure (BasicDpTrie, BasicBinaryTrie), instantiated on
// Ipv6Addr.
//
// Configuration notes vs. the IPv4 router:
//   * `config.trie` / `config.trie_options` are ignored — the v6 FE is
//     always the path-compressed DP trie; `fe_service_cycles` still sets
//     the FE's abstract service time.
//   * `config.partition_config` is ignored — control bits are selected by
//     the Sec. 3.1 criteria over bits 0..63.
//   * `config.fault` / `config.recovery` work identically to IPv4: the
//     timeout/retry/degraded machinery lives in the shared core, and the
//     degraded slow path resolves against the full-table BinaryTrie6.
#pragma once

#include "core/basic_router_sim.h"
#include "net/prefix6.h"
#include "partition/partition6.h"
#include "trace/trace_gen6.h"
#include "trie/binary_trie.h"
#include "trie/dp_trie.h"

namespace spal::core {

/// IPv6 family policy for BasicRouterSim.
struct V6Family {
  using Addr = net::Ipv6Addr;
  using Table = net::RouteTable6;
  using Partition = partition::RotPartition6;
  using Fe = trie::DpTrie6;
  using Oracle = trie::BinaryTrie6;

  static Partition make_partition(const Table& table, int num_lcs,
                                  const RouterConfig& config) {
    return Partition(table, num_lcs, config.partition6_config);
  }
  static Fe build_fe(const Table& table, const RouterConfig& config) {
    (void)config;
    return Fe(table);
  }
  static net::NextHop fe_lookup(const Fe& fe, const Addr& addr) {
    return fe.lookup(addr);
  }
  static void fe_lookup_batch(const Fe& fe, const Addr* keys, std::size_t n,
                              net::NextHop* out) {
    // The v6 FE (DP-style trie) has no interleaved pipeline yet; the batch
    // contract (out[i] == lookup(keys[i])) is met by the scalar loop.
    for (std::size_t i = 0; i < n; ++i) out[i] = fe.lookup(keys[i]);
  }
  static std::size_t fe_storage(const Fe& fe) { return fe.storage_bytes(); }
  // Memory-tier cost model hooks (see V4Family).
  static std::vector<trie::ArenaSpan> fe_arenas(const Fe& fe) {
    return fe.arenas();
  }
  static net::NextHop fe_lookup_counted(const Fe& fe, const Addr& addr,
                                        trie::MemAccessCounter& counter) {
    return fe.lookup_counted(addr, counter);
  }
  static Oracle build_oracle(const Table& table) { return Oracle(table); }
  static net::NextHop oracle_lookup(const Oracle& oracle, const Addr& addr) {
    return oracle.lookup(addr);
  }
  static std::uint64_t hash_bits(const Addr& addr) {
    return addr.hi() * 0x9e3779b97f4a7c15ULL ^ addr.lo();
  }

  // Live route-update pipeline:
  using Update = net::TableUpdate6;
  static std::vector<Update> make_updates(const Table& table,
                                          const net::UpdateStreamConfig& config) {
    return net::generate_update_stream6(table, config);
  }
  static bool fe_supports_update(const Fe& fe) {
    (void)fe;
    return true;  // the DP-style v6 trie always updates in place
  }
  static void fe_insert(Fe& fe, const net::Prefix6& prefix, net::NextHop hop) {
    fe.insert(prefix, hop);
  }
  static void fe_remove(Fe& fe, const net::Prefix6& prefix) { fe.remove(prefix); }
};

class RouterSim6 {
 public:
  RouterSim6(const net::RouteTable6& table, const RouterConfig& config)
      : impl_(table, config) {}

  RouterResult run(const std::vector<std::vector<net::Ipv6Addr>>& streams,
                   bool verify = false) {
    return impl_.run(streams, verify);
  }

  RouterResult run_workload(const trace::WorkloadProfile& profile,
                            bool verify = false) {
    const trace::TraceGenerator6 generator(profile, impl_.table());
    std::vector<std::vector<net::Ipv6Addr>> streams;
    const int num_lcs = impl_.config().num_lcs;
    streams.reserve(static_cast<std::size_t>(num_lcs));
    for (int lc = 0; lc < num_lcs; ++lc) {
      streams.push_back(generator.generate(lc, impl_.config().packets_per_lc));
    }
    return impl_.run(streams, verify);
  }

  const RouterConfig& config() const { return impl_.config(); }
  /// How many shards (worker threads) run() would use; see BasicRouterSim.
  int planned_shards(bool verify = false) const {
    return impl_.planned_shards(verify);
  }
  const partition::RotPartition6& rot() const { return impl_.partition(); }
  std::vector<std::size_t> trie_storage_bytes() const {
    return impl_.fe_storage_bytes();
  }

 private:
  BasicRouterSim<V6Family> impl_;
};

}  // namespace spal::core
