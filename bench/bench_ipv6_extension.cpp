// Sec. 6 / Sec. 4 extension bench: SPAL under IPv6.
//
// The paper claims (a) "SPAL is feasibly applicable to IPv6" and (b) the
// per-LC SRAM reduction from partitioning is much larger under IPv6. This
// bench fragments a synthetic global-unicast IPv6 table for ψ ∈ {4, 16},
// prints the chosen 128-bit-space control bits, per-partition sizes, and
// the per-LC binary-trie storage before/after, next to the IPv4 RT_1
// numbers for the same ψ.
#include <numeric>

#include "bench_util.h"
#include "core/router_sim6.h"
#include "net/prefix6.h"
#include "partition/rot_partition.h"
#include "trie/binary_trie.h"

using namespace spal;

namespace {

void report_v6(const net::RouteTable6& table, int psi) {
  const partition::RotPartition6 rot(table, psi);
  const trie::BinaryTrie6 whole(table);
  std::size_t biggest = 0;
  for (int lc = 0; lc < psi; ++lc) {
    biggest = std::max(biggest, trie::BinaryTrie6(rot.table_of(lc)).storage_bytes());
  }
  const auto sizes = rot.partition_sizes();
  const std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  std::printf("ipv6,psi=%d,prefixes=%zu,bits=", psi, table.size());
  for (std::size_t i = 0; i < rot.control_bits().size(); ++i) {
    std::printf("%s%d", i ? "|" : "", rot.control_bits()[i]);
  }
  std::printf(",replication=%.4f,whole_kb=%zu,per_lc_kb=%zu,saving_kb=%zu\n",
              static_cast<double>(total) / static_cast<double>(table.size()),
              whole.storage_bytes() / 1024, biggest / 1024,
              (whole.storage_bytes() - biggest) / 1024);
}

void report_v4(const net::RouteTable& table, int psi) {
  const partition::RotPartition rot(table, psi);
  const auto whole = trie::build_lpm(trie::TrieKind::kBinary, table);
  std::size_t biggest = 0;
  for (int lc = 0; lc < psi; ++lc) {
    biggest = std::max(
        biggest,
        trie::build_lpm(trie::TrieKind::kBinary, rot.table_of(lc))->storage_bytes());
  }
  std::printf("ipv4,psi=%d,prefixes=%zu,whole_kb=%zu,per_lc_kb=%zu,saving_kb=%zu\n",
              psi, table.size(), whole->storage_bytes() / 1024, biggest / 1024,
              (whole->storage_bytes() - biggest) / 1024);
}

}  // namespace

int main() {
  bench::print_header("Sec. 6 extension: SPAL partitioning under IPv6 "
                      "(binary-trie storage, same prefix count as RT_1-scale v4)",
                      "family,psi,metrics");
  net::TableGen6Config config;
  config.size = 41'709;  // match RT_1's prefix count for a fair comparison
  config.seed = 0x6bed;
  const net::RouteTable6 v6 = net::generate_table6(config);
  report_v4(bench::rt1(), 4);
  report_v6(v6, 4);
  report_v4(bench::rt1(), 16);
  report_v6(v6, 16);
  std::printf("# paper Sec. 4: \"the reduction amount will be much larger under IPv6\"\n");

  // End-to-end: the Fig. 6 sweep under IPv6 (binary-trie FEs; the longer
  // v6 walk costs ~62 cycles, the paper's DP-trie service band).
  std::printf("# Fig. 6 analogue under IPv6 (beta=4K, gamma=50%%, 62-cycle FE)\n");
  std::printf("trace,psi,mean_cycles,hit_rate\n");
  const trace::WorkloadProfile profile = trace::profile_d81();
  for (const int psi : {1, 2, 4, 8, 16}) {
    core::RouterConfig router_config = core::spal_default_config(psi);
    router_config.packets_per_lc = 50'000;
    router_config.fe_service_cycles = 62;
    core::RouterSim6 router(v6, router_config);
    const auto result = router.run_workload(profile);
    std::printf("%s,%d,%.3f,%.4f\n", profile.name.c_str(), psi,
                result.mean_lookup_cycles(), result.cache_total.hit_rate());
  }
  return 0;
}
