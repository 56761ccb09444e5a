// Address-family-generic SPAL router simulation.
//
// The full Sec. 3.3 lookup flow (see router_sim.h for the narrative) is
// independent of the address family: it needs a partition (home-LC mapping
// + per-LC tables), a forwarding-engine index per LC, an LR-cache keyed by
// addresses, and the fabric/event machinery. This template captures that
// flow once; RouterSim (IPv4, router_sim.h) and RouterSim6 (IPv6,
// router_sim6.h) are its two instantiations. The routing table, partition,
// trace generator and update types follow from the address type; a Family
// policy supplies the forwarding engine and the family-specific hooks:
//
//   struct Family {
//     using Addr;                     // packet destination type
//     using Fe;                       // built LPM index
//     using Oracle;                   // full-table reference index
//     static Fe build_fe(const Table&, const RouterConfig&);
//     static net::NextHop fe_lookup(const Fe&, const Addr&);
//     static void fe_lookup_batch(const Fe&, const Addr*, std::size_t n,
//                                 net::NextHop*);  // bit-identical to scalar
//     static std::size_t fe_storage(const Fe&);
//     // Memory-tier cost model (core/memory_model.h):
//     static std::vector<trie::ArenaSpan> fe_arenas(const Fe&);
//     static net::NextHop fe_lookup_counted(const Fe&, const Addr&,
//                                           trie::MemAccessCounter&);
//     static Oracle build_oracle(const Table&);
//     static net::NextHop oracle_lookup(const Oracle&, const Addr&);
//     static std::uint64_t hash_bits(const Addr&);       // waiting-list key
//     // Live route-update pipeline:
//     static std::vector<Update> make_updates(const Table&,
//                                             const net::UpdateStreamConfig&);
//     static bool fe_supports_update(const Fe&);
//     static void fe_insert(Fe&, const Prefix&, net::NextHop);
//     static void fe_remove(Fe&, const Prefix&);
//   };
//
// Execution model — sharded conservative-parallel DES.
//
// The LCs are split into contiguous shards; each shard owns the event
// queue, waiting lists, pending-request table, caches, FEs, and fabric
// ports of its LCs, and one worker thread runs each shard's loop. Fabric
// messages are the only cross-shard traffic. A send happens in two fabric
// phases: the *egress* phase runs at the source shard (which owns the
// source port's serialization state and fault RNG) and yields a raw arrival
// time >= now + D where D = Fabric::min_lookahead(); the message is then
// staged, locally or through a bounded SPSC ring to the destination shard,
// and the *ingress commit* phase (destination-port serialization) runs at
// the destination shard when the message is pulled out of staging.
//
// Correctness rests on the frontier/lookahead protocol:
//
//   * Each shard publishes a frontier F_i (release store): a lower bound on
//     the injection time of anything it will ever send again. Handlers run
//     at times >= the published value, and every egress at time t yields
//     raw arrival >= t + D, so a peer that has read F_i can safely process
//     all events strictly below F_i + D.
//   * A shard's safe horizon is S = min over peers of F_j + D. Each
//     iteration it (1) reads peer frontiers (acquire), (2) drains its
//     inbound rings, (3) computes its next local work time, (4) publishes
//     min(next work, S), then processes events strictly below S. The
//     read-frontiers-THEN-drain order is load-bearing: the acquire read
//     synchronizes with the sender's publish, so any message still
//     undrained after step (2) was sent after that publish and carries
//     raw >= F_j_read + D >= S. Nothing below S can still be in flight.
//   * Within a window the shard republishes its next pop time before each
//     dispatch, so sends made *during* a handler at time t are covered
//     (raw >= t + D >= published + D).
//   * Idle shards publish their safe horizon (never "infinity"), which
//     ratchets peer horizons forward by D per round and guarantees global
//     progress; termination uses a central veto barrier (TerminationGate)
//     that re-checks queues and rings after all shards report idle. Shards
//     parked in the barrier keep processing raced-in work below their safe
//     horizon from the poll callback — merely holding it would pin their
//     frontier and deadlock a busy peer whose next event sits at
//     frontier + D (the peer then never idles, never joins the barrier).
//     Poll-side processing before the shard's own recheck additionally
//     vetoes the round via a raced_work flag: a handler can send
//     cross-shard yet leave no local trace, so queue/staging emptiness at
//     recheck time alone would let the gate drop the in-flight message.
//   * The D-per-round ratchet alone is pathological when events are sparse
//     (e.g. live updates spaced thousands of cycles apart on one shard):
//     idle shards bound each other and creep toward the next event in
//     O(gap/D) rounds. A Mattern-style flux-consistent jump fixes this:
//     every shard also publishes its *uncapped* next local event time
//     (local_next), and global counters track messages sent to / drained
//     from the SPSC rings. A stalled shard that observes sent == drained,
//     scans all local_next values, and re-reads sent unchanged has a
//     consistent snapshot with no message in flight; the scan minimum T is
//     then a true bound on the next action anywhere, every future arrival
//     is >= T + D, and the shard may adopt T + D as its safe horizon
//     directly — leaping the stale-frontier chain in one round. (Drains
//     lower local_next *before* bumping the drained counter, so a scan
//     that sees the count also sees the lowered minimum.)
//
// Determinism: messages are committed at the destination in a canonical
// order — a min-heap on (raw arrival, origin LC, per-origin sequence) —
// and committed *before* any queue event at the same or later time. The
// sequential engine (execution = kSequential, or any configuration the
// sharded engine does not support — see planned_shards()) is exactly this
// machinery run solo on a single all-LC shard, so RouterResult::to_json()
// is byte-identical between the two engines for every configuration.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/basic_lr_cache.h"
#include "core/health_tracker.h"
#include "core/router_config.h"
#include "fabric/fabric.h"
#include "net/update_stream.h"
#include "partition/rot_partition.h"
#include "sim/lane_queue.h"
#include "sim/packet_source.h"
#include "sim/shard_sync.h"
#include "sim/spsc_ring.h"
#include "trace/trace_gen.h"

namespace spal::core {

template <typename Family>
class BasicRouterSim {
 public:
  using Addr = typename Family::Addr;
  using Table = net::BasicRouteTable<Addr>;
  using Partition = partition::BasicRotPartition<Addr>;
  using Update = net::BasicTableUpdate<Addr>;
  using Cache = cache::BasicLrCache<Addr>;

  /// Builds the router: fragments `table` (if configured), builds one trie
  /// per LC over its forwarding table, and instantiates LR-caches/fabric.
  BasicRouterSim(const Table& table, const RouterConfig& config)
      : config_(config), full_table_(table) {
    if (config.num_lcs < 1) {
      throw std::invalid_argument("RouterSim: num_lcs must be >= 1");
    }
    // Fragment the table (an unpartitioned router keeps the full table in
    // every LC, modelled as a single-partition fragmentation).
    rot_ = std::make_unique<Partition>(
        table, config_.partition ? config_.num_lcs : 1, config_.partition_config);
    fes_.reserve(static_cast<std::size_t>(config_.num_lcs));
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      const Table& fwd = config_.partition ? rot_->table_of(lc) : full_table_;
      fes_.push_back(Family::build_fe(fwd, config_));
    }
    if (config_.use_lr_cache) {
      caches_.reserve(static_cast<std::size_t>(config_.num_lcs));
      for (int lc = 0; lc < config_.num_lcs; ++lc) {
        cache::LrCacheConfig cache_config = config_.cache;
        cache_config.seed ^= static_cast<std::uint64_t>(lc) * 0x9e3779b97f4a7c15ULL;
        caches_.push_back(std::make_unique<Cache>(cache_config));
      }
    }
    fabric::FabricConfig fabric_config = config_.fabric;
    fabric_config.ports = config_.num_lcs;
    fabric_ = std::make_unique<fabric::Fabric>(fabric_config, config_.fault);
    rebuild_fe_models();
    rebuild_copies();
  }

  /// Runs one simulation over per-LC destination streams (streams.size()
  /// must equal ψ). With `verify`, every resolved next hop is checked
  /// against the full-table oracle and mismatches are counted.
  RouterResult run(const std::vector<std::vector<Addr>>& streams,
                   bool verify = false) {
    if (streams.size() != static_cast<std::size_t>(config_.num_lcs)) {
      throw std::invalid_argument("RouterSim::run: one stream per LC required");
    }
    // Reset run state: every run starts from a cold router.
    result_ = RouterResult();
    result_.per_lc_latency.assign(static_cast<std::size_t>(config_.num_lcs),
                                  sim::LatencyStats{});
    result_.per_lc.assign(static_cast<std::size_t>(config_.num_lcs), LcStats{});
    result_.remote_fanout.assign(
        static_cast<std::size_t>(config_.num_lcs) *
            static_cast<std::size_t>(config_.num_lcs),
        0);
    waiting_depth_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    // Assign global packet ids LC-major and generate each LC's arrival
    // times straight into its slice of arrival_time_: the shard queues read
    // those slices in place as lanes, so no arrival is queued up front.
    std::size_t total_packets = 0;
    for (const auto& stream : streams) total_packets += stream.size();
    arrival_time_.resize(total_packets);
    arrival_lc_.resize(total_packets);
    resolved_.assign(total_packets, 0);
    destinations_.clear();
    destinations_.reserve(total_packets);
    first_packet_.resize(static_cast<std::size_t>(config_.num_lcs));
    std::uint64_t arrival_horizon = 0;
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      const auto& stream = streams[static_cast<std::size_t>(lc)];
      const std::size_t first = destinations_.size();
      first_packet_[static_cast<std::size_t>(lc)] = first;
      const std::span<std::uint64_t> times(arrival_time_.data() + first,
                                           stream.size());
      sim::fill_arrival_times(
          config_.line_rate_gbps, times,
          config_.seed ^ (0xabcdef12345ULL + static_cast<std::uint64_t>(lc)));
      if (!times.empty()) {
        arrival_horizon = std::max(arrival_horizon, times.back());
      }
      std::fill_n(arrival_lc_.begin() + static_cast<std::ptrdiff_t>(first),
                  stream.size(), lc);
      destinations_.insert(destinations_.end(), stream.begin(), stream.end());
    }
    // Live route-update pipeline: how many updates this run injects.
    const bool live_updates = config_.update.interval_cycles != 0;
    std::size_t update_count = 0;
    if (live_updates) {
      update_count = config_.update.count;
      if (update_count == 0) {
        update_count = static_cast<std::size_t>(arrival_horizon /
                                                config_.update.interval_cycles);
      }
    }
    verify_ = verify;
    timeout_base_ = config_.recovery.timeout_cycles;
    if (timeout_base_ == 0) {
      // Auto: a lightly loaded remote round trip (two fabric traversals plus
      // one FE service) with 16x slack for queueing. A too-small timeout is
      // safe — spurious retransmits are absorbed by duplicate suppression —
      // but wastes fabric messages.
      timeout_base_ = 16 * (2 * fabric_->min_lookahead() +
                            static_cast<std::uint64_t>(std::max(
                                1, config_.fe_service_cycles)));
    }
    probe_interval_ = config_.replication.probe_interval_cycles != 0
                          ? config_.replication.probe_interval_cycles
                          : timeout_base_;
    if (config_.migration.enabled) {
      if (!config_.partition || config_.num_lcs < 2) {
        throw std::invalid_argument(
            "RouterSim: migration requires a partitioned router with >= 2 LCs");
      }
      if (config_.migration.from < 0 ||
          config_.migration.from >= config_.num_lcs ||
          config_.migration.to < 0 || config_.migration.to >= config_.num_lcs ||
          config_.migration.from == config_.migration.to) {
        throw std::invalid_argument(
            "RouterSim: migration from/to must be distinct valid LCs");
      }
      if (config_.rebalancer.enabled) {
        // Both subsystems drive the same MigrationState machine; an
        // operator transfer racing an autonomous one is undefined.
        throw std::invalid_argument(
            "RouterSim: migration and rebalancer are mutually exclusive");
      }
    }
    if (config_.rebalancer.enabled) {
      if (!config_.partition || config_.num_lcs < 2) {
        throw std::invalid_argument(
            "RouterSim: rebalancer requires a partitioned router with >= 2 "
            "LCs");
      }
      if (config_.rebalancer.window_cycles == 0) {
        throw std::invalid_argument(
            "RouterSim: rebalancer window_cycles must be nonzero");
      }
    }
    // Failover run state: health views, re-home map, resync queues, and the
    // in-flight migration are all per-run (the built replica copies persist
    // across runs like the FEs and are rebuilt when updates dirtied them).
    health_ = HealthTracker(config_.num_lcs, config_.replication.suspect_after,
                            config_.replication.down_after);
    home_remap_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      home_remap_[static_cast<std::size_t>(lc)] = lc;
    }
    stale_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resyncing_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resync_sending_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    missed_updates_.assign(static_cast<std::size_t>(config_.num_lcs), {});
    resync_sent_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resync_head_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    migration_ = MigrationState{};
    hosted_.clear();
    hosted_.resize(static_cast<std::size_t>(config_.num_lcs));
    window_frag_counts_.clear();
    track_outage_ = config_.track_outage_latency && config_.fault.enabled &&
                    !config_.fault.outages.empty();
    outage_spans_.clear();
    if (track_outage_) {
      // Union of every port's outage windows, merged and sorted: the
      // mid-outage latency histogram keys on the packet's arrival time
      // falling inside any of them.
      for (const auto& outage : config_.fault.outages) {
        if (outage.end_cycle <= outage.start_cycle) continue;
        outage_spans_.emplace_back(outage.start_cycle, outage.end_cycle);
      }
      std::sort(outage_spans_.begin(), outage_spans_.end());
      std::size_t merged = 0;
      for (const auto& span : outage_spans_) {
        if (merged != 0 && span.first <= outage_spans_[merged - 1].second) {
          outage_spans_[merged - 1].second =
              std::max(outage_spans_[merged - 1].second, span.second);
        } else {
          outage_spans_[merged++] = span;
        }
      }
      outage_spans_.resize(merged);
      track_outage_ = !outage_spans_.empty();
    }
    per_lc_outage_latency_.assign(
        track_outage_ ? static_cast<std::size_t>(config_.num_lcs) : 0,
        sim::LatencyStats{});
    result_.fault.per_lc_outage_cycles.assign(
        static_cast<std::size_t>(config_.num_lcs), 0);
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      result_.fault.per_lc_outage_cycles[static_cast<std::size_t>(lc)] =
          config_.fault.outage_cycles(lc);
    }
    for (const auto& c : caches_) c->reset();
    fabric_->reset();
    cache_port_free_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    fe_free_.assign(static_cast<std::size_t>(config_.num_lcs),
                    std::vector<std::uint64_t>(
                        static_cast<std::size_t>(std::max(1, config_.fe_parallelism)), 0));
    fe_busy_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    next_flush_ = config_.flush_interval_cycles;
    update_rng_.seed(config_.seed ^ 0x0badf00dULL);
    request_seq_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    send_seq_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    // A prior run's live updates mutated the FEs / fragments / oracle:
    // rebuild them so every run starts from the configured table.
    if (fes_dirty_) {
      fes_.clear();
      for (int lc = 0; lc < config_.num_lcs; ++lc) {
        const Table& fwd = config_.partition ? rot_->table_of(lc) : full_table_;
        fes_.push_back(Family::build_fe(fwd, config_));
      }
      lc_tables_.clear();
      fes_dirty_ = false;
      rebuild_fe_models();
    }
    if (copies_dirty_) {
      // A prior run's updates mutated the replica copies too; re-derive
      // them from the (freshly rebuilt) fragments.
      rebuild_copies();
      copies_dirty_ = false;
    }
    if (oracle_dirty_) {
      oracle_.reset();
      oracle_dirty_ = false;
    }
    if ((verify_ || faults_active()) && oracle_ == nullptr) {
      // Verify mode reads it per packet; fault mode's degraded slow path
      // may need it at any shard. Building it eagerly here (instead of
      // lazily on the first degraded fallback) keeps the handlers free of
      // shared-state construction.
      oracle_ = std::make_unique<typename Family::Oracle>(
          Family::build_oracle(full_table_));
    }
    updates_.clear();
    update_inject_time_.clear();
    update_settle_time_.clear();
    update_outstanding_.reset();
    update_settle_max_.reset();
    if (live_updates && update_count > 0) {
      net::UpdateStreamConfig stream_config;
      stream_config.count = update_count;
      stream_config.seed = config_.update.seed;
      stream_config.announce_fraction = config_.update.announce_fraction;
      stream_config.withdraw_fraction = config_.update.withdraw_fraction;
      stream_config.next_hops = config_.update.next_hops;
      updates_ = Family::make_updates(full_table_, stream_config);
      update_inject_time_.resize(updates_.size());
      for (std::size_t i = 0; i < updates_.size(); ++i) {
        update_inject_time_[i] = (static_cast<std::uint64_t>(i) + 1) *
                                 config_.update.interval_cycles;
      }
      update_settle_time_.assign(updates_.size(), kSettlePending);
      // make_unique<T[]> value-initializes: counters start at zero.
      update_outstanding_ =
          std::make_unique<std::atomic<std::uint32_t>[]>(updates_.size());
      update_settle_max_ =
          std::make_unique<std::atomic<std::uint64_t>[]>(updates_.size());
      if (lc_tables_.empty()) {
        lc_tables_.reserve(static_cast<std::size_t>(config_.num_lcs));
        for (int lc = 0; lc < config_.num_lcs; ++lc) {
          lc_tables_.push_back(config_.partition ? rot_->table_of(lc)
                                                 : full_table_);
        }
      }
    }
    // The run ahead will mutate FEs/fragments (every injected update is
    // applied) and the oracle if present; flag them for the next run now so
    // the handlers never touch the flags from worker threads.
    fes_dirty_ = !updates_.empty();
    copies_dirty_ = !updates_.empty() && replication_active();
    oracle_dirty_ = !updates_.empty() && oracle_ != nullptr;

    // Build the shards and hand each its pre-scheduled lanes. Lane order
    // per shard is the sequential engine's order restricted to that shard
    // (updates, migration start, arrivals LC-major, rebalancer ticks), so
    // equal-time tie-breaks agree between the engines.
    shard_count_ = planned_shards(verify);
    lookahead_ = fabric_->min_lookahead();
    msgs_sent_.store(0, std::memory_order_relaxed);
    msgs_drained_.store(0, std::memory_order_relaxed);
    shards_.clear();
    shards_.reserve(static_cast<std::size_t>(shard_count_));
    for (int s = 0; s < shard_count_; ++s) {
      shards_.push_back(std::make_unique<Shard>(this));
      Shard& sh = *shards_.back();
      sh.index = s;
      if (shard_count_ > 1) {
        sh.inbound.resize(static_cast<std::size_t>(shard_count_));
        for (int src = 0; src < shard_count_; ++src) {
          if (src == s) continue;
          sh.inbound[static_cast<std::size_t>(src)] =
              std::make_unique<sim::SpscRing<StagedMsg>>(kRingCapacity);
        }
      }
    }
    shard_for_lc(0).queue.add_lane(kUpdateLane, update_inject_time_);
    if (config_.migration.enabled) {
      // Local management-plane event at `from` (forces the solo engine, so
      // shard_for_lc is the only shard): snapshot and start streaming.
      shard_for_lc(config_.migration.from)
          .queue.add_lane(kMigrateLane,
                          std::span(&config_.migration.start_cycle, 1));
    }
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      shard_for_lc(lc).queue.add_lane(
          kFirstArrivalLane + static_cast<std::size_t>(lc),
          std::span(arrival_time_.data() +
                        first_packet_[static_cast<std::size_t>(lc)],
                    streams[static_cast<std::size_t>(lc)].size()));
    }
    rebalance_tick_time_.clear();
    if (config_.rebalancer.enabled) {
      // Per-window offered load per fragment, precomputed from the arrival
      // schedule (the home mapping is static; which LC *serves* a fragment
      // is applied at tick time). Counting here instead of in handle_lookup
      // keeps the hot path untouched and immune to the cache-port gate's
      // event reschedules double-counting an arrival.
      const std::uint64_t win = config_.rebalancer.window_cycles;
      const std::size_t windows =
          static_cast<std::size_t>(arrival_horizon / win) + 1;
      window_frag_counts_.assign(
          windows, std::vector<std::uint64_t>(
                       static_cast<std::size_t>(config_.num_lcs), 0));
      for (std::size_t p = 0; p < destinations_.size(); ++p) {
        const std::size_t w = static_cast<std::size_t>(arrival_time_[p] / win);
        const int frag = rot_->home_of(destinations_[p]);
        ++window_frag_counts_[w][static_cast<std::size_t>(frag)];
      }
      // Finite tick schedule (one per window, management plane at LC 0):
      // a self-rescheduling tick would never let the event queue drain.
      for (std::size_t w = 0; w < windows; ++w) {
        rebalance_tick_time_.push_back(
            (static_cast<std::uint64_t>(w) + 1) * win);
      }
      shard_for_lc(0).queue.add_lane(kTickLane, rebalance_tick_time_);
    }

    if (shard_count_ == 1) {
      run_solo(*shards_.front());
    } else {
      run_sharded();
    }

    // Aggregate per-shard and per-LC statistics. The shard loop runs in
    // index order and the latency merge in LC order in both engines, so the
    // aggregation itself cannot introduce a divergence.
    for (const auto& shp : shards_) {
      const ShardCounters& c = shp->c;
      result_.makespan_cycles = std::max(result_.makespan_cycles, c.makespan);
      result_.fe_lookups += c.fe_lookups;
      result_.remote_requests += c.remote_requests;
      result_.remote_replies += c.remote_replies;
      result_.resolved_packets += c.resolved_packets;
      result_.verify_mismatches += c.verify_mismatches;
      result_.updates_applied += c.updates_applied;
      result_.blocks_invalidated += c.blocks_invalidated;
      result_.fault.timeouts += c.timeouts;
      result_.fault.retransmits += c.retransmits;
      result_.fault.duplicate_replies += c.duplicate_replies;
      result_.fault.degraded_fallbacks += c.degraded_fallbacks;
      result_.fault.degraded_lookups += c.degraded_lookups;
      result_.fault.reclaimed_waiting_blocks += c.reclaimed_waiting_blocks;
      result_.update.applied += c.update.applied;
      result_.update.announces += c.update.announces;
      result_.update.withdraws += c.update.withdraws;
      result_.update.hop_changes += c.update.hop_changes;
      result_.update.applications += c.update.applications;
      result_.update.fe_incremental += c.update.fe_incremental;
      result_.update.fe_rebuilds += c.update.fe_rebuilds;
      result_.update.update_cost_cycles += c.update.update_cost_cycles;
      result_.update.update_messages += c.update.update_messages;
      result_.update.invalidation_messages += c.update.invalidation_messages;
      result_.update.blocks_invalidated += c.update.blocks_invalidated;
      result_.update.cache_flushes += c.update.cache_flushes;
      FailoverStats& fo = result_.failover;
      fo.rerouted_requests += c.fo.rerouted_requests;
      fo.replica_lookups += c.fo.replica_lookups;
      fo.local_replica_serves += c.fo.local_replica_serves;
      fo.probes_sent += c.fo.probes_sent;
      fo.probe_replies_sent += c.fo.probe_replies_sent;
      fo.probe_replies += c.fo.probe_replies;
      fo.suspect_transitions += c.fo.suspect_transitions;
      fo.down_transitions += c.fo.down_transitions;
      fo.recoveries += c.fo.recoveries;
      fo.rejoins += c.fo.rejoins;
      fo.missed_updates += c.fo.missed_updates;
      fo.replica_update_applications += c.fo.replica_update_applications;
      fo.acting_primary_applications += c.fo.acting_primary_applications;
      fo.resync_fetches += c.fo.resync_fetches;
      fo.resync_chunks += c.fo.resync_chunks;
      fo.resync_entries += c.fo.resync_entries;
      fo.resync_cutovers += c.fo.resync_cutovers;
      fo.migrations += c.fo.migrations;
      fo.migration_chunks += c.fo.migration_chunks;
      fo.snapshot_prefixes += c.fo.snapshot_prefixes;
      fo.double_delivered_updates += c.fo.double_delivered_updates;
      fo.cutover_messages += c.fo.cutover_messages;
      fo.migration_invalidated_blocks += c.fo.migration_invalidated_blocks;
      fo.cutovers += c.fo.cutovers;
      fo.control_messages += c.fo.control_messages;
      RebalancerStats& rb = result_.rebalancer;
      rb.windows += c.rb.windows;
      rb.skew_detections += c.rb.skew_detections;
      rb.migrations_triggered += c.rb.migrations_triggered;
      rb.skipped_in_flight += c.rb.skipped_in_flight;
      rb.skipped_no_target += c.rb.skipped_no_target;
      rb.skipped_budget += c.rb.skipped_budget;
      rb.completed_migrations += c.rb.completed_migrations;
      rb.aborted_migrations += c.rb.aborted_migrations;
    }
    result_.failover.enabled = failover_enabled();
    result_.rebalancer.enabled = config_.rebalancer.enabled;
    if (config_.memory.enabled) {
      MemoryStats& mem = result_.memory;
      mem.enabled = true;
      mem.matching_overhead_cycles = config_.memory.matching_overhead_cycles;
      mem.tiers.clear();
      mem.tiers.reserve(config_.memory.tiers.size());
      for (const MemoryTier& tier : config_.memory.tiers) {
        MemoryTierStats stats;
        stats.name = tier.name;
        stats.capacity_bytes = tier.capacity_bytes;
        stats.access_cycles = tier.access_cycles;
        mem.tiers.push_back(std::move(stats));
      }
      for (const auto& shp : shards_) {
        const MemoryCounters& c = shp->c.memory;
        mem.lookups += c.lookups;
        mem.charged_cycles += c.charged_cycles;
        for (std::size_t t = 0; t < mem.tiers.size(); ++t) {
          mem.tiers[t].accesses += c.tier_accesses[t];
          mem.tiers[t].cycles += c.tier_cycles[t];
        }
      }
      mem.matching_cycles =
          mem.lookups *
          static_cast<std::uint64_t>(mem.matching_overhead_cycles);
      // Byte accounting reflects the end-of-run structures (identical to
      // the built ones unless live updates mutated an FE mid-run). Replica
      // copies and hosted fragments (a structure staged for a cutover
      // included) occupy their LC's hierarchy too, packed after the bytes
      // already resident.
      const auto account = [&mem](const MemoryModel& model) {
        mem.storage_bytes += model.placed_bytes();
        for (const ArenaPlacement& placement : model.placements()) {
          mem.tiers[placement.tier].placed_bytes += placement.bytes;
          ++mem.tiers[placement.tier].placed_arenas;
        }
      };
      for (const MemoryModel& model : fe_models_) account(model);
      for (const auto& lc_models : copy_models_) {
        for (const MemoryModel& model : lc_models) account(model);
      }
      for (const auto& lc_hosted : hosted_) {
        for (const HostedFragment& hosted : lc_hosted) {
          if (hosted.model != nullptr) account(*hosted.model);
        }
      }
    }
    // Per-LC latency merges are exact (identical bucket layout), so merging
    // in LC order reproduces the global histogram a direct record() per
    // packet would have produced — and does so engine-independently.
    for (const sim::LatencyStats& lc_latency : result_.per_lc_latency) {
      result_.latency.merge(lc_latency);
    }
    if (track_outage_) {
      result_.outage_latency_tracked = true;
      for (const sim::LatencyStats& lc_latency : per_lc_outage_latency_) {
        result_.outage_latency.merge(lc_latency);
      }
    }
    for (std::size_t lc = 0; lc < caches_.size(); ++lc) {
      result_.per_lc[lc].cache = caches_[lc]->stats();
      result_.cache_total.accumulate(caches_[lc]->stats());
    }
    result_.fabric = fabric_->stats();
    result_.fault.drops = result_.fabric.dropped;
    result_.fault.outage_drops = result_.fabric.outage_dropped;
    result_.fault.jitter_events = result_.fabric.jitter_events;
    result_.fault.jitter_cycles = result_.fabric.jitter_cycles;
    if (result_.makespan_cycles > 0) {
      const double capacity =
          static_cast<double>(result_.makespan_cycles) *
          static_cast<double>(std::max(1, config_.fe_parallelism));
      for (std::size_t lc = 0; lc < fe_busy_.size(); ++lc) {
        const double utilization =
            static_cast<double>(fe_busy_[lc]) / capacity;
        result_.per_lc[lc].fe_busy_cycles = fe_busy_[lc];
        result_.per_lc[lc].fe_utilization = utilization;
        result_.max_fe_utilization =
            std::max(result_.max_fe_utilization, utilization);
      }
    }
    return result_;
  }

  /// Convenience: generates streams from a workload profile and runs.
  /// Streams are drawn from the whole routing table (the union of the
  /// partitions).
  RouterResult run_workload(const trace::WorkloadProfile& profile,
                            bool verify = false) {
    const trace::BasicTraceGenerator<Addr> generator(profile, full_table_);
    std::vector<std::vector<Addr>> streams;
    streams.reserve(static_cast<std::size_t>(config_.num_lcs));
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      streams.push_back(generator.generate(lc, config_.packets_per_lc));
    }
    return run(streams, verify);
  }

  const RouterConfig& config() const { return config_; }
  /// Partition diagnostics (control bits, per-LC table sizes).
  const Partition& rot() const { return *rot_; }
  /// The full (unfragmented) routing table the router was built from.
  const Table& table() const { return full_table_; }

  /// How many shards (worker threads) a run(streams, verify) would use.
  /// kSequential always runs one shard. kSharded silently falls back to one
  /// shard for configurations the parallel engine does not support:
  /// periodic cache flushes (flush_interval_cycles touches every LC's cache
  /// from one event), live fragment migration (router-global re-home map),
  /// live updates combined with verify or fault injection (both read the
  /// oracle concurrently with inject-time mutation), and a fabric with zero
  /// minimum latency (no lookahead, no parallelism).
  int planned_shards(bool verify = false) const {
    if (config_.execution != RouterConfig::ExecutionMode::kSharded) return 1;
    if (config_.flush_interval_cycles != 0) return 1;
    // Live migration mutates router-global state (the re-home map and the
    // staged structure) from management-plane events: solo only. The
    // rebalancer drives the same machinery autonomously.
    if (config_.migration.enabled || config_.rebalancer.enabled) return 1;
    const bool live_updates = config_.update.interval_cycles != 0;
    if (live_updates && (verify || config_.fault.enabled)) return 1;
    if (fabric_->min_lookahead() < 1) return 1;
    int threads = config_.threads;
    if (threads <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::max(1, std::min(threads, config_.num_lcs));
  }

  /// Per-LC forwarding-index storage in bytes.
  std::vector<std::size_t> trie_storage_bytes() const {
    std::vector<std::size_t> sizes;
    sizes.reserve(fes_.size());
    for (const auto& fe : fes_) sizes.push_back(Family::fe_storage(fe));
    return sizes;
  }

  /// Host-side (wall-clock) lookups through one LC's built forwarding
  /// engine: the interleaved batch pipeline in chunks of `batch` keys when
  /// batch > 1, the scalar path otherwise. Results are bit-identical either
  /// way; this does not touch simulation state — the throughput benches use
  /// it to measure real ns/lookup on the per-LC structures.
  void host_fe_lookup(int lc, const Addr* keys, std::size_t n,
                      net::NextHop* out, std::size_t batch) const {
    const auto& fe = fes_[static_cast<std::size_t>(lc)];
    if (batch <= 1) {
      for (std::size_t i = 0; i < n; ++i) out[i] = Family::fe_lookup(fe, keys[i]);
      return;
    }
    for (std::size_t i = 0; i < n; i += batch) {
      Family::fe_lookup_batch(fe, keys + i, std::min(batch, n - i), out + i);
    }
  }

 private:
  static constexpr std::uint64_t kNoTime = ~std::uint64_t{0};
  static constexpr std::size_t kRingCapacity = 1024;

  struct Requester {
    int lc;               ///< LC the requesting packet arrived at
    std::int64_t packet;  ///< global packet id
    /// Set on a remote request when the arrival LC reserved a W=1 block;
    /// the home LC echoes it so the reply knows whether to fill.
    bool fill_on_reply = false;
    /// Request sequence number (fault mode only, 0 otherwise): the home LC
    /// echoes it in every reply so the requester can match replies to its
    /// pending-request table and suppress duplicates from retransmits.
    std::uint64_t seq = 0;
  };

  struct Event {
    enum class Type : std::uint8_t {
      kLookup,
      kFeComplete,
      kReply,
      kTimeout,   ///< remote-request timer (fault mode); requester.seq keys it
      kDegraded,  ///< slow-path completion for one packet (fault mode)
      // Live route-update pipeline (requester.packet carries the update
      // index into updates_; addr is unused):
      kUpdateInject,  ///< control plane emits update i to its home LCs
      kUpdateApply,   ///< update i reaches home LC `lc`: apply to its FE
      kInvalidate,    ///< invalidation for update i reaches LC `lc`'s cache
      kUpdateRelay,   ///< update i forwarded to the LC now serving its
                      ///< fragment (aux) by one a cutover moved it off
      kReplicaUpdate, ///< update i reaches replica holder `lc`: apply to
                      ///< its copy of fragment aux only
      // Failover subsystem (replication/migration; never scheduled when
      // both are off):
      kCopyLookup,    ///< re-routed request served from a replica copy;
                      ///< aux carries the fragment id
      kProbe,         ///< health probe at `lc`; requester.lc = the observer
      kProbeReply,    ///< probe response back at the observer
      kResyncFetch,   ///< rejoining LC asks the acting replica for its
                      ///< missed updates; aux = the stale LC
      kResyncSend,    ///< local pacing tick at the streaming replica
      kResyncChunk,   ///< batch of missed updates at the rejoining LC;
                      ///< aux = entry count
      kMigrateStart,  ///< local event at `from`: snapshot + begin streaming
      kMigrateSend,   ///< local pacing tick at `from`
      kMigrateChunk,  ///< snapshot chunk at `to`; fill flags the final chunk
      kMigrateDelta,  ///< double-delivered in-copy update at `to`
      kMigrateBuilt,  ///< local event at `to`: staged FE build finished
      kMigrateReady,  ///< `to` is ready; at `from`, triggers the cutover
      kCutover,       ///< cutover notice at `lc`: drop re-homed cache blocks
      kRebalanceTick, ///< rebalancer window boundary (management, LC 0)
    };
    Type type;
    int lc;
    Addr addr;
    Requester requester;
    bool fill = false;
    net::NextHop hop = net::kNoRoute;
    /// Failover side-channel: which structure/fragment the event concerns.
    /// On kFeComplete it names the structure the job runs on (kOwnAux, a
    /// replica copy slot or a hosted fragment; see structure_of). Otherwise
    /// -1 (the only value pre-failover events use), a fragment id
    /// (kCopyLookup, kUpdateApply, kMigrateDelta, kCutover, kResyncFetch
    /// target) or a batch size (kResyncChunk, kMigrateChunk).
    std::int32_t aux = -1;
  };

  /// One outstanding remote request (fault mode), keyed by its seq. Retries
  /// reuse the seq: any attempt's reply settles the request, and later
  /// replies for the same seq are counted as duplicates and dropped.
  struct PendingRequest {
    Addr addr;
    Requester requester;  ///< carries the seq and fill_on_reply flag
    int home;             ///< the address's fragment id (pre-remap)
    int target;           ///< LC the current attempt was sent to
    int attempt = 0;      ///< retransmits so far
  };

  /// One failover replica copy resident at a holder LC: a mutable clone of
  /// the fragment (updates keep it fresh) plus its own built FE.
  struct ReplicaCopy {
    int fragment;
    Table table;
    typename Family::Fe fe;
  };

  using TableEntry =
      std::decay_t<decltype(std::declval<const Table&>().entries()[0])>;

  /// State of the (single) in-flight live fragment migration — operator-
  /// initiated (config_.migration, fixed endpoints) or rebalancer-triggered
  /// (endpoints chosen per trigger). Either way the target builds the
  /// staged structure into its hosted_ list, and the state resets at
  /// cutover. Solo-engine only, so plain members suffice.
  struct MigrationState {
    bool active = false;      ///< a transfer has been started
    int frag = -1;            ///< fragment being moved
    int src = -1;             ///< LC currently serving it
    int dst = -1;             ///< LC it is moving to
    bool aborted = false;     ///< target died mid-copy; discarding in flight
    bool copying = false;     ///< snapshot streaming + double-delivery window
    bool fe_ready = false;    ///< staged structure built into hosted_
    bool final_sent = false;  ///< last snapshot chunk left the source
    std::vector<TableEntry> snapshot;    ///< at the source, taken at start
    std::size_t cursor = 0;              ///< next snapshot entry to chunk
    /// In-flight chunk payloads; FIFO with the kMigrateChunk events (one
    /// source port, reliable, non-decreasing inject times).
    std::deque<std::vector<TableEntry>> chunk_queue;
    std::vector<TableEntry> staged_entries;   ///< received at the target
    std::vector<std::size_t> buffered_deltas; ///< double-deliveries pre-build
  };

  /// A fragment a migration re-homes onto this LC, built here when its
  /// snapshot completes and serving from the cutover on. Entries are
  /// append-only for the run — a fragment that moves on leaves its frozen
  /// structure resident (like its origin LC's own FE), and hosted_slot
  /// returns the latest entry for a fragment.
  struct HostedFragment {
    int fragment = -1;
    std::unique_ptr<Table> table;
    std::unique_ptr<typename Family::Fe> fe;
    std::unique_ptr<MemoryModel> model;
  };

  /// A fabric message after its egress phase, parked until the destination
  /// shard commits it. Committed in (raw, origin_lc, origin_seq) order —
  /// origin_seq is a per-source-LC send counter, so the key is unique and
  /// identical in both engines.
  struct StagedMsg {
    std::uint64_t raw = 0;
    std::uint32_t origin_lc = 0;
    std::uint64_t origin_seq = 0;
    Event event{};
  };
  struct StagedAfter {
    bool operator()(const StagedMsg& a, const StagedMsg& b) const {
      if (a.raw != b.raw) return a.raw > b.raw;
      if (a.origin_lc != b.origin_lc) return a.origin_lc > b.origin_lc;
      return a.origin_seq > b.origin_seq;
    }
  };

  // Waiting lists are keyed by the exact (LC, address) pair — the hash
  // comes from Family::hash_bits but equality compares full addresses, so
  // 128-bit families cannot alias two lists.
  struct WaitKey {
    int lc;
    Addr addr;
    bool operator==(const WaitKey&) const = default;
  };
  struct WaitKeyHash {
    std::size_t operator()(const WaitKey& k) const {
      return static_cast<std::size_t>(
          Family::hash_bits(k.addr) ^
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.lc)) *
           0x9e3779b97f4a7c15ULL));
    }
  };

  using WaitMap = std::unordered_map<WaitKey, std::vector<Requester>, WaitKeyHash>;

  /// Counters a handler may bump from any LC of its shard; summed (max for
  /// makespan) into RouterResult after the run in shard-index order.
  struct ShardCounters {
    std::uint64_t makespan = 0;
    std::uint64_t fe_lookups = 0;
    std::uint64_t remote_requests = 0;
    std::uint64_t remote_replies = 0;
    std::uint64_t resolved_packets = 0;
    std::uint64_t verify_mismatches = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t blocks_invalidated = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t duplicate_replies = 0;
    std::uint64_t degraded_fallbacks = 0;
    std::uint64_t degraded_lookups = 0;
    std::uint64_t reclaimed_waiting_blocks = 0;
    UpdateStats update;
    MemoryCounters memory;  ///< memory-tier pricing (all zero when off)
    FailoverStats fo;       ///< failover ledger (all zero when off)
    RebalancerStats rb;     ///< rebalancer ledger (all zero when off)
  };

  // Lane ids of the pre-scheduled events a shard queue merges in place
  // (sim::LaneQueue): LC lc's packet arrivals are lane kFirstArrivalLane + lc.
  static constexpr std::size_t kUpdateLane = 0;
  static constexpr std::size_t kMigrateLane = 1;
  static constexpr std::size_t kTickLane = 2;
  static constexpr std::size_t kFirstArrivalLane = 3;

  /// Builds the Event of a lane item when the shard queue pops it.
  struct LaneEvent {
    const BasicRouterSim* router;
    Event operator()(std::size_t lane, std::size_t index) const {
      if (lane >= kFirstArrivalLane) {
        const int lc = static_cast<int>(lane - kFirstArrivalLane);
        const std::size_t packet =
            router->first_packet_[static_cast<std::size_t>(lc)] + index;
        return Event{Event::Type::kLookup, lc, router->destinations_[packet],
                     Requester{lc, static_cast<std::int64_t>(packet), false},
                     false, net::kNoRoute};
      }
      switch (lane) {
        case kUpdateLane:
          return Event{Event::Type::kUpdateInject, 0, Addr{},
                       Requester{0, static_cast<std::int64_t>(index), false},
                       false, net::kNoRoute};
        case kMigrateLane: {
          const int from = router->config_.migration.from;
          return Event{Event::Type::kMigrateStart, from, Addr{},
                       Requester{from, -1, false}, false, net::kNoRoute};
        }
        default:  // kTickLane
          return Event{Event::Type::kRebalanceTick, 0, Addr{},
                       Requester{0, -1, false}, false, net::kNoRoute};
      }
    }
  };

  /// One shard: a contiguous LC range, its event queue, the per-LC maps
  /// that only its thread touches, and the cross-thread machinery (inbound
  /// rings, published frontier, idle flag).
  struct Shard {
    explicit Shard(const BasicRouterSim* router) : queue(LaneEvent{router}) {}

    int index = 0;
    sim::LaneQueue<Event, LaneEvent> queue;
    std::vector<StagedMsg> staging;  // min-heap via StagedAfter
    WaitMap waiting;
    std::vector<typename WaitMap::node_type> wait_pool;
    std::vector<Requester> wait_scratch;
    std::unordered_map<std::uint64_t, PendingRequest> pending;
    ShardCounters c;
    /// inbound[s] carries messages from shard s (null for s == index and in
    /// solo mode). Producer: shard s's thread; consumer: this shard.
    std::vector<std::unique_ptr<sim::SpscRing<StagedMsg>>> inbound;
    /// Lower bound (release-published) on this shard's future injections.
    alignas(64) std::atomic<std::uint64_t> frontier{0};
    /// Uncapped min(qnext, snext) — the shard's next local event time,
    /// kNoTime when it has none. Read by peers' flux-consistent jumps.
    std::atomic<std::uint64_t> local_next{0};
    std::atomic<bool> idle{false};
    std::uint64_t published = 0;  ///< owner's copy of frontier
  };

  int shard_of_lc(int lc) const {
    return static_cast<int>(static_cast<std::int64_t>(lc) * shard_count_ /
                            config_.num_lcs);
  }
  Shard& shard_for_lc(int lc) {
    return *shards_[static_cast<std::size_t>(shard_of_lc(lc))];
  }

  // ----- Shard engine ------------------------------------------------------

  void check_abort() const {
    if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
      throw sim::ShardAbort{};
    }
  }

  void publish_frontier(Shard& sh, std::uint64_t value) {
    if (value > sh.published) {
      sh.published = value;
      sh.frontier.store(value, std::memory_order_release);
    }
  }

  /// min over peers of (frontier + lookahead), saturating; kNoTime with no
  /// peers. Callers must read this BEFORE draining rings (see file comment).
  std::uint64_t safe_horizon(const Shard& sh) const {
    std::uint64_t horizon = kNoTime;
    for (const auto& other : shards_) {
      if (other->index == sh.index) continue;
      horizon = std::min(horizon,
                         other->frontier.load(std::memory_order_acquire));
    }
    if (horizon == kNoTime) return kNoTime;
    const std::uint64_t safe = horizon + lookahead_;
    return safe < horizon ? kNoTime : safe;
  }

  static void push_staged(Shard& sh, const StagedMsg& msg) {
    sh.staging.push_back(msg);
    std::push_heap(sh.staging.begin(), sh.staging.end(), StagedAfter{});
  }

  void drain_rings(Shard& sh) {
    StagedMsg msg;
    std::uint64_t drained = 0;
    for (auto& ring : sh.inbound) {
      if (!ring) continue;
      while (ring->try_pop(msg)) {
        push_staged(sh, msg);
        ++drained;
      }
    }
    if (drained != 0) {
      // A drain can LOWER this shard's next event time. Publish the new
      // minimum before acknowledging the drains: a flux-consistent scan
      // that observes the drained count (acquire) then also observes the
      // lowered local_next, so it can never jump past these messages.
      const std::uint64_t qnext =
          sh.queue.empty() ? kNoTime : sh.queue.next_time();
      sh.local_next.store(std::min(qnext, sh.staging.front().raw),
                          std::memory_order_release);
      msgs_drained_.fetch_add(drained, std::memory_order_release);
    }
  }

  /// Flux-consistent global-minimum jump (see the file comment). Returns a
  /// safe horizon T + D when a consistent no-messages-in-flight snapshot
  /// exists, 0 when it doesn't (messages in flight — fall back to the
  /// frontier ratchet) or when the snapshot is globally empty (termination
  /// is the gate's call, not ours).
  std::uint64_t gvt_jump(const Shard& sh, std::uint64_t own_cand) const {
    const std::uint64_t sent = msgs_sent_.load(std::memory_order_acquire);
    if (msgs_drained_.load(std::memory_order_acquire) != sent) return 0;
    std::uint64_t t = own_cand;
    for (const auto& other : shards_) {
      if (other->index == sh.index) continue;
      t = std::min(t, other->local_next.load(std::memory_order_acquire));
    }
    if (msgs_sent_.load(std::memory_order_acquire) != sent) return 0;
    if (t == kNoTime) return 0;
    const std::uint64_t safe = t + lookahead_;
    return safe < t ? kNoTime : safe;
  }

  /// Egress already ran at the source; park the message at the destination
  /// shard. A full ring never deadlocks: while spinning the producer keeps
  /// draining its own inbound rings, so two shards pushing to each other
  /// both make progress.
  void stage_message(Shard& sh, int src, std::uint64_t raw, const Event& event) {
    const StagedMsg msg{raw, static_cast<std::uint32_t>(src),
                        send_seq_[static_cast<std::size_t>(src)]++, event};
    Shard& dst = shard_for_lc(event.lc);
    if (&dst == &sh) {
      push_staged(sh, msg);
      return;
    }
    // Count the message in flight BEFORE it becomes poppable, so a
    // flux-consistent scan can never observe the push without the count.
    msgs_sent_.fetch_add(1, std::memory_order_acq_rel);
    sim::SpscRing<StagedMsg>& ring =
        *dst.inbound[static_cast<std::size_t>(sh.index)];
    sim::SpinWaiter spin;
    while (!ring.try_push(msg)) {
      check_abort();
      drain_rings(sh);
      spin.wait();
    }
  }

  void send_reliable(Shard& sh, int src, std::uint64_t inject,
                     const Event& event) {
    stage_message(sh, src, fabric_->egress(src, inject).raw_arrival, event);
  }

  bool send_lossy(Shard& sh, int src, int dst, std::uint64_t inject,
                  const Event& event) {
    const fabric::Egress out = fabric_->egress_lossy(src, dst, inject);
    if (!out.delivered) return false;
    stage_message(sh, src, out.raw_arrival, event);
    return true;
  }

  /// Runs the destination-port ingress phase for the canonically-first
  /// staged message and schedules its event.
  void commit_front(Shard& sh) {
    std::pop_heap(sh.staging.begin(), sh.staging.end(), StagedAfter{});
    const StagedMsg msg = sh.staging.back();
    sh.staging.pop_back();
    sh.queue.schedule(fabric_->ingress_commit(msg.event.lc, msg.raw),
                      msg.event);
  }

  /// Commits staged messages and dispatches events, all strictly below
  /// `limit`, committing before popping on equal times (the canonical
  /// order). With publish, the next pop time is released before each
  /// dispatch so sends made during the handler are covered by the
  /// published frontier. Returns true when anything was committed or
  /// dispatched — the termination gate's poll uses this to veto a round
  /// in which it processed raced-in work (see try_terminate).
  bool process_window(Shard& sh, std::uint64_t limit, bool publish) {
    bool did_work = false;
    for (;;) {
      const std::uint64_t qnext =
          sh.queue.empty() ? kNoTime : sh.queue.next_time();
      if (!sh.staging.empty()) {
        const std::uint64_t snext = sh.staging.front().raw;
        if (snext < limit && snext <= qnext) {
          commit_front(sh);
          did_work = true;
          continue;
        }
      }
      if (qnext >= limit) return did_work;
      if (publish) publish_frontier(sh, qnext);
      dispatch_one(sh);
      did_work = true;
    }
  }

  void dispatch_one(Shard& sh) {
    auto [now, event] = sh.queue.pop();
    // A timer whose request already settled (reply accepted or degraded)
    // is stale: skip it before it can stretch the measured makespan.
    if (event.type == Event::Type::kTimeout &&
        sh.pending.find(event.requester.seq) == sh.pending.end()) {
      return;
    }
    // Periodic flush/invalidate touches every LC's cache, so it forces the
    // solo engine (see planned_shards) and may keep using result_ directly.
    if (config_.flush_interval_cycles != 0) maybe_update_table(now);
    sh.c.makespan = std::max(sh.c.makespan, now);
    switch (event.type) {
      case Event::Type::kLookup: handle_lookup(sh, now, event); break;
      case Event::Type::kFeComplete: handle_fe_complete(sh, now, event); break;
      case Event::Type::kReply: handle_reply(sh, now, event); break;
      case Event::Type::kTimeout: handle_timeout(sh, now, event); break;
      case Event::Type::kDegraded: handle_degraded(sh, now, event); break;
      case Event::Type::kUpdateInject: handle_update_inject(sh, now, event); break;
      case Event::Type::kUpdateApply:
      case Event::Type::kUpdateRelay:
      case Event::Type::kReplicaUpdate: handle_update_apply(sh, now, event); break;
      case Event::Type::kInvalidate: handle_invalidate(sh, now, event); break;
      case Event::Type::kCopyLookup: handle_copy_lookup(sh, now, event); break;
      case Event::Type::kProbe: handle_probe(sh, now, event); break;
      case Event::Type::kProbeReply: handle_probe_reply(sh, now, event); break;
      case Event::Type::kResyncFetch: handle_resync_fetch(sh, now, event); break;
      case Event::Type::kResyncSend: handle_resync_send(sh, now, event); break;
      case Event::Type::kResyncChunk: handle_resync_chunk(sh, now, event); break;
      case Event::Type::kMigrateStart: handle_migrate_start(sh, now, event); break;
      case Event::Type::kMigrateSend: handle_migrate_send(sh, now, event); break;
      case Event::Type::kMigrateChunk: handle_migrate_chunk(sh, now, event); break;
      case Event::Type::kMigrateDelta: handle_migrate_delta(sh, now, event); break;
      case Event::Type::kMigrateBuilt: handle_migrate_built(sh, now, event); break;
      case Event::Type::kMigrateReady: handle_migrate_ready(sh, now, event); break;
      case Event::Type::kCutover: handle_cutover(sh, now, event); break;
      case Event::Type::kRebalanceTick:
        handle_rebalance_tick(sh, now, event);
        break;
    }
  }

  /// Sequential engine: the same staged/canonical machinery on one all-LC
  /// shard. With limit = kNoTime every staged message commits and every
  /// event dispatches, and the loop ends only when both are empty.
  void run_solo(Shard& sh) { process_window(sh, kNoTime, false); }

  bool all_idle() const {
    for (const auto& s : shards_) {
      if (!s->idle.load(std::memory_order_acquire)) return false;
    }
    return true;
  }

  bool try_terminate(Shard& sh, sim::TerminationGate& gate,
                     std::uint64_t& parity) {
    // Set when a poll below processes raced-in work. Enter-barrier polls
    // run BEFORE this shard's recheck, and a handler can leave no local
    // trace (a remote kLookup that hits the home cache only sends a reply;
    // kUpdateApply only broadcasts invalidations) — so empty queue/staging
    // at recheck time does not prove this shard was quiet this round. The
    // flag does, and the recheck vetoes on it.
    bool raced_work = false;
    const bool done = gate.round(
        parity,
        /*recheck=*/
        [&] {
          drain_rings(sh);
          const bool busy =
              raced_work || !sh.queue.empty() || !sh.staging.empty();
          raced_work = false;
          if (busy) sh.idle.store(false, std::memory_order_relaxed);
          return busy;
        },
        /*poll=*/
        [&] {
          check_abort();
          const std::uint64_t safe = safe_horizon(sh);
          drain_rings(sh);
          // Work that races in while parked here must be PROCESSED, not
          // just held: a held event pins this shard's frontier, and a busy
          // peer whose next event sits exactly at frontier + D then stalls
          // forever — it never goes idle, never joins the barrier, and this
          // shard never leaves it. Processing is termination-safe because
          // it is never invisible to the gate:
          //   * Enter-barrier polls (before this shard's recheck) set
          //     raced_work, so the recheck vetoes even when the handler
          //     left queue and staging empty.
          //   * Exit-barrier polls (after the recheck) can only see work
          //     that was pushed DURING the round — every pre-round push
          //     happens-before the enter barrier completes and is drained
          //     by the receiver's recheck. An in-round push comes from some
          //     shard's enter-poll processing (vetoed via its raced_work)
          //     or, inductively, from exit-poll processing whose causal
          //     chain bottoms out in such a veto. So any exit-poll work
          //     implies the round is already lost, and busy counters are
          //     final by the time the exit barrier completes.
          if (process_window(sh, safe, /*publish=*/true)) raced_work = true;
          const std::uint64_t qnext =
              sh.queue.empty() ? kNoTime : sh.queue.next_time();
          const std::uint64_t snext =
              sh.staging.empty() ? kNoTime : sh.staging.front().raw;
          sh.local_next.store(std::min(qnext, snext),
                              std::memory_order_release);
          publish_frontier(sh, std::min(std::min(qnext, snext), safe));
        });
    if (!done) return false;
    // Belt-and-braces: a clean round implies no in-flight ring messages
    // (no shard vetoed => no shard sent this round, and every pre-round
    // send was drained by a recheck that happens-before the exit barrier),
    // so the flux counters must agree — and, being frozen since before the
    // round, every shard reads the same values and the verdict stays
    // unanimous. A mismatch would mean the invariant above is broken;
    // loop another round rather than drop an event.
    return msgs_drained_.load(std::memory_order_acquire) ==
           msgs_sent_.load(std::memory_order_acquire);
  }

  /// One shard's worker loop. The per-iteration order is load-bearing:
  /// read peer frontiers (acquire) FIRST, then drain rings, then compute
  /// the local candidate, then publish — see the file comment.
  void run_shard(Shard& sh, sim::TerminationGate& gate) {
    sim::SpinWaiter spin;
    std::uint64_t gate_parity = 0;
    for (;;) {
      check_abort();
      std::uint64_t safe = safe_horizon(sh);
      drain_rings(sh);
      const std::uint64_t qnext =
          sh.queue.empty() ? kNoTime : sh.queue.next_time();
      const std::uint64_t snext =
          sh.staging.empty() ? kNoTime : sh.staging.front().raw;
      const std::uint64_t cand = std::min(qnext, snext);
      sh.local_next.store(cand, std::memory_order_release);
      // Idle shards publish the safe horizon itself (never "infinity"):
      // peers' horizons then ratchet forward by the lookahead each round,
      // which is what guarantees global progress.
      publish_frontier(sh, std::min(cand, safe));
      if (cand >= safe) {
        // Stalled on peer frontiers. Before ratcheting D per round, try
        // the flux-consistent jump: with no message in flight the global
        // next-event minimum bounds every future arrival, letting this
        // shard (and, via its republished frontier, its peers) leap a
        // sparse-event gap in one round instead of O(gap/D).
        const std::uint64_t jumped = gvt_jump(sh, cand);
        if (jumped > safe) {
          safe = jumped;
          publish_frontier(sh, std::min(cand, safe));
        }
      }
      if (cand == kNoTime) {
        sh.idle.store(true, std::memory_order_release);
        if (all_idle() && try_terminate(sh, gate, gate_parity)) return;
        spin.wait();
        continue;
      }
      sh.idle.store(false, std::memory_order_relaxed);
      if (cand >= safe) {
        spin.wait();
        continue;
      }
      spin.reset();
      process_window(sh, safe, /*publish=*/true);
    }
  }

  void run_sharded() {
    sim::TerminationGate gate(shard_count_);
    std::atomic<bool> abort{false};
    abort_ = &abort;
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(shard_count_));
    auto body = [&](int index) {
      try {
        run_shard(*shards_[static_cast<std::size_t>(index)], gate);
      } catch (const sim::ShardAbort&) {
        // Another shard failed first; unwind quietly.
      } catch (...) {
        errors[static_cast<std::size_t>(index)] = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(shard_count_ - 1));
    for (int s = 1; s < shard_count_; ++s) workers.emplace_back(body, s);
    body(0);
    for (std::thread& worker : workers) worker.join();
    abort_ = nullptr;
    // Rethrow the lowest shard index's failure (deterministic pick).
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  // ----- Waiting lists -----------------------------------------------------

  /// The waiting list for (lc, addr), creating it from the node free-list
  /// when possible so the hot miss path performs no allocation.
  std::vector<Requester>& waiters(Shard& sh, int lc, const Addr& addr) {
    const WaitKey key{lc, addr};
    const auto it = sh.waiting.find(key);
    if (it != sh.waiting.end()) return it->second;
    if (!sh.wait_pool.empty()) {
      auto node = std::move(sh.wait_pool.back());
      sh.wait_pool.pop_back();
      node.key() = key;
      return sh.waiting.insert(std::move(node)).position->second;
    }
    return sh.waiting[key];
  }

  /// Parks a requester on the (lc, addr) waiting list, tracking the per-LC
  /// parked-requester high-water mark.
  void park(Shard& sh, int lc, const Addr& addr, const Requester& requester) {
    waiters(sh, lc, addr).push_back(requester);
    auto& depth = waiting_depth_[static_cast<std::size_t>(lc)];
    ++depth;
    auto& lc_stats = result_.per_lc[static_cast<std::size_t>(lc)];
    lc_stats.waiting_highwater = std::max(lc_stats.waiting_highwater, depth);
  }

  /// Reserves a waiting (W=1) block for `addr` at `lc` when early recording
  /// is on, parking the requester behind it; false when none was reserved.
  bool reserve_and_park(Shard& sh, std::uint64_t now, int lc,
                        const Addr& addr, const Requester& requester,
                        cache::Origin origin) {
    if (caches_.empty() || !config_.early_reservation ||
        !caches_[static_cast<std::size_t>(lc)]->reserve(addr, origin, now)) {
      return false;
    }
    park(sh, lc, addr, requester);
    return true;
  }

  /// Moves the waiting list for (lc, addr) into a scratch buffer (empty if
  /// none) and recycles both the map node and the vector capacity. The
  /// scratch is per-shard: callers drain it before the next take_waiters().
  const std::vector<Requester>& take_waiters(Shard& sh, int lc,
                                             const Addr& addr) {
    sh.wait_scratch.clear();
    const auto it = sh.waiting.find(WaitKey{lc, addr});
    if (it != sh.waiting.end()) {
      // Swap (not move) so the extracted node inherits the scratch's old
      // capacity and carries it back through the pool.
      sh.wait_scratch.swap(it->second);
      sh.wait_pool.push_back(sh.waiting.extract(it));
      waiting_depth_[static_cast<std::size_t>(lc)] -= sh.wait_scratch.size();
    }
    return sh.wait_scratch;
  }

  // ----- Lookup flow -------------------------------------------------------

  void handle_lookup(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    const Requester requester = event.requester;
    if (event.fill) {
      serve_returned_request(sh, now, event);
      return;
    }
    if (requester.lc != lc && rehoming()) {  // raced a cutover?
      const int frag = rot_->home_of(addr);
      if (serving_lc(frag) != lc) {
        relay_request(sh, now, lc, serving_lc(frag), frag, addr, requester);
        return;
      }
    }
    if (!caches_.empty()) {
      // One probe per cycle per LR-cache (Sec. 5.1): contend for the port.
      auto& port_free = cache_port_free_[static_cast<std::size_t>(lc)];
      if (port_free > now) {
        sh.queue.schedule(port_free, event);
        return;
      }
      port_free = now + 1;
      Cache& cache = *caches_[static_cast<std::size_t>(lc)];
      const cache::ProbeResult probe = cache.probe(addr, now);
      switch (probe.state) {
        case cache::ProbeState::kHit:
          deliver_result(sh, now + 1, lc, addr, probe.next_hop, requester);
          return;
        case cache::ProbeState::kWaiting:
          park(sh, lc, addr, requester);
          return;
        case cache::ProbeState::kMiss:
          break;
      }
    }
    const int frag = config_.partition ? rot_->home_of(addr) : lc;
    const int home = serving_lc(frag);
    if (home == lc) {
      const bool fill =
          reserve_and_park(sh, now, lc, addr, requester, cache::Origin::kLocal);
      // frag != lc only after a cutover re-homed the fragment here: the
      // job then runs on the hosted structure, not this LC's FE.
      start_fe_job(sh, now, lc, addr, fill, requester, structure_of(lc, frag));
    } else {
      // Failover: steer around a non-alive primary before committing the
      // request (choose_target is the identity while everyone looks alive,
      // so R = 0 and fault-free runs take the exact pre-failover path).
      int target = home;
      if (replication_active() && faults_active()) {
        target = choose_target(sh, lc, frag, now);
      }
      if (target == lc) {
        // This LC holds a live copy of the fragment: serve the miss from
        // its own resident replica instead of crossing the fabric.
        ++sh.c.fo.local_replica_serves;
        const bool fill = reserve_and_park(sh, now, lc, addr, requester,
                                           cache::Origin::kRemote);
        start_fe_job(sh, now, lc, addr, fill, requester,
                     structure_of(lc, frag));
        return;
      }
      Requester forwarded = requester;
      forwarded.fill_on_reply = reserve_and_park(sh, now, lc, addr, requester,
                                                 cache::Origin::kRemote);
      send_request(sh, now, lc, frag, target, addr, forwarded);
    }
  }

  /// A remote request that raced a migration cutover to this LC (it was
  /// the fragment's home when sent): relay it onward under the original
  /// requester and seq — the requester's own timeout still covers the
  /// round trip, and its pending entry matches the reply. It is neither
  /// probed nor parked here: a waiting block at this LC may itself wait on
  /// an answer routed through the requester's waiting block, a cycle that
  /// deadlocks both. A relay back to the requester's own LC, which the
  /// cutover made the home, is flagged (fill) so that LC serves it without
  /// a probe that would park it behind its own waiting block.
  void relay_request(Shard& sh, std::uint64_t now, int lc, int target,
                     int frag, const Addr& addr, const Requester& requester) {
    count_request(sh, lc, target);
    const Event relay{Event::Type::kLookup, target, addr, requester,
                      /*fill=*/target == requester.lc, net::kNoRoute, frag};
    if (faults_active()) {
      send_lossy(sh, lc, target, now + 1, relay);
    } else {
      send_reliable(sh, lc, now + 1, relay);
    }
  }

  /// A request relayed back to its own LC: the block is already reserved
  /// (requester.fill_on_reply) and the packet parked, so the FE job runs
  /// here and settles it, as the timeout path settles a request locally.
  /// Relayed on when the fragment has moved again meanwhile.
  void serve_returned_request(Shard& sh, std::uint64_t now,
                              const Event& event) {
    const int lc = event.lc;
    const Requester& requester = event.requester;
    const int frag = rot_->home_of(event.addr);
    const int home = serving_lc(frag);
    if (home != lc) {
      relay_request(sh, now, lc, home, frag, event.addr, requester);
      return;
    }
    // Under faults the request settles here, unless it already has.
    if (faults_active() && sh.pending.erase(requester.seq) == 0) return;
    start_fe_job(sh, now, lc, event.addr, requester.fill_on_reply, requester,
                 structure_of(lc, frag));
  }

  void start_fe_job(Shard& sh, std::uint64_t now, int lc, const Addr& addr,
                    bool fill, Requester direct, std::int32_t aux = -1) {
    // k-server deterministic queue: the job runs on the earliest-free engine.
    auto& servers = fe_free_[static_cast<std::size_t>(lc)];
    auto& fe_free = *std::min_element(servers.begin(), servers.end());
    const std::uint64_t start = std::max(now, fe_free);
    std::uint64_t service = static_cast<std::uint64_t>(config_.fe_service_cycles);
    if (!fe_models_.empty()) {
      // Memory-tier pricing: a counted lookup against the FE as built at
      // admission time sets this job's service time (the result the packet
      // receives is still computed at completion, so an update that lands
      // in between changes the answer, not this job's price). Copy and
      // hosted jobs price against their own placement (packed after the
      // bytes already resident at this LC).
      trie::MemAccessCounter counter;
      Family::fe_lookup_counted(fe_for(lc, aux), addr, counter);
      service = model_for(lc, aux).charge(counter, sh.c.memory);
    }
    const std::uint64_t completion = start + service;
    fe_free = completion;
    fe_busy_[static_cast<std::size_t>(lc)] += service;
    ++sh.c.fe_lookups;
    if (aux >= 0) ++sh.c.fo.replica_lookups;
    auto& lc_stats = result_.per_lc[static_cast<std::size_t>(lc)];
    ++lc_stats.fe_lookups;
    lc_stats.fe_queue_wait_cycles += start - now;
    sh.queue.schedule(completion, Event{Event::Type::kFeComplete, lc, addr,
                                        direct, fill, net::kNoRoute, aux});
  }

  void handle_fe_complete(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    if ((event.aux == kOwnAux && serving_lc(lc) != lc) ||
        (event.aux <= kHostedAuxBase &&
         serving_lc(kHostedAuxBase - event.aux) != lc)) {
      hand_off_frozen_job(sh, now, event);
      return;
    }
    const net::NextHop hop = Family::fe_lookup(fe_for(lc, event.aux), addr);
    if (event.fill) {
      if (!caches_.empty()) {
        caches_[static_cast<std::size_t>(lc)]->fill(addr, hop, now);
      }
      // Serve everything parked on the block: local packets resolve, remote
      // requesters receive replies over the fabric.
      for (const Requester& r : take_waiters(sh, lc, addr)) {
        deliver_result(sh, now, lc, addr, hop, r);
      }
    } else {
      // No reserved block (early recording disabled or the reservation
      // failed): cache the result late so subsequent packets still hit.
      // A copy job serving a re-routed remote requester is pure pass-
      // through: the result belongs in the requester's cache (via the
      // reply), not in the holder's.
      const bool pass_through = event.aux >= 0 && event.requester.lc != lc;
      if (!caches_.empty() && !pass_through) {
        // A copy-served result at the arrival LC is remote-homed data and
        // keeps the remote quota; everything else is the pre-failover path.
        caches_[static_cast<std::size_t>(lc)]->insert(
            addr, hop,
            event.aux >= 0 ? cache::Origin::kRemote : cache::Origin::kLocal,
            now);
      }
      deliver_result(sh, now, lc, addr, hop, event.requester);
    }
  }

  /// A job admitted before a cutover moved its fragment off this LC would
  /// answer from the frozen structure, so it answers nothing. The W=1
  /// block it reserved is dropped, as the cutover invalidation would have
  /// dropped it had it not been waiting, and each of its requesters
  /// re-enters the lookup flow here: a remote one is forwarded to the
  /// serving LC like a request that raced the cutover, a local packet
  /// sends a fresh request.
  void hand_off_frozen_job(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    if (!event.fill) {
      reenter(sh, now, lc, addr, event.requester);
      return;
    }
    Cache& cache = *caches_[static_cast<std::size_t>(lc)];  // fill => cache
    if (cache.fill(addr, net::kNoRoute, now)) {
      const std::size_t dropped = cache.invalidate_if(
          [&](const Addr& cached) { return cached == addr; });
      sh.c.blocks_invalidated += dropped;
      sh.c.fo.migration_invalidated_blocks += dropped;
    }
    for (const Requester& r : take_waiters(sh, lc, addr)) {
      reenter(sh, now, lc, addr, r);
    }
  }

  /// Runs the lookup flow for `requester` at `lc` again from `now`.
  void reenter(Shard& sh, std::uint64_t now, int lc, const Addr& addr,
               const Requester& requester) {
    sh.queue.schedule(now, Event{Event::Type::kLookup, lc, addr, requester,
                                 false, net::kNoRoute});
  }

  void handle_reply(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    if (faults_active()) {
      // Match the reply to its pending request. A miss means the request
      // already settled — an earlier attempt's reply was accepted or the
      // lookup fell back to the degraded path — so this one is a duplicate
      // and must not touch the cache or resolve anything twice.
      const auto it = sh.pending.find(event.requester.seq);
      if (it == sh.pending.end()) {
        ++sh.c.duplicate_replies;
        return;
      }
      if (replication_active()) {
        // Evidence of life from the LC that answered this attempt.
        note_alive(sh, lc, it->second.target, /*via_probe=*/false);
      }
      sh.pending.erase(it);
    }
    if (!caches_.empty()) {
      if (event.requester.fill_on_reply) {
        caches_[static_cast<std::size_t>(lc)]->fill(addr, event.hop, now);
      } else {
        // No reservation was made at request time; cache the result late.
        caches_[static_cast<std::size_t>(lc)]->insert(
            addr, event.hop, cache::Origin::kRemote, now);
      }
    }
    // Drain the packets parked while this reply was in flight (the carried
    // requester is usually among them; resolve_packet guards duplicates).
    // A parked requester is not always local: a remote request that raced a
    // migration cutover to this LC can hit the waiting block this LC's own
    // re-request reserved and park behind it. deliver_result sends such a
    // requester its reply — resolving it here would strand the packets
    // parked behind it at its own LC, with no timeout to recover them on
    // the fault-free path.
    for (const Requester& r : take_waiters(sh, lc, addr)) {
      deliver_result(sh, now, lc, addr, event.hop, r);
    }
    resolve_packet(sh, now, event.requester.packet, event.hop);
  }

  void deliver_result(Shard& sh, std::uint64_t now, int lc, const Addr& addr,
                      net::NextHop hop, const Requester& requester) {
    if (requester.lc == lc) {
      resolve_packet(sh, now, requester.packet, hop);
      return;
    }
    ++sh.c.remote_replies;
    const Event reply{Event::Type::kReply, requester.lc, addr, requester,
                      false, hop};
    if (faults_active()) {
      // The reply can be lost too; the requester's timeout covers the whole
      // round trip, so a dropped reply is indistinguishable from a dropped
      // request and triggers the same retry/degraded recovery.
      send_lossy(sh, lc, requester.lc, now, reply);
      return;
    }
    send_reliable(sh, lc, now, reply);
  }

  /// Marks a packet resolved; false when it already was (waiting-list
  /// drains and the degraded path can race the same packet). Only the shard
  /// owning the packet's arrival LC ever touches its resolved_ slot or its
  /// per-LC latency histogram.
  bool resolve_packet(Shard& sh, std::uint64_t now, std::int64_t packet,
                      net::NextHop hop) {
    const auto index = static_cast<std::size_t>(packet);
    if (resolved_[index]) return false;
    resolved_[index] = 1;
    ++sh.c.resolved_packets;
    const std::uint64_t cycles = now - arrival_time_[index];
    result_.per_lc_latency[static_cast<std::size_t>(arrival_lc_[index])]
        .record(cycles);
    if (track_outage_ && arrived_in_outage(arrival_time_[index]) &&
        !config_.fault.port_down(arrival_lc_[index], arrival_time_[index])) {
      // Packets arriving at a surviving LC while some port is down: the
      // population failover protects. Arrivals at the dead LC itself are
      // excluded — with its own fabric port down, every remote-homed packet
      // there is doomed to the retry/degraded path regardless of how many
      // replicas the rest of the fabric holds (degraded_lookups counts
      // them).
      per_lc_outage_latency_[static_cast<std::size_t>(arrival_lc_[index])]
          .record(cycles);
    }
    if (verify_) {
      const net::NextHop expected =
          Family::oracle_lookup(*oracle_, destinations_[index]);
      if (expected != hop && !update_excuses(index, now)) {
        ++sh.c.verify_mismatches;
      }
    }
    return true;
  }

  /// Verify-under-churn: a mismatch against the (control-plane) oracle is
  /// excused iff some update covering the destination was in flight during
  /// the packet's lifetime — its [inject, settle] window overlaps
  /// [arrival, resolve]. Packets arriving after an update fully settled
  /// (every apply and invalidation delivered) get no excuse from it: that
  /// is the staleness property the update tests assert.
  bool update_excuses(std::size_t packet_index, std::uint64_t resolve_time) const {
    if (updates_.empty()) return false;
    const Addr& dst = destinations_[packet_index];
    const std::uint64_t arrival = arrival_time_[packet_index];
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (update_inject_time_[i] > resolve_time) break;  // stream is time-ordered
      if (update_settle_time_[i] < arrival) continue;
      if (updates_[i].prefix.matches(dst)) return true;
    }
    return false;
  }

  bool faults_active() const { return config_.fault.enabled; }

  /// Hands out request seqs that are unique, nonzero, and independent of
  /// the engine: each LC strides by num_lcs from its own offset.
  std::uint64_t next_request_seq(int lc) {
    return request_seq_[static_cast<std::size_t>(lc)]++ *
               static_cast<std::uint64_t>(config_.num_lcs) +
           static_cast<std::uint64_t>(lc) + 1;
  }

  void send_request(Shard& sh, std::uint64_t now, int from_lc, int frag,
                    int target, const Addr& addr, const Requester& requester) {
    if (!faults_active()) {
      count_request(sh, from_lc, target);
      send_reliable(sh, from_lc, now + 1,
                    Event{Event::Type::kLookup, target, addr, requester, false,
                          net::kNoRoute});
      return;
    }
    Requester tagged = requester;
    tagged.seq = next_request_seq(from_lc);
    sh.pending.emplace(tagged.seq,
                       PendingRequest{addr, tagged, frag, target, 0});
    dispatch_request(sh, now, frag, target, addr, tagged, /*attempt=*/0);
  }

  void count_request(Shard& sh, int from_lc, int home) {
    ++sh.c.remote_requests;
    ++result_.remote_fanout[static_cast<std::size_t>(from_lc) *
                                static_cast<std::size_t>(config_.num_lcs) +
                            static_cast<std::size_t>(home)];
  }

  /// Injects one (re)transmission of a pending request into the fabric and
  /// arms its timeout. The fabric may lose the message (drop or outage);
  /// either way the timeout fires unless some attempt's reply settles the
  /// seq first, so a lost message can never strand the lookup. A re-routed
  /// attempt (target != the fragment's serving LC) rides a kCopyLookup so
  /// the replica holder serves it from its resident copy.
  void dispatch_request(Shard& sh, std::uint64_t now, int frag, int target,
                        const Addr& addr, const Requester& requester,
                        int attempt) {
    count_request(sh, requester.lc, target);
    // A kCopyLookup is only meaningful at an LC that actually holds a copy;
    // a target that stopped being the serving LC mid-flight (migration
    // cutover) without holding one gets a plain kLookup, which the arrival
    // LC forwards to the fragment's current home like any other request.
    const bool rerouted =
        target != serving_lc(frag) && copy_slot(target, frag) >= 0;
    if (rerouted) ++sh.c.fo.rerouted_requests;
    send_lossy(sh, requester.lc, target, now + 1,
               Event{rerouted ? Event::Type::kCopyLookup : Event::Type::kLookup,
                     target, addr, requester, false, net::kNoRoute, frag});
    // Exponential backoff with the shift clamped (backoff_cycles) so a huge
    // configured timeout or retry budget can never wrap the timer. The
    // timer is a local event at the requesting LC — it never crosses shards.
    const std::uint64_t backoff = backoff_cycles(timeout_base_, attempt);
    sh.queue.schedule(now + 1 + backoff,
                      Event{Event::Type::kTimeout, requester.lc, addr,
                            requester, false, net::kNoRoute});
  }

  void handle_timeout(Shard& sh, std::uint64_t now, const Event& event) {
    // Stale timers were filtered in dispatch_one: this seq is live.
    const auto it = sh.pending.find(event.requester.seq);
    PendingRequest& pending = it->second;
    ++sh.c.timeouts;
    if (replication_active()) {
      // The silence is evidence against whichever LC this attempt targeted.
      note_timeout(sh, pending.requester.lc, pending.target);
    }
    if (pending.attempt < config_.recovery.max_retries) {
      ++pending.attempt;
      ++sh.c.retransmits;
      int target = pending.target;
      if (replication_active()) {
        target = choose_target(sh, pending.requester.lc, pending.home, now);
      } else if (rehoming()) {
        // No replicas to steer through, but the fragment's home can still
        // move under a retry: chase the current serving LC instead of
        // hammering the frozen source.
        target = serving_lc(pending.home);
      }
      if (target == pending.requester.lc) {
        // Best live holder is this LC itself: settle the request from the
        // local copy. The FE completion fills the reserved block (if any)
        // and drains the waiters; any straggler reply for this seq is
        // suppressed as a duplicate. When a migration cutover re-homed the
        // fragment onto this very LC while the request was in flight, the
        // job runs on the hosted structure, not a replica copy.
        const PendingRequest settled = pending;
        sh.pending.erase(it);
        const std::int32_t aux =
            structure_of(settled.requester.lc, settled.home);
        if (aux >= 0) ++sh.c.fo.local_replica_serves;
        start_fe_job(sh, now, settled.requester.lc, settled.addr,
                     settled.requester.fill_on_reply, settled.requester, aux);
        return;
      }
      pending.target = target;
      dispatch_request(sh, now, pending.home, pending.target, pending.addr,
                       pending.requester, pending.attempt);
      return;
    }
    // Retries exhausted: degraded mode. Release the W=1 block the lost
    // reply would have filled (its quota must not leak for the rest of the
    // run), then resolve the requester and every packet parked behind it
    // with a local full-table lookup at the conventional-router cost.
    ++sh.c.degraded_fallbacks;
    const int lc = pending.requester.lc;
    const Addr addr = pending.addr;
    if (!caches_.empty() && pending.requester.fill_on_reply) {
      if (caches_[static_cast<std::size_t>(lc)]->cancel_waiting(addr)) {
        ++sh.c.reclaimed_waiting_blocks;
      }
    }
    // The full-table slow path shares verify mode's oracle; run() builds it
    // whenever faults are enabled.
    const net::NextHop hop = Family::oracle_lookup(*oracle_, addr);
    const std::uint64_t done =
        now + static_cast<std::uint64_t>(
                  std::max(1, config_.recovery.degraded_service_cycles));
    for (const Requester& r : take_waiters(sh, lc, addr)) {
      sh.queue.schedule(done,
                        Event{Event::Type::kDegraded, lc, addr, r, false, hop});
    }
    sh.queue.schedule(done, Event{Event::Type::kDegraded, lc, addr,
                                  pending.requester, false, hop});
    sh.pending.erase(it);
  }

  void handle_degraded(Shard& sh, std::uint64_t now, const Event& event) {
    if (resolve_packet(sh, now, event.requester.packet, event.hop)) {
      ++sh.c.degraded_lookups;
    }
  }

  void maybe_update_table(std::uint64_t now) {
    if (config_.flush_interval_cycles == 0) return;
    while (now >= next_flush_) {
      if (config_.update_policy == RouterConfig::UpdatePolicy::kFlushAll ||
          full_table_.empty()) {
        for (const auto& c : caches_) c->flush();
      } else {
        // One incremental update: an existing prefix is re-announced and
        // only the addresses it covers are invalidated.
        const auto& changed =
            full_table_.entries()[update_rng_() % full_table_.size()].prefix;
        for (const auto& c : caches_) {
          result_.blocks_invalidated += c->invalidate_matching(changed);
        }
      }
      ++result_.updates_applied;
      next_flush_ += config_.flush_interval_cycles;
    }
  }

  // ----- Live route-update pipeline ---------------------------------------

  /// Injection of update i at the control plane (modelled at LC 0's fabric
  /// port): the oracle advances immediately — it is the control plane's
  /// view — and one fabric message per home LC carries the update out.
  void handle_update_inject(Shard& sh, std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const auto& update = updates_[index];
    ++sh.c.update.applied;
    ++sh.c.updates_applied;
    switch (update.kind) {
      case net::UpdateKind::kAnnounce: ++sh.c.update.announces; break;
      case net::UpdateKind::kWithdraw: ++sh.c.update.withdraws; break;
      case net::UpdateKind::kHopChange: ++sh.c.update.hop_changes; break;
    }
    if (oracle_ != nullptr) {
      // Under the sharded engine this only runs when nothing reads the
      // oracle concurrently: verify/fault runs with live updates force the
      // solo engine (planned_shards), so a mutating inject can only share a
      // run with readers when there is a single shard.
      if (update.kind == net::UpdateKind::kWithdraw) {
        oracle_->remove(update.prefix);
      } else {
        oracle_->insert(update.prefix, update.next_hop);
      }
    }
    // Route to every home LC whose fragment replicates the prefix. An
    // unpartitioned router keeps the full table in every LC, so all of
    // them are homes.
    std::vector<int> homes;
    if (config_.partition) {
      homes = rot_->homes_of(update.prefix);
    } else {
      homes.reserve(static_cast<std::size_t>(config_.num_lcs));
      for (int lc = 0; lc < config_.num_lcs; ++lc) homes.push_back(lc);
    }
    // Pre-count every apply before any message leaves: the outstanding
    // counter can then never transiently hit zero while effects are still
    // fanning out (each apply also adds its invalidations before its own
    // decrement). A deferred primary apply holds one token too — it is
    // settled only when the resync re-applies the update at the rejoined
    // LC, which keeps the verify excuse window open for exactly as long as
    // a stale structure can still answer.
    const bool steer = replication_active() && faults_active();
    std::uint32_t tokens = 0;
    for (const int home : homes) {
      tokens += 1 + static_cast<std::uint32_t>(
                        replica_plan_[static_cast<std::size_t>(home)].size());
    }
    update_outstanding_[index].fetch_add(tokens, std::memory_order_relaxed);
    for (const int home : homes) {
      const int primary = serving_lc(home);
      const auto& holders = replica_plan_[static_cast<std::size_t>(home)];
      // Defer the primary apply when the primary cannot take it (its port
      // is inside an outage window) or is already stale: the update joins
      // its missed queue and an acting replica broadcasts the invalidations
      // on its behalf. Pure config (FaultConfig::port_down draws no RNG).
      int acting = -1;
      if (steer && !holders.empty() &&
          (stale_[static_cast<std::size_t>(primary)] != 0 ||
           config_.fault.port_down(primary, now + 1))) {
        for (const int r : holders) {
          if (stale_[static_cast<std::size_t>(r)] == 0 &&
              !config_.fault.port_down(r, now + 1)) {
            acting = r;
            break;
          }
        }
      }
      if (acting >= 0) {
        ++sh.c.fo.missed_updates;
        stale_[static_cast<std::size_t>(primary)] = 1;
        missed_updates_[static_cast<std::size_t>(primary)].push_back(index);
      } else {
        ++sh.c.update.update_messages;
        // Control messages ride the fabric reliably (egress, not
        // egress_lossy): BGP sessions run over TCP, losses are
        // retransmitted below the timescale this model resolves.
        send_reliable(sh, 0, now + 1,
                      Event{Event::Type::kUpdateApply, primary, Addr{},
                            event.requester, false, net::kNoRoute, home});
      }
      // Every replica copy stays fresh regardless of the primary's fate;
      // the acting holder's event carries the broadcast flag (fill). The
      // replica role rides its own event type: a holder the rebalancer
      // moved the fragment onto also hosts the primary, and must apply
      // this message to its copy, not a second time to the primary.
      for (const int r : holders) {
        ++sh.c.update.update_messages;
        send_reliable(sh, 0, now + 1,
                      Event{Event::Type::kReplicaUpdate, r, Addr{},
                            event.requester, /*fill=*/r == acting,
                            net::kNoRoute, home});
      }
    }
  }

  /// Update i reaches LC `lc` for the fragment in event.aux: apply it to
  /// the structure its role names — the primary (primary_structure) for
  /// kUpdateApply and kUpdateRelay, the LC's copy for kReplicaUpdate. At the
  /// serving LC that is the fragment's primary: besides the apply, the
  /// cache side invalidates locally and broadcasts, and a fragment
  /// mid-move double-delivers. At a replica holder the copy is kept fresh,
  /// and it invalidates on behalf of a primary whose apply was deferred
  /// when the event carries the acting-broadcast flag (event.fill), so the
  /// invalidation barrier exists even while the primary is dark.
  ///
  /// A primary message sent before a cutover moved the fragment off this
  /// LC finds no primary here (the origin's own one is frozen, and a copy
  /// the LC holds gets the update from its own replica message): it is
  /// relayed to the serving LC and keeps its settle token. The relay rides
  /// as a double delivery, and at the serving LC it applies the prefix's
  /// newest injected route, since a later update sent straight there may
  /// already have overtaken it.
  void handle_update_apply(Shard& sh, std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const int lc = event.lc;
    const int frag = event.aux;
    const bool relayed = event.type == Event::Type::kUpdateRelay;
    const bool replica = event.type == Event::Type::kReplicaUpdate;
    const std::int32_t aux =
        replica ? copy_slot(lc, frag) : primary_structure(lc, frag);
    if (replica && aux < 0) {
      throw std::logic_error(
          "RouterSim: replica update at an LC that holds no copy");
    }
    if (aux == kNoStructure) {
      ++sh.c.fo.double_delivered_updates;
      ++sh.c.fo.control_messages;
      send_reliable(sh, lc, now + 1,
                    Event{Event::Type::kUpdateRelay, serving_lc(frag), Addr{},
                          update_requester(index), false, net::kNoRoute,
                          frag});
      return;
    }
    apply_at(sh, now, lc, aux,
             updates_[relayed ? newest_update(index, now) : index]);
    if (aux >= 0) {
      ++sh.c.fo.replica_update_applications;
      if (event.fill && !caches_.empty()) {
        ++sh.c.fo.acting_primary_applications;
        invalidate_for_update(sh, now, lc, index, /*broadcast=*/true);
      }
    } else {
      invalidate_for_update(sh, now, lc, index, /*broadcast=*/true);
      maybe_double_deliver(sh, now, lc, frag, index);
    }
    settle_update(index, now);
  }

  /// Applies `update` to one (table, FE) pair: incrementally when the FE
  /// supports it, by epoch rebuild otherwise. Returns the FE cycles the
  /// apply costs; `stats`, when given, counts it.
  std::uint64_t apply_to(Table& table, typename Family::Fe& fe,
                         const Update& update, UpdateStats* stats) {
    net::apply_update(table, update);
    if (stats != nullptr) ++stats->applications;
    if (Family::fe_supports_update(fe)) {
      if (update.kind == net::UpdateKind::kWithdraw) {
        Family::fe_remove(fe, update.prefix);
      } else {
        Family::fe_insert(fe, update.prefix, update.next_hop);
      }
      if (stats != nullptr) ++stats->fe_incremental;
      return config_.update.incremental_cost_cycles;
    }
    fe = Family::build_fe(table, config_);
    if (stats != nullptr) ++stats->fe_rebuilds;
    return config_.update.rebuild_base_cycles +
           table.size() * config_.update.rebuild_millicycles_per_entry / 1000;
  }

  /// The latest update to the same prefix as update `index` injected by
  /// `now` (the prefix's current control-plane route).
  std::size_t newest_update(std::size_t index, std::uint64_t now) const {
    std::size_t newest = index;
    for (std::size_t j = index + 1;
         j < updates_.size() && update_inject_time_[j] <= now; ++j) {
      if (updates_[j].prefix == updates_[index].prefix) newest = j;
    }
    return newest;
  }

  /// A live apply of `update` at LC `lc` to the structure `aux` names:
  /// apply, re-place the resized structure's memory placement and the ones
  /// packed behind it (own FE, then replica copies, then hosted
  /// fragments), and stall the LC's FE servers for the cost.
  void apply_at(Shard& sh, std::uint64_t now, int lc, std::int32_t aux,
                const Update& update) {
    std::uint64_t cost = 0;
    if (aux == kOwnAux) {
      cost = apply_to(lc_tables_[static_cast<std::size_t>(lc)],
                      fes_[static_cast<std::size_t>(lc)], update,
                      &sh.c.update);
      rebuild_fe_model(lc);
      rebuild_copy_models_at(lc);
    } else if (aux >= 0) {
      ReplicaCopy& copy = copies_[static_cast<std::size_t>(lc)]
                                 [static_cast<std::size_t>(aux)];
      cost = apply_to(copy.table, copy.fe, update, &sh.c.update);
      rebuild_copy_models_at(lc);
    } else {
      HostedFragment& hosted = hosted_at(lc, kHostedAuxBase - aux);
      cost = apply_to(*hosted.table, *hosted.fe, update, &sh.c.update);
      rebuild_hosted_models_at(lc);
    }
    stall_fe(sh, lc, now, cost);
  }

  /// The FE is unavailable while an update applies: every server of LC
  /// `lc` stalls for `cost` cycles.
  void stall_fe(Shard& sh, int lc, std::uint64_t now, std::uint64_t cost) {
    for (auto& server : fe_free_[static_cast<std::size_t>(lc)]) {
      server = std::max(server, now) + cost;
    }
    fe_busy_[static_cast<std::size_t>(lc)] += cost;
    sh.c.update.update_cost_cycles += cost;
  }

  /// Cache side of update `index` applied at LC `lc`: the local cache
  /// drops the affected blocks and, with `broadcast`, every other LC is
  /// sent an invalidation that holds a settle token. The broadcast leaves
  /// *after* the FE applied, so per-(src,dst) fabric FIFO guarantees it
  /// overtakes no stale reply this LC produced earlier — the invalidation
  /// is a barrier behind which no pre-update value survives in any cache.
  void invalidate_for_update(Shard& sh, std::uint64_t now, int lc,
                             std::size_t index, bool broadcast) {
    if (caches_.empty()) return;
    invalidate_cache(sh, lc, updates_[index]);
    if (!broadcast) return;
    for (int other = 0; other < config_.num_lcs; ++other) {
      if (other == lc) continue;
      ++sh.c.update.invalidation_messages;
      update_outstanding_[index].fetch_add(1, std::memory_order_relaxed);
      send_reliable(sh, lc, now + 1,
                    Event{Event::Type::kInvalidate, other, Addr{},
                          update_requester(index), false, net::kNoRoute});
    }
  }

  /// The requester field every event of update `index` carries.
  static Requester update_requester(std::size_t index) {
    return Requester{0, static_cast<std::int64_t>(index), false};
  }

  /// Copy phase: double-deliver a primary-applied delta for the in-copy
  /// fragment to the migration target. Its token keeps the update unsettled
  /// until the target has absorbed it, so the staged structure can never be
  /// resolved-against stale. The delta event carries the fragment in aux so
  /// a straggler can still find its (cut-over, hosted) structure.
  void maybe_double_deliver(Shard& sh, std::uint64_t now, int lc, int frag,
                            std::size_t index) {
    if (!(migration_.copying && !migration_.aborted &&
          lc == migration_.src && frag == migration_.frag)) {
      return;
    }
    ++sh.c.fo.double_delivered_updates;
    ++sh.c.fo.control_messages;
    update_outstanding_[index].fetch_add(1, std::memory_order_relaxed);
    send_reliable(sh, lc, now + 1,
                  Event{Event::Type::kMigrateDelta, migration_.dst, Addr{},
                        update_requester(index), false, net::kNoRoute, frag});
  }

  void handle_invalidate(Shard& sh, std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    invalidate_cache(sh, event.lc, updates_[index]);
    settle_update(index, now);
  }

  /// Cache side of one update at one LC, per the configured policy.
  /// Waiting (W=1) blocks are left for their fill on the selective path:
  /// any in-flight fill was either produced after the update applied
  /// (fresh), or was injected before this invalidation by the same home
  /// and therefore already landed (fabric FIFO) and been dropped here.
  /// That home is the fragment's serving LC, because a job on a structure
  /// a cutover froze hands its lookups on instead of answering.
  void invalidate_cache(Shard& sh, int lc, const Update& update) {
    Cache& cache = *caches_[static_cast<std::size_t>(lc)];
    if (config_.update_policy == RouterConfig::UpdatePolicy::kSelectiveInvalidate) {
      const std::size_t dropped = cache.invalidate_matching(update.prefix);
      sh.c.blocks_invalidated += dropped;
      sh.c.update.blocks_invalidated += dropped;
    } else {
      cache.flush();
      ++sh.c.update.cache_flushes;
    }
  }

  /// One apply/invalidation event of update `index` completed; the last one
  /// stamps the settle time. Effects complete on different shards, so the
  /// settle time is accumulated as a CAS-max and stamped by whichever shard
  /// decrements the outstanding counter to zero — in a solo run event times
  /// are non-decreasing, so the max equals the last decrementer's `now` and
  /// the stamp is engine-independent. (Settle times feed only the verify
  /// excuse window, and verify with churn runs solo anyway.)
  void settle_update(std::size_t index, std::uint64_t now) {
    std::atomic<std::uint64_t>& stamp = update_settle_max_[index];
    std::uint64_t seen = stamp.load(std::memory_order_relaxed);
    while (seen < now &&
           !stamp.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    // acq_rel: the last decrementer's acquire sees every earlier effect's
    // CAS-max through the RMW release sequence.
    if (update_outstanding_[index].fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      update_settle_time_[index] = stamp.load(std::memory_order_relaxed);
    }
  }

  // ----- Failover: replication, health, resync, migration ------------------

  /// Structure ids, as carried in Event::aux by FE jobs: the LC's own
  /// fragment, a replica copy slot (>= 0), or a hosted fragment encoded as
  /// kHostedAuxBase - frag. kNoStructure: the LC keeps nothing for it.
  static constexpr std::int32_t kOwnAux = -1;
  static constexpr std::int32_t kNoStructure = -2;
  static constexpr std::int32_t kHostedAuxBase = -3;

  /// Which structure LC `lc` uses to serve fragment `frag`: its own
  /// fragment, one a migration cutover re-homed here, a replica copy it
  /// holds, or none. An LC whose own fragment moved away keeps only a
  /// frozen structure for it, which serves nothing.
  std::int32_t structure_of(int lc, int frag) const {
    const std::int32_t primary = primary_structure(lc, frag);
    if (primary != kNoStructure) return primary;
    const int slot = copy_slot(lc, frag);
    return slot >= 0 ? slot : kNoStructure;
  }

  /// The primary structure for `frag` at `lc` — its own fragment or one a
  /// cutover re-homed here — or kNoStructure when `lc` does not serve it.
  std::int32_t primary_structure(int lc, int frag) const {
    if (serving_lc(frag) != lc) return kNoStructure;
    if (frag == lc) return kOwnAux;
    return hosted_slot(lc, frag) >= 0 ? kHostedAuxBase - frag : kNoStructure;
  }

  /// Latest hosted entry for `frag` at `lc`, or -1. Scans from the back so
  /// a fragment that moved here twice resolves to the live structure.
  int hosted_slot(int lc, int frag) const {
    const auto& hosted = hosted_[static_cast<std::size_t>(lc)];
    for (auto it = hosted.rbegin(); it != hosted.rend(); ++it) {
      if (it->fragment == frag) {
        return static_cast<int>(std::distance(it, hosted.rend())) - 1;
      }
    }
    return -1;
  }

  HostedFragment& hosted_at(int lc, int frag) {
    const int slot = hosted_slot(lc, frag);
    if (slot < 0) {
      throw std::logic_error(
          "RouterSim: job routed to an LC that hosts no such fragment");
    }
    return hosted_[static_cast<std::size_t>(lc)][static_cast<std::size_t>(slot)];
  }
  const HostedFragment& hosted_at(int lc, int frag) const {
    return const_cast<BasicRouterSim*>(this)->hosted_at(lc, frag);
  }

  bool replication_active() const {
    return config_.replication.replicas > 0 && config_.partition &&
           config_.num_lcs > 1;
  }
  bool failover_enabled() const {
    return replication_active() || config_.migration.enabled ||
           config_.rebalancer.enabled;
  }

  /// Whether a migration or the rebalancer may re-home fragments.
  bool rehoming() const {
    return config_.migration.enabled || config_.rebalancer.enabled;
  }

  /// The LC currently serving fragment `frag` (identity unless a migration
  /// or rebalancer cutover re-homed it).
  int serving_lc(int frag) const {
    return rehoming() ? home_remap_[static_cast<std::size_t>(frag)] : frag;
  }

  /// Slot of `frag`'s copy at `lc`, or -1 when the LC holds none (also when
  /// replication is off and no copies exist at all).
  int copy_slot(int lc, int frag) const {
    if (copy_index_.empty()) return -1;
    return copy_index_[static_cast<std::size_t>(lc) *
                           static_cast<std::size_t>(config_.num_lcs) +
                       static_cast<std::size_t>(frag)];
  }

  const typename Family::Fe& fe_for(int lc, std::int32_t aux) const {
    if (aux == kOwnAux) return fes_[static_cast<std::size_t>(lc)];
    if (aux >= 0) {
      return copies_[static_cast<std::size_t>(lc)]
                    [static_cast<std::size_t>(aux)].fe;
    }
    return *hosted_at(lc, kHostedAuxBase - aux).fe;
  }
  const MemoryModel& model_for(int lc, std::int32_t aux) const {
    if (aux == kOwnAux) return fe_models_[static_cast<std::size_t>(lc)];
    if (aux >= 0) {
      return copy_models_[static_cast<std::size_t>(lc)]
                         [static_cast<std::size_t>(aux)];
    }
    return *hosted_at(lc, kHostedAuxBase - aux).model;
  }

  /// Best target for a remote lookup on `frag` as seen by `observer`: the
  /// primary while it looks alive, else the first live replica holder (the
  /// observer itself, if it holds one — served locally). Non-alive LCs
  /// encountered on the way are probed, paced per (observer, target).
  int choose_target(Shard& sh, int observer, int frag, std::uint64_t now) {
    const int primary = serving_lc(frag);
    if (health_.alive(observer, primary)) return primary;
    maybe_probe(sh, observer, primary, now);
    for (const int r : replica_plan_[static_cast<std::size_t>(frag)]) {
      if (r == observer) return observer;
      if (health_.alive(observer, r)) return r;
      maybe_probe(sh, observer, r, now);
    }
    // Nobody looks alive: keep hammering the primary; the retry/degraded
    // machinery remains the backstop of last resort.
    return primary;
  }

  void maybe_probe(Shard& sh, int observer, int target, std::uint64_t now) {
    if (!health_.probe_due(observer, target, now)) return;
    health_.probe_sent(observer, target, now, probe_interval_);
    ++sh.c.fo.probes_sent;
    ++sh.c.fo.control_messages;
    send_lossy(sh, observer, target, now + 1,
               Event{Event::Type::kProbe, target, Addr{},
                     Requester{observer, -1, false}, false, net::kNoRoute});
  }

  void note_timeout(Shard& sh, int observer, int target) {
    switch (health_.note_timeout(observer, target)) {
      case HealthTracker::Transition::kSuspect:
        ++sh.c.fo.suspect_transitions;
        break;
      case HealthTracker::Transition::kDown:
        ++sh.c.fo.down_transitions;
        break;
      case HealthTracker::Transition::kNone:
        break;
    }
  }

  void note_alive(Shard& sh, int observer, int target, bool via_probe) {
    if (observer == target) return;
    if (health_.note_alive(observer, target)) {
      ++sh.c.fo.recoveries;
      if (via_probe) ++sh.c.fo.rejoins;
    }
  }

  /// Re-routed request at a replica holder: serve straight from the
  /// resident copy (no cache interaction here — the result belongs in the
  /// requester's cache, carried back by the reply), or from the hosted
  /// primary if a cutover moved the fragment here meanwhile.
  void handle_copy_lookup(Shard& sh, std::uint64_t now, const Event& event) {
    start_fe_job(sh, now, event.lc, event.addr, false, event.requester,
                 structure_of(event.lc, event.aux));
  }

  void handle_probe(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    if (stale_[static_cast<std::size_t>(lc)] != 0) {
      // A stale rejoiner withholds probe replies until it has caught up —
      // observers keep steering to the replicas — but uses the contact to
      // start fetching its missed updates.
      maybe_start_resync(sh, lc, now);
      return;
    }
    ++sh.c.fo.probe_replies_sent;
    ++sh.c.fo.control_messages;
    send_lossy(sh, lc, event.requester.lc, now + 1,
               Event{Event::Type::kProbeReply, event.requester.lc, Addr{},
                     Requester{lc, -1, false}, false, net::kNoRoute});
  }

  void handle_probe_reply(Shard& sh, std::uint64_t /*now*/,
                          const Event& event) {
    ++sh.c.fo.probe_replies;
    note_alive(sh, event.lc, event.requester.lc, /*via_probe=*/true);
  }

  // --- Resync: stream a rejoining LC's missed updates from a live holder.

  void maybe_start_resync(Shard& sh, int lc, std::uint64_t now) {
    if (resyncing_[static_cast<std::size_t>(lc)] != 0) return;
    // The acting source is the first live holder — the same preference
    // order the deferral used, so it has every missed update applied.
    int src = -1;
    for (const int r : replica_plan_[static_cast<std::size_t>(lc)]) {
      if (stale_[static_cast<std::size_t>(r)] == 0 &&
          !config_.fault.port_down(r, now + 1)) {
        src = r;
        break;
      }
    }
    if (src < 0) return;  // retry on the next probe contact
    resyncing_[static_cast<std::size_t>(lc)] = 1;
    ++sh.c.fo.resync_fetches;
    ++sh.c.fo.control_messages;
    send_reliable(sh, lc, now + 1,
                  Event{Event::Type::kResyncFetch, src, Addr{},
                        Requester{lc, -1, false}, false, net::kNoRoute, lc});
  }

  void handle_resync_fetch(Shard& sh, std::uint64_t now, const Event& event) {
    const int target = event.aux;
    if (resync_sending_[static_cast<std::size_t>(target)] != 0) return;
    resync_sending_[static_cast<std::size_t>(target)] = 1;
    sh.queue.schedule(now + 1,
                      Event{Event::Type::kResyncSend, event.lc, Addr{},
                            Requester{event.lc, -1, false}, false,
                            net::kNoRoute, target});
  }

  /// Local pacing tick at the streaming holder: emit the next batch of the
  /// target's missed-update queue, then re-arm. The chain stays alive while
  /// entries are chunked-but-unapplied so deferrals that land during the
  /// transfer are streamed too.
  void handle_resync_send(Shard& sh, std::uint64_t now, const Event& event) {
    const int target = event.aux;
    const auto t = static_cast<std::size_t>(target);
    const auto& queue = missed_updates_[t];
    if (resync_sent_[t] >= queue.size()) {
      if (resync_head_[t] < resync_sent_[t]) {
        sh.queue.schedule(now + chunk_interval(), event);
      } else {
        resync_sending_[t] = 0;
      }
      return;
    }
    const std::size_t batch =
        std::min(chunk_prefixes(), queue.size() - resync_sent_[t]);
    resync_sent_[t] += batch;
    ++sh.c.fo.resync_chunks;
    ++sh.c.fo.control_messages;
    send_reliable(sh, event.lc, now + 1,
                  Event{Event::Type::kResyncChunk, target, Addr{},
                        Requester{event.lc, -1, false}, false, net::kNoRoute,
                        static_cast<std::int32_t>(batch)});
    sh.queue.schedule(now + chunk_interval(), event);
  }

  void handle_resync_chunk(Shard& sh, std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const auto l = static_cast<std::size_t>(lc);
    auto& queue = missed_updates_[l];
    for (std::size_t n = static_cast<std::size_t>(event.aux);
         n > 0 && resync_head_[l] < queue.size(); --n) {
      const std::size_t index = queue[resync_head_[l]++];
      ++sh.c.fo.resync_entries;
      apply_resync_entry(sh, lc, now, index);
    }
    if (resync_head_[l] >= queue.size()) {
      // Caught up: the cutover back to normal service. From here the LC
      // answers probes again and fresh updates apply directly.
      queue.clear();
      resync_head_[l] = 0;
      resync_sent_[l] = 0;
      stale_[l] = 0;
      resyncing_[l] = 0;
      ++sh.c.fo.resync_cutovers;
      ++sh.c.fo.cutovers;
    }
  }

  /// Re-apply one deferred update at the rejoined primary: same FE/table
  /// machinery as a live apply, but invalidation is local-only (the acting
  /// holder broadcast the barrier when the update was deferred) and the
  /// settle releases the token the deferral held — closing the verify
  /// excuse window the stale structure was serving under.
  void apply_resync_entry(Shard& sh, int lc, std::uint64_t now,
                          std::size_t index) {
    apply_at(sh, now, lc, kOwnAux, updates_[index]);
    invalidate_for_update(sh, now, lc, index, /*broadcast=*/false);
    settle_update(index, now);
  }

  // --- Live migration: copy-then-cutover fragment transfer.

  const Table& migration_source_table() const {
    // A rebalancer re-move streams from the hosted structure at the current
    // serving LC; a first move streams from the fragment's own (live,
    // update-mutated when the pipeline is on) table.
    if (migration_.src != migration_.frag) {
      return *hosted_at(migration_.src, migration_.frag).table;
    }
    return lc_tables_.empty()
               ? rot_->table_of(migration_.frag)
               : lc_tables_[static_cast<std::size_t>(migration_.frag)];
  }

  std::size_t chunk_prefixes() const {
    return std::max<std::size_t>(std::size_t{1},
                                 config_.migration.chunk_prefixes);
  }
  std::uint64_t chunk_interval() const {
    return std::max<std::uint64_t>(1, config_.migration.chunk_interval_cycles);
  }

  void handle_migrate_start(Shard& sh, std::uint64_t now, const Event& event) {
    if (!migration_.active) {
      // Operator-initiated transfer: endpoints come from the config. (A
      // rebalancer trigger filled them in before scheduling this event.)
      migration_.active = true;
      migration_.frag = config_.migration.from;
      migration_.src = config_.migration.from;
      migration_.dst = config_.migration.to;
    }
    migration_.copying = true;
    const auto entries = migration_source_table().entries();
    migration_.snapshot.assign(entries.begin(), entries.end());
    sh.queue.schedule(now + 1,
                      Event{Event::Type::kMigrateSend, event.lc, Addr{},
                            event.requester, false, net::kNoRoute});
  }

  void handle_migrate_send(Shard& sh, std::uint64_t now, const Event& event) {
    if (migration_.final_sent || !migration_.active) return;
    if (config_.rebalancer.enabled &&
        config_.fault.port_down(migration_.dst, now)) {
      // The target died mid-copy: abort instead of streaming into a dead
      // port. Chunks already in flight drain and are discarded; the source
      // keeps serving, so no lookup is lost.
      abort_migration(sh);
      return;
    }
    const std::size_t remaining =
        migration_.snapshot.size() - migration_.cursor;
    const std::size_t batch = std::min(chunk_prefixes(), remaining);
    const bool last = batch == remaining;
    migration_.chunk_queue.emplace_back(
        migration_.snapshot.begin() +
            static_cast<std::ptrdiff_t>(migration_.cursor),
        migration_.snapshot.begin() +
            static_cast<std::ptrdiff_t>(migration_.cursor + batch));
    migration_.cursor += batch;
    ++sh.c.fo.migration_chunks;
    ++sh.c.fo.control_messages;
    sh.c.fo.snapshot_prefixes += batch;
    send_reliable(sh, event.lc, now + 1,
                  Event{Event::Type::kMigrateChunk, migration_.dst,
                        Addr{}, event.requester, last, net::kNoRoute,
                        static_cast<std::int32_t>(batch)});
    if (last) {
      migration_.final_sent = true;
    } else {
      sh.queue.schedule(now + chunk_interval(), event);
    }
  }

  /// Give up on the in-flight rebalancer migration (target died). The
  /// double-delivery window closes (copying = false) and the state resets —
  /// immediately when nothing is in flight, else when the last in-flight
  /// chunk drains in handle_migrate_chunk.
  void abort_migration(Shard& sh) {
    migration_.aborted = true;
    migration_.copying = false;
    migration_.final_sent = true;
    ++sh.c.rb.aborted_migrations;
    if (migration_.chunk_queue.empty()) migration_ = MigrationState{};
  }

  /// Snapshot chunk at the target. Chunks from one source port arrive in
  /// send order (non-decreasing raw arrivals, origin_seq tie-break), so the
  /// payload deque pairs up FIFO with the chunk events.
  void handle_migrate_chunk(Shard& sh, std::uint64_t now, const Event& event) {
    auto chunk = std::move(migration_.chunk_queue.front());
    migration_.chunk_queue.pop_front();
    if (migration_.aborted) {
      // Aborted transfer: drain and discard. The last in-flight chunk
      // resets the state so the rebalancer can trigger again.
      if (migration_.chunk_queue.empty()) migration_ = MigrationState{};
      return;
    }
    migration_.staged_entries.insert(migration_.staged_entries.end(),
                                     chunk.begin(), chunk.end());
    if (!event.fill) return;
    // Final chunk: build the staged table, then replay the deltas buffered
    // during the transfer IN ORDER — a buffered withdraw must land after
    // the snapshot entries it withdraws, never be resurrected by them.
    // (inject_stale is the verify-mode fault hook: dropping the replay
    // makes the staged structure genuinely stale, which the differential
    // harness must catch as nonzero verify_mismatches.)
    auto table = std::make_unique<Table>(std::move(migration_.staged_entries));
    migration_.staged_entries = {};
    if (!config_.rebalancer.inject_stale) {
      for (const std::size_t index : migration_.buffered_deltas) {
        net::apply_update(*table, updates_[index]);
      }
    }
    migration_.buffered_deltas.clear();
    // The staged build is management-plane work: it delays the cutover,
    // not the serving FE servers. Price it like an epoch rebuild.
    const std::uint64_t build =
        config_.update.rebuild_base_cycles +
        table->size() * config_.update.rebuild_millicycles_per_entry / 1000;
    // It waits in the target's hosted list, serving nothing until the
    // cutover re-homes the fragment there.
    auto fe = std::make_unique<typename Family::Fe>(
        Family::build_fe(*table, config_));
    hosted_[static_cast<std::size_t>(event.lc)].push_back(
        HostedFragment{migration_.frag, std::move(table), std::move(fe),
                       nullptr});
    rebuild_hosted_models_at(event.lc);
    migration_.fe_ready = true;
    sh.queue.schedule(now + 1 + build,
                      Event{Event::Type::kMigrateBuilt, event.lc, Addr{},
                            Requester{event.lc, -1, false}, false,
                            net::kNoRoute});
  }

  /// Double-delivered update at the target (requester.packet carries the
  /// update index, aux the fragment). Before the staged structure is built
  /// the delta is buffered; after, it applies to the target's hosted entry
  /// for the fragment, also when it straggles in behind the cutover. One
  /// after an abort finds no such entry and is dropped. Every path settles
  /// the token.
  void handle_migrate_delta(Shard& /*sh*/, std::uint64_t now,
                            const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const int lc = event.lc;
    const int frag = event.aux;
    if (migration_.active && !migration_.aborted &&
        frag == migration_.frag && !migration_.fe_ready) {
      migration_.buffered_deltas.push_back(index);
    } else if (!config_.rebalancer.inject_stale && hosted_slot(lc, frag) >= 0) {
      HostedFragment& hosted = hosted_at(lc, frag);
      apply_to(*hosted.table, *hosted.fe, updates_[index], nullptr);
      rebuild_hosted_models_at(lc);
    }
    settle_update(index, now);
  }

  void handle_migrate_built(Shard& sh, std::uint64_t now, const Event& event) {
    ++sh.c.fo.cutover_messages;
    ++sh.c.fo.control_messages;
    send_reliable(sh, event.lc, now + 1,
                  Event{Event::Type::kMigrateReady, migration_.src,
                        Addr{}, Requester{event.lc, -1, false}, false,
                        net::kNoRoute});
  }

  /// Cutover, at the source: flip the re-home map, drop this LC's blocks
  /// homed on the fragment, and broadcast the cutover barrier. Requests
  /// still in flight toward this LC are forwarded to the new home by the
  /// ordinary lookup path (serving_lc no longer names this LC), so no
  /// lookup is lost or answered from the now-frozen source structure.
  void handle_migrate_ready(Shard& sh, std::uint64_t now, const Event& event) {
    const int from = event.lc;
    const int frag = migration_.frag;
    home_remap_[static_cast<std::size_t>(frag)] = migration_.dst;
    ++sh.c.fo.migrations;
    ++sh.c.fo.cutovers;
    invalidate_for_migration(sh, from, frag);
    release_parked_requests(sh, now, from, frag);
    for (int other = 0; other < config_.num_lcs; ++other) {
      if (other == from) continue;
      ++sh.c.fo.cutover_messages;
      ++sh.c.fo.control_messages;
      send_reliable(sh, from, now + 1,
                    Event{Event::Type::kCutover, other, Addr{},
                          Requester{from, -1, false}, false, net::kNoRoute,
                          frag});
    }
    // The staged structure at the target serves from here on, and the
    // migration machinery is ready for the next trigger.
    if (config_.rebalancer.enabled) ++sh.c.rb.completed_migrations;
    migration_ = MigrationState{};
  }

  /// Remote requests parked at the cutover's source behind a waiting block
  /// for the moved fragment re-enter the lookup flow, which forwards them
  /// to the new home like requests that raced the cutover. Left parked,
  /// they could wait on an answer that now routes through their own LC.
  void release_parked_requests(Shard& sh, std::uint64_t now, int lc,
                               int frag) {
    std::vector<Addr> addrs;
    for (const auto& [key, parked] : sh.waiting) {
      if (key.lc == lc && rot_->home_of(key.addr) == frag) {
        addrs.push_back(key.addr);
      }
    }
    std::sort(addrs.begin(), addrs.end());  // map order is unspecified
    for (const Addr& addr : addrs) {
      const std::vector<Requester> parked = take_waiters(sh, lc, addr);
      for (const Requester& r : parked) {
        if (r.lc == lc) {
          park(sh, lc, addr, r);
        } else {
          reenter(sh, now, lc, addr, r);
        }
      }
    }
  }

  void handle_cutover(Shard& sh, std::uint64_t /*now*/, const Event& event) {
    invalidate_for_migration(sh, event.lc, event.aux);
  }

  /// Selective invalidation on re-home: drop every cached block whose
  /// address is homed on the migrated fragment (its serving LC changed, so
  /// LOC/REM quota classes and staleness guarantees both moved).
  void invalidate_for_migration(Shard& sh, int lc, int frag) {
    if (caches_.empty()) return;
    const std::size_t dropped =
        caches_[static_cast<std::size_t>(lc)]->invalidate_if(
            [&](const Addr& addr) { return rot_->home_of(addr) == frag; });
    sh.c.blocks_invalidated += dropped;
    sh.c.fo.migration_invalidated_blocks += dropped;
  }

  // --- Online load rebalancer: skew detection + autonomous migration.

  /// Window boundary (management plane, LC 0). Evaluates the offered load
  /// each LC served over the closed window from the precomputed per-window
  /// fragment counts, and when the max/mean skew crosses the threshold,
  /// moves the hottest fragment of the most-loaded LC to the least-loaded
  /// healthy LC through the ordinary migration machinery. Ledger: every
  /// detection is either acted on (migrations_triggered) or accounted to
  /// exactly one skipped_* counter, so
  /// skew_detections == triggered + skipped_in_flight + skipped_no_target
  ///                    + skipped_budget.
  void handle_rebalance_tick(Shard& sh, std::uint64_t now,
                             const Event& /*event*/) {
    RebalancerStats& rb = sh.c.rb;
    ++rb.windows;
    const std::size_t w =
        static_cast<std::size_t>(now / config_.rebalancer.window_cycles) - 1;
    if (w >= window_frag_counts_.size()) return;
    const std::vector<std::uint64_t>& counts = window_frag_counts_[w];
    const auto n = static_cast<std::size_t>(config_.num_lcs);
    std::vector<std::uint64_t> load(n, 0);
    std::uint64_t total = 0;
    for (int frag = 0; frag < config_.num_lcs; ++frag) {
      const std::uint64_t c = counts[static_cast<std::size_t>(frag)];
      load[static_cast<std::size_t>(serving_lc(frag))] += c;
      total += c;
    }
    if (total == 0) return;
    int src = 0;
    for (int lc = 1; lc < config_.num_lcs; ++lc) {
      if (load[static_cast<std::size_t>(lc)] >
          load[static_cast<std::size_t>(src)]) {
        src = lc;
      }
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(config_.num_lcs);
    if (static_cast<double>(load[static_cast<std::size_t>(src)]) <
        config_.rebalancer.skew_threshold * mean) {
      return;
    }
    ++rb.skew_detections;
    if (migration_.active) {
      ++rb.skipped_in_flight;
      return;
    }
    if (rb.migrations_triggered >=
        static_cast<std::uint64_t>(config_.rebalancer.max_migrations)) {
      ++rb.skipped_budget;
      return;
    }
    // Hottest fragment currently served by the overloaded LC.
    int frag = -1;
    for (int f = 0; f < config_.num_lcs; ++f) {
      if (serving_lc(f) != src) continue;
      if (frag < 0 || counts[static_cast<std::size_t>(f)] >
                          counts[static_cast<std::size_t>(frag)]) {
        frag = f;
      }
    }
    // Least-loaded destination that is safe to receive it: never the
    // source, never the fragment's original LC (its resident structure is
    // frozen-stale once the fragment moved away), never a port currently in
    // outage, never an LC that missed updates, never one any observer holds
    // suspect/down — and only if strictly less loaded than the source.
    int dst = -1;
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      if (lc == src || lc == frag) continue;
      if (stale_[static_cast<std::size_t>(lc)] != 0) continue;
      if (config_.fault.port_down(lc, now)) continue;
      bool healthy = true;
      for (int obs = 0; obs < config_.num_lcs && healthy; ++obs) {
        if (obs != lc && !health_.alive(obs, lc)) healthy = false;
      }
      if (!healthy) continue;
      if (load[static_cast<std::size_t>(lc)] >=
          load[static_cast<std::size_t>(src)]) {
        continue;
      }
      if (dst < 0 || load[static_cast<std::size_t>(lc)] <
                         load[static_cast<std::size_t>(dst)]) {
        dst = lc;
      }
    }
    if (frag < 0 || dst < 0) {
      ++rb.skipped_no_target;
      return;
    }
    ++rb.migrations_triggered;
    migration_.active = true;
    migration_.frag = frag;
    migration_.src = src;
    migration_.dst = dst;
    sh.queue.schedule(now + 1,
                      Event{Event::Type::kMigrateStart, src, Addr{},
                            Requester{src, -1, false}, false, net::kNoRoute});
  }

  bool arrived_in_outage(std::uint64_t at) const {
    for (const auto& span : outage_spans_) {
      if (at < span.first) return false;
      if (at < span.second) return true;
    }
    return false;
  }

  /// (Re)derives the replica plan, the copies it homes, and their memory
  /// placements from the current fragments.
  void rebuild_copies() {
    const auto n = static_cast<std::size_t>(config_.num_lcs);
    copies_.clear();
    copies_.resize(n);
    copy_index_.assign(n * n, -1);
    replica_plan_ = partition::assign_replicas(
        config_.num_lcs,
        replication_active() ? config_.replication.replicas : 0);
    for (int frag = 0; frag < config_.num_lcs; ++frag) {
      for (const int holder : replica_plan_[static_cast<std::size_t>(frag)]) {
        const auto h = static_cast<std::size_t>(holder);
        copy_index_[h * n + static_cast<std::size_t>(frag)] =
            static_cast<int>(copies_[h].size());
        Table table = rot_->table_of(frag);
        auto fe = Family::build_fe(table, config_);
        copies_[h].push_back(
            ReplicaCopy{frag, std::move(table), std::move(fe)});
      }
    }
    rebuild_copy_models();
  }

  void rebuild_copy_models() {
    copy_models_.assign(copies_.size(), {});
    if (!config_.memory.enabled) return;
    for (int lc = 0; lc < config_.num_lcs; ++lc) rebuild_copy_models_at(lc);
  }

  /// Re-places one holder's copies behind its own FE's bytes (which may
  /// have just changed size under an update).
  void rebuild_copy_models_at(int lc) {
    if (!config_.memory.enabled) return;
    auto& models = copy_models_[static_cast<std::size_t>(lc)];
    models.clear();
    std::uint64_t base =
        fe_models_[static_cast<std::size_t>(lc)].placed_bytes();
    for (const ReplicaCopy& copy : copies_[static_cast<std::size_t>(lc)]) {
      models.emplace_back(config_.memory, Family::fe_arenas(copy.fe), base);
      base += models.back().placed_bytes();
    }
    // Hosted fragments pack behind the copies; their base just moved.
    rebuild_hosted_models_at(lc);
  }

  /// Re-places one LC's hosted fragments behind its own FE's and replica
  /// copies' bytes (their base shifts when either changes size).
  void rebuild_hosted_models_at(int lc) {
    if (!config_.memory.enabled || hosted_.empty()) return;
    auto& hosted = hosted_[static_cast<std::size_t>(lc)];
    if (hosted.empty()) return;
    std::uint64_t base =
        fe_models_[static_cast<std::size_t>(lc)].placed_bytes();
    for (const MemoryModel& model :
         copy_models_[static_cast<std::size_t>(lc)]) {
      base += model.placed_bytes();
    }
    for (HostedFragment& h : hosted) {
      if (h.fe == nullptr) continue;
      h.model = std::make_unique<MemoryModel>(config_.memory,
                                              Family::fe_arenas(*h.fe), base);
      base += h.model->placed_bytes();
    }
  }

  // ----- Memory-tier cost model -------------------------------------------

  /// Re-places every FE's arenas into the configured tiers. fe_models_ is
  /// empty whenever the model is disabled, which is the hot path's cheap
  /// "is it on" test.
  void rebuild_fe_models() {
    fe_models_.clear();
    if (!config_.memory.enabled) return;
    fe_models_.reserve(fes_.size());
    for (const auto& fe : fes_) {
      fe_models_.emplace_back(config_.memory, Family::fe_arenas(fe));
    }
  }

  void rebuild_fe_model(int lc) {
    if (fe_models_.empty()) return;
    fe_models_[static_cast<std::size_t>(lc)] = MemoryModel(
        config_.memory, Family::fe_arenas(fes_[static_cast<std::size_t>(lc)]));
  }

  static constexpr std::uint64_t kSettlePending = ~std::uint64_t{0};

  RouterConfig config_;
  Table full_table_;
  std::unique_ptr<Partition> rot_;
  std::vector<typename Family::Fe> fes_;          // one per LC
  std::vector<MemoryModel> fe_models_;  // one per LC; empty when model off
  std::vector<std::unique_ptr<Cache>> caches_;    // one per LC (optional)
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<typename Family::Oracle> oracle_;  // verify/degraded modes

  // Run state (reset per run()). Ownership under the sharded engine: the
  // Shard struct holds everything one worker thread touches exclusively;
  // the per-LC vectors below are element-owned by the shard of that LC;
  // the per-packet vectors are element-owned by the shard of the packet's
  // arrival LC; everything else is either read-only during the run or
  // explicitly atomic.
  int shard_count_ = 1;
  std::uint64_t lookahead_ = 0;                      // fabric min latency
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool>* abort_ = nullptr;               // set during run_sharded
  // Message flux counters for the flux-consistent jump (gvt_jump): sent
  // counts ring pushes (bumped before the push), drained counts ring pops
  // (bumped after the pop is integrated into staging and local_next).
  // Equal counts + an unchanged re-read of sent = no message in flight.
  alignas(64) std::atomic<std::uint64_t> msgs_sent_{0};
  alignas(64) std::atomic<std::uint64_t> msgs_drained_{0};
  std::vector<std::uint64_t> cache_port_free_;       // per LC
  std::vector<std::vector<std::uint64_t>> fe_free_;  // per LC, per FE server
  std::vector<std::uint64_t> fe_busy_;               // per LC, busy cycles
  std::vector<std::uint64_t> request_seq_;           // per LC, fault-mode seqs
  std::vector<std::uint64_t> send_seq_;              // per LC, staging order
  std::uint64_t timeout_base_ = 0;
  std::vector<std::uint64_t> waiting_depth_;  // per LC, currently parked
  std::vector<std::uint64_t> arrival_time_;          // per packet
  std::vector<int> arrival_lc_;                      // per packet
  std::vector<Addr> destinations_;                   // per packet
  std::vector<std::size_t> first_packet_;            // per LC: first packet id
  std::vector<std::uint64_t> rebalance_tick_time_;   // per rebalancer window
  // uint8_t, not vector<bool>: neighbouring packets can belong to different
  // shards, and bit-packing would make their flags share a byte.
  std::vector<std::uint8_t> resolved_;               // per packet
  std::uint64_t next_flush_ = 0;
  std::mt19937_64 update_rng_;
  // Live-update pipeline state. lc_tables_ are the mutable per-LC fragments
  // (materialized only when the pipeline is on); the dirty flags make run()
  // rebuild FEs / oracle that a prior run's updates mutated.
  std::vector<Update> updates_;
  std::vector<Table> lc_tables_;
  std::vector<std::uint64_t> update_inject_time_;   // per update
  std::vector<std::uint64_t> update_settle_time_;   // kSettlePending in flight
  std::unique_ptr<std::atomic<std::uint32_t>[]> update_outstanding_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> update_settle_max_;
  bool fes_dirty_ = false;
  bool oracle_dirty_ = false;
  bool verify_ = false;
  // Failover subsystem. The replica plan and copies persist across runs
  // like the FEs (copies_dirty_ makes run() rebuild what updates mutated);
  // everything below them is per-run. Sharded-engine ownership: health
  // rows are observer-owned, copies/copy models are holder-owned, and the
  // resync/migration state is only ever touched by solo-engine handlers.
  std::vector<std::vector<int>> replica_plan_;    // fragment -> holder LCs
  std::vector<std::vector<ReplicaCopy>> copies_;  // per holder LC
  std::vector<std::vector<MemoryModel>> copy_models_;  // parallel to copies_
  std::vector<int> copy_index_;  // (lc * num_lcs + frag) -> copy slot or -1
  bool copies_dirty_ = false;
  HealthTracker health_;
  std::uint64_t probe_interval_ = 0;
  std::vector<int> home_remap_;               // fragment -> serving LC
  std::vector<std::uint8_t> stale_;           // per LC: has missed updates
  std::vector<std::uint8_t> resyncing_;       // per LC: fetch in flight
  std::vector<std::uint8_t> resync_sending_;  // per target LC: chain armed
  std::vector<std::vector<std::size_t>> missed_updates_;  // per LC, in order
  std::vector<std::size_t> resync_sent_;      // per LC: entries chunked
  std::vector<std::size_t> resync_head_;      // per LC: entries applied
  MigrationState migration_;
  /// Fragments migrations re-home onto each LC, staged ones included.
  /// Solo-engine state, like the migration machinery that fills it.
  std::vector<std::vector<HostedFragment>> hosted_;
  /// Rebalancer: offered lookups per [window][fragment], precomputed in
  /// run() from the arrival schedule and the static home mapping.
  std::vector<std::vector<std::uint64_t>> window_frag_counts_;
  bool track_outage_ = false;
  /// Merged, sorted union of every configured outage window.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outage_spans_;
  std::vector<sim::LatencyStats> per_lc_outage_latency_;  // per arrival LC
  RouterResult result_;
};

}  // namespace spal::core
