// Engine-equivalence tests: the CalendarQueue must pop in exactly the same
// (time, insertion-seq) order as the binary-heap EventQueue, the pop-order
// oracle — including same-cycle bursts, far-future overflow, past
// schedules, and across automatic resizes. The LaneQueue must pop exactly
// as an EventQueue that got every lane item scheduled first.
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/lane_queue.h"

namespace {

using namespace spal;

struct Payload {
  std::uint64_t id;
  bool operator==(const Payload&) const = default;
};

using Heap = sim::EventQueue<Payload>;
using Calendar = sim::CalendarQueue<Payload>;

/// Drives both engines through the same schedule/pop tape and asserts the
/// pop sequences are identical (time and payload).
class Tandem {
 public:
  explicit Tandem(std::size_t bucket_hint = 0) : calendar_(bucket_hint) {}

  void schedule(std::uint64_t time) {
    heap_.schedule(time, Payload{next_id_});
    calendar_.schedule(time, Payload{next_id_});
    ++next_id_;
  }

  void pop_and_check() {
    ASSERT_EQ(heap_.empty(), calendar_.empty());
    ASSERT_FALSE(heap_.empty());
    ASSERT_EQ(heap_.next_time(), calendar_.next_time());
    const auto [heap_time, heap_event] = heap_.pop();
    const auto [cal_time, cal_event] = calendar_.pop();
    ASSERT_EQ(heap_time, cal_time);
    ASSERT_EQ(heap_event, cal_event);
    ASSERT_EQ(heap_.size(), calendar_.size());
    last_popped_ = heap_time;
  }

  void drain_and_check() {
    while (!heap_.empty()) pop_and_check();
    ASSERT_TRUE(calendar_.empty());
  }

  std::uint64_t last_popped() const { return last_popped_; }
  std::size_t size() const { return heap_.size(); }

 private:
  Heap heap_;
  Calendar calendar_;
  std::uint64_t next_id_ = 0;
  std::uint64_t last_popped_ = 0;
};

#ifndef NDEBUG
using EmptyQueueDeathTest = testing::Test;

TEST(EmptyQueueDeathTest, NextTimeAndPopAssertOnEmptyQueues) {
  // next_time()/pop() on an empty queue is a contract violation; in debug
  // builds the assert guards must fire instead of returning garbage.
  EXPECT_DEATH({ Heap q; (void)q.next_time(); }, "empty");
  EXPECT_DEATH({ Heap q; (void)q.pop(); }, "empty");
  EXPECT_DEATH({ Calendar q; (void)q.next_time(); }, "empty");
  EXPECT_DEATH({ Calendar q; (void)q.pop(); }, "empty");
  EXPECT_DEATH(
      {
        Heap q;
        q.schedule(5, Payload{1});
        (void)q.pop();
        (void)q.pop();  // one past the end
      },
      "empty");
}
#endif  // NDEBUG

TEST(CalendarQueueTest, FifoWithinOneCycle) {
  Tandem tandem;
  for (int i = 0; i < 100; ++i) tandem.schedule(7);
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, SameCycleBurstsInterleavedWithPops) {
  Tandem tandem;
  std::mt19937_64 rng(1);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t t = tandem.last_popped() + rng() % 16;
    // Burst several events onto one cycle, some while that cycle drains.
    for (int i = 0; i < 5; ++i) tandem.schedule(t);
    tandem.pop_and_check();
    for (int i = 0; i < 3; ++i) tandem.schedule(tandem.last_popped());
    tandem.pop_and_check();
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, FarFutureEventsOverflowCorrectly) {
  Tandem tandem;
  std::mt19937_64 rng(2);
  for (int i = 0; i < 2000; ++i) {
    // Bimodal: near events plus far-future ones well beyond any wheel lap.
    tandem.schedule(i % 3 == 0 ? rng() % 512 : 1'000'000'000 + rng() % 4096);
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, PastSchedulesStillPopInOrder) {
  Tandem tandem;
  for (int i = 0; i < 64; ++i) tandem.schedule(1000 + i);
  for (int i = 0; i < 32; ++i) tandem.pop_and_check();
  // The heap accepts times below the last popped time; the calendar must
  // reproduce the same (earliest-first) recovery order.
  for (int i = 0; i < 16; ++i) tandem.schedule(i % 7);
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, ResizeUnderLoadKeepsOrder) {
  // Start from the smallest wheel and push far past it so both the
  // bucket-count growth and the width rebuild trigger mid-run.
  Tandem tandem(/*bucket_hint=*/1);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 40'000; ++i) tandem.schedule(rng() % 100'000);
  for (int i = 0; i < 10'000; ++i) tandem.pop_and_check();
  for (int i = 0; i < 40'000; ++i) {
    tandem.schedule(tandem.last_popped() + rng() % 1'000'000);
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, RandomizedPropertyTape) {
  // Mixed random tape across several seeds: schedules clustered near the
  // frontier, same-cycle bursts, far-future spikes, interleaved pops.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Tandem tandem;
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 30'000; ++step) {
      const std::uint64_t kind = rng() % 10;
      if (kind < 5) {
        tandem.schedule(tandem.last_popped() + rng() % 300);
      } else if (kind == 5) {
        const std::uint64_t t = tandem.last_popped() + rng() % 50;
        for (int i = 0; i < 4; ++i) tandem.schedule(t);
      } else if (kind == 6) {
        tandem.schedule(tandem.last_popped() + 1'000'000 + rng() % 100'000);
      } else if (tandem.size() > 0) {
        tandem.pop_and_check();
      }
    }
    tandem.drain_and_check();
  }
}

TEST(CalendarQueueTest, ReserveMatchesUnreserved) {
  // reserve() only changes geometry, never order.
  Calendar reserved;
  reserved.reserve(500'000);
  Calendar plain;
  std::mt19937_64 rng(4);
  std::vector<std::uint64_t> times;
  for (int i = 0; i < 5'000; ++i) times.push_back(rng() % 1'000'000);
  for (std::size_t i = 0; i < times.size(); ++i) {
    reserved.schedule(times[i], Payload{i});
    plain.schedule(times[i], Payload{i});
  }
  while (!plain.empty()) {
    ASSERT_FALSE(reserved.empty());
    const auto a = plain.pop();
    const auto b = reserved.pop();
    ASSERT_EQ(a.first, b.first);
    ASSERT_EQ(a.second, b.second);
  }
  ASSERT_TRUE(reserved.empty());
}

// ----- LaneQueue ------------------------------------------------------------

constexpr std::uint64_t kLaneItem = std::uint64_t{1} << 63;

/// Lane items carry their (lane id, index) so a pop order mismatch names
/// the item; scheduled payloads are small sequential ids.
Payload lane_payload(std::size_t lane_id, std::size_t index) {
  return Payload{kLaneItem | (std::uint64_t{lane_id} << 32) | index};
}

struct MakeLanePayload {
  Payload operator()(std::size_t lane_id, std::size_t index) const {
    return lane_payload(lane_id, index);
  }
};

using Lanes = sim::LaneQueue<Payload, MakeLanePayload>;

/// Drives a LaneQueue and the EventQueue oracle side by side. The oracle
/// gets every lane item scheduled up front, lanes in add order; then both
/// get the same schedule() calls.
class LaneTandem {
 public:
  explicit LaneTandem(std::vector<std::vector<std::uint64_t>> lanes)
      : times_(std::move(lanes)) {
    for (std::size_t l = 0; l < times_.size(); ++l) {
      const std::size_t id = 7 * l + 3;  // ids are the caller's, not indices
      lanes_.add_lane(id, times_[l]);
      for (std::size_t i = 0; i < times_[l].size(); ++i) {
        oracle_.schedule(times_[l][i], lane_payload(id, i));
      }
    }
  }

  void schedule(std::uint64_t time) {
    oracle_.schedule(time, Payload{next_id_});
    lanes_.schedule(time, Payload{next_id_});
    ++next_id_;
  }

  /// The empty()/next_time() pair process_window reads before each pop.
  void peek_and_check() {
    ASSERT_EQ(oracle_.empty(), lanes_.empty());
    if (!oracle_.empty()) {
      ASSERT_EQ(oracle_.next_time(), lanes_.next_time());
    }
  }

  void pop_and_check() {
    peek_and_check();
    ASSERT_FALSE(oracle_.empty());
    const auto [oracle_time, oracle_event] = oracle_.pop();
    const auto [lane_time, lane_event] = lanes_.pop();
    ASSERT_EQ(oracle_time, lane_time);
    ASSERT_EQ(oracle_event, lane_event);
    last_popped_ = oracle_time;
    ++pops_;
  }

  void drain_and_check() {
    while (!oracle_.empty()) pop_and_check();
    ASSERT_TRUE(lanes_.empty());
  }

  std::uint64_t last_popped() const { return last_popped_; }
  std::size_t size() const { return oracle_.size(); }
  std::size_t pops() const { return pops_; }
  const std::vector<std::vector<std::uint64_t>>& lane_times() const {
    return times_;
  }

 private:
  std::vector<std::vector<std::uint64_t>> times_;  // outlives lanes_' spans
  Heap oracle_;
  Lanes lanes_;
  std::uint64_t next_id_ = 0;
  std::uint64_t last_popped_ = 0;
  std::size_t pops_ = 0;
};

TEST(LaneQueueTest, EqualTimesPopLanesFirstInAddOrder) {
  LaneTandem tandem({{5, 5, 7}, {}, {5, 6, 7}});
  tandem.schedule(5);
  tandem.schedule(4);
  tandem.schedule(7);
  tandem.drain_and_check();
  EXPECT_EQ(tandem.pops(), 9u);
}

TEST(LaneQueueTest, ZeroLanesBehaveAsTheCalendar) {
  LaneTandem tandem({});
  std::mt19937_64 rng(21);
  for (int step = 0; step < 20'000; ++step) {
    if (rng() % 3 != 0) {
      tandem.schedule(tandem.last_popped() + rng() % 200);
    } else if (tandem.size() > 0) {
      tandem.pop_and_check();
    }
  }
  tandem.drain_and_check();
}

TEST(LaneQueueTest, OnlyEmptyLanes) {
  LaneTandem tandem({{}, {}, {}});
  tandem.peek_and_check();
  tandem.schedule(3);
  tandem.schedule(0);
  tandem.drain_and_check();
}

/// `count` lanes of packet-like arrival runs: non-decreasing, gaps of 0-18
/// cycles (0 gives equal times inside a lane), some lanes empty and some
/// duplicating another lane so heads tie across lanes.
std::vector<std::vector<std::uint64_t>> random_lanes(std::mt19937_64& rng,
                                                     std::size_t count) {
  std::vector<std::vector<std::uint64_t>> lanes(count);
  for (std::size_t l = 0; l < count; ++l) {
    const std::uint64_t shape = rng() % 5;
    if (shape == 0) continue;  // empty lane
    if (shape == 1 && l > 0) {
      lanes[l] = lanes[rng() % l];
      continue;
    }
    const std::size_t items = rng() % 2'000;
    std::uint64_t t = rng() % 64;
    for (std::size_t i = 0; i < items; ++i) {
      t += rng() % 19;
      lanes[l].push_back(t);
    }
  }
  return lanes;
}

TEST(LaneQueueTest, RandomizedTapeAgainstEventQueue) {
  // Dynamic schedules at now, now + 1, near the frontier, beyond one wheel
  // lap, in the past, and exactly on a lane's item times; empty() and
  // next_time() are read before every pop, as process_window does.
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u, 35u, 36u}) {
    std::mt19937_64 rng(seed);
    constexpr std::size_t kLaneCounts[] = {0, 1, 3, 19};
    const std::size_t lane_count = kLaneCounts[seed % 4];
    LaneTandem tandem(random_lanes(rng, lane_count));
    for (int step = 0; step < 40'000; ++step) {
      const std::uint64_t now = tandem.last_popped();
      switch (rng() % 12) {
        case 0: tandem.schedule(now); break;
        case 1: tandem.schedule(now + 1); break;
        case 2: tandem.schedule(now + rng() % 300); break;
        case 3: tandem.schedule(now + 1'000'000 + rng() % 100'000); break;
        case 4:
          tandem.schedule(now - std::min<std::uint64_t>(now, rng() % 50));
          break;
        case 5: {
          const auto& lanes = tandem.lane_times();
          if (lanes.empty()) break;
          const auto& lane = lanes[rng() % lanes.size()];
          if (lane.empty()) break;
          // A lane item time at or after the frontier, when one remains.
          const auto it = std::lower_bound(lane.begin(), lane.end(), now);
          tandem.schedule(it != lane.end() ? *it : lane.back());
          break;
        }
        case 6: tandem.peek_and_check(); break;
        default:
          if (tandem.size() > 0) tandem.pop_and_check();
          break;
      }
    }
    tandem.drain_and_check();
  }
}

}  // namespace
