// Engine-equivalence tests: the CalendarQueue must pop in exactly the same
// (time, insertion-seq) order as the binary-heap EventQueue, the pop-order
// oracle — including same-cycle bursts, far-future overflow, past
// schedules, and across automatic resizes.
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "sim/engine.h"

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

}  // namespace
