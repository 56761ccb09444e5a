// Lane queue: a CalendarQueue for the events a run creates, merged with
// pre-scheduled, time-sorted lanes that are read in place.
//
// A simulation knows many of its events before it starts — the router's
// packet arrivals, update injects and rebalancer ticks — each as a
// non-decreasing run of times. Filing all of them into the calendar up
// front costs one queue entry per event and makes every pop a cold read
// from a structure as large as the whole run. LaneQueue keeps each such run
// as a lane instead: a span of times plus a caller-chosen lane id. A small
// min-heap holds one head per non-empty lane, and a lane item's Event is
// built only when it pops, by the caller's make(lane_id, index).
//
// Ordering contract: pops come out in exactly the order an EventQueue gives
// when every lane item is scheduled first — lanes in add_lane() order, each
// lane in index order — followed by the schedule() calls. A lane item's key
// is its position in that insertion order, so lane heads merge by
// (time, key); on equal times a lane item pops before any scheduled event,
// and the rest is CalendarQueue's own (time, seq) order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/calendar_queue.h"

namespace spal::sim {

/// `MakeEvent` is callable as make(std::size_t lane_id, std::size_t index)
/// and returns the Event of item `index` of the lane added under `lane_id`.
template <typename Event, typename MakeEvent>
class LaneQueue {
 public:
  explicit LaneQueue(MakeEvent make = MakeEvent{}) : make_(std::move(make)) {}

  /// Adds a pre-scheduled lane. `times` must be non-decreasing and stay
  /// valid and unchanged until the lane has drained.
  void add_lane(std::size_t lane_id, std::span<const std::uint64_t> times) {
    const auto lane = static_cast<std::uint32_t>(lanes_.size());
    lanes_.push_back(Lane{times.data(), times.size(), lane_id, next_key_});
    if (!times.empty()) {
      heads_.push_back(Head{times.front(), next_key_, lane});
      sift_up(heads_.size() - 1);
    }
    next_key_ += times.size();
  }

  void schedule(std::uint64_t time, Event event) {
    dynamic_.schedule(time, std::move(event));
  }

  bool empty() const { return heads_.empty() && dynamic_.empty(); }

  /// Earliest pending event time; callers must check empty() first.
  std::uint64_t next_time() const {
    assert(!empty() && "LaneQueue::next_time() on empty queue");
    if (heads_.empty()) return dynamic_.next_time();
    if (dynamic_.empty()) return heads_.front().time;
    return std::min(heads_.front().time, dynamic_.next_time());
  }

  /// Pops the earliest event; callers check empty().
  std::pair<std::uint64_t, Event> pop() {
    assert(!empty() && "LaneQueue::pop() on empty queue");
    if (heads_.empty() ||
        (!dynamic_.empty() && dynamic_.next_time() < heads_.front().time)) {
      return dynamic_.pop();
    }
    Head& top = heads_.front();
    const Lane& lane = lanes_[top.lane];
    const std::uint64_t time = top.time;
    const auto index = static_cast<std::size_t>(top.key - lane.first_key);
    if (index + 1 < lane.size) {
      top.time = lane.times[index + 1];
      ++top.key;
    } else {
      top = heads_.back();
      heads_.pop_back();
    }
    if (!heads_.empty()) sift_down(0);
    return {time, make_(lane.id, index)};
  }

 private:
  struct Lane {
    const std::uint64_t* times;
    std::size_t size;
    std::size_t id;
    std::uint64_t first_key;  ///< key of times[0]
  };

  struct Head {
    std::uint64_t time;
    std::uint64_t key;
    std::uint32_t lane;
  };

  static bool before(const Head& a, const Head& b) {
    return a.time != b.time ? a.time < b.time : a.key < b.key;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heads_[i], heads_[parent])) return;
      std::swap(heads_[i], heads_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heads_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t left = 2 * i + 1;
      if (left < n && before(heads_[left], heads_[best])) best = left;
      const std::size_t right = left + 1;
      if (right < n && before(heads_[right], heads_[best])) best = right;
      if (best == i) return;
      std::swap(heads_[i], heads_[best]);
      i = best;
    }
  }

  std::vector<Lane> lanes_;
  std::vector<Head> heads_;  ///< min-heap on (time, key), one per live lane
  CalendarQueue<Event> dynamic_;
  MakeEvent make_;
  std::uint64_t next_key_ = 0;
};

}  // namespace spal::sim
