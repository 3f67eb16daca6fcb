// The seed's future-event list: a binary min-heap over a fat event that
// carries its kCall closure inline (104 bytes with the std::function).
//
// src/sim/event_queue.h replaced it with a calendar queue over a 64-byte
// event.  This copy is the reference model the replacement is held to:
//   * tests/test_event_queue.cpp and tests/test_heavy_traffic.cpp replay
//     push/pop streams through both and require identical
//     (time, priority, seq) pop order;
//   * bench/bench_throughput.cpp replays a recorded million-op push/pop log
//     through both and gates the calendar at >= 3x the heap's speed.
// The heap machinery (later / heap_push / heap_pop / sift_up / sift_down)
// is the seed's code unchanged; only the wrapper around it is new.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"
#include "common/timestamp.h"
#include "sim/event_queue.h"

namespace linbound::seed {

/// The seed event: every operand inline, closure included.
struct FatEvent {
  Tick time = 0;
  int priority = 1;
  std::uint64_t seq = 0;  ///< global insertion order; the final tie-break
  EventKind kind = EventKind::kCall;

  ProcessId pid = kNoProcess;               ///< invoke/timer/crash/recover
  std::int64_t a = 0;                       ///< token / timer id / record index
  int epoch = 0;                            ///< timer: arming incarnation
  int tag_kind = 0;                         ///< timer: TimerTag::kind
  Timestamp tag_ts{};                       ///< timer: TimerTag::ts
  const MessagePayload* payload = nullptr;  ///< deliver
  std::function<void()> fn;                 ///< kCall only

  /// Run a kCall event's callback.
  void fire() { fn(); }
};

class SeedHeap {
 public:
  std::uint64_t push(Tick time, std::function<void()> fire) {
    return push(time, EventPriority::kNormal, std::move(fire));
  }
  std::uint64_t push(Tick time, EventPriority priority,
                     std::function<void()> fire) {
    FatEvent ev;
    ev.kind = EventKind::kCall;
    ev.fn = std::move(fire);
    return push_typed(time, priority, std::move(ev));
  }

  /// Insert a typed event; `ev.time`, `ev.priority` and `ev.seq` are
  /// assigned here, exactly as EventQueue::push_typed does.
  std::uint64_t push_typed(Tick time, EventPriority priority, FatEvent ev) {
    const std::uint64_t seq = next_seq_++;
    ev.time = time;
    ev.priority = static_cast<int>(priority);
    ev.seq = seq;
    heap_push(heap_, std::move(ev));
    return seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Tick next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }
  FatEvent pop() { return heap_pop(heap_); }
  void reserve(std::size_t events) { heap_.reserve(events); }

 private:
  /// Strict "a fires after b" on (time, priority, seq).
  static bool later(const FatEvent& a, const FatEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }

  template <typename E>
  static void heap_push(std::vector<E>& heap, E ev) {
    heap.push_back(std::move(ev));
    sift_up(heap, heap.size() - 1);
  }
  template <typename E>
  static E heap_pop(std::vector<E>& heap) {
    assert(!heap.empty());
    E out = std::move(heap.front());
    heap.front() = std::move(heap.back());
    heap.pop_back();
    if (!heap.empty()) sift_down(heap, 0);
    return out;
  }
  template <typename E>
  static void sift_up(std::vector<E>& heap, std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!later(heap[parent], heap[i])) break;
      std::swap(heap[parent], heap[i]);
      i = parent;
    }
  }
  template <typename E>
  static void sift_down(std::vector<E>& heap, std::size_t i) {
    const std::size_t n = heap.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t best = i;
      if (l < n && later(heap[best], heap[l])) best = l;
      if (r < n && later(heap[best], heap[r])) best = r;
      if (best == i) return;
      std::swap(heap[i], heap[best]);
      i = best;
    }
  }

  std::uint64_t next_seq_ = 0;
  std::vector<FatEvent> heap_;
};

}  // namespace linbound::seed
