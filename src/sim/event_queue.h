// Pending-event priority queue for the DES core.
//
// A queue node is 24 bytes of plain data: fire time, a global sequence number
// (FIFO tie-break for same-instant events — the determinism contract the
// golden tests pin), and the (slot, generation) handle of the callback in the
// EventArena. Cancellation never touches the queue; a node whose generation
// no longer matches its arena slot is an orphan and is dropped when popped,
// or swept out by compact() when orphans pile up.
//
// The queue is a binary min-heap (std::push_heap/pop_heap, O(log n) per op).
// A simulation's pending population is bounded by its scheduled arrivals plus
// in-flight subtasks, so the heap is never deep enough for an O(1) bucketed
// queue to pay for its extra code (DESIGN.md, "Event queue & memory layout").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "sim/event_arena.h"

namespace harmony::sim {

struct EventNode {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

// Strict total pop order: earliest time first, then scheduling order.
inline bool node_before(const EventNode& a, const EventNode& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

class BinaryHeapQueue {
 public:
  void push(const EventNode& n);
  // Pops the minimum node (live or orphan — the caller filters orphans).
  // Returns false when empty.
  bool pop_min(EventNode& out);
  std::size_t size() const noexcept { return heap_.size(); }
  // Drops nodes whose arena handle is stale; pop order of the survivors is
  // unchanged (the heap is rebuilt over the same (time, seq) keys).
  void compact(const EventArena& arena);

  template <typename F>
  void for_each(F&& f) const {
    for (const EventNode& n : heap_) f(n);
  }

  void validate_structure(check::Validation& v) const;
  // Swaps the root below a larger leaf so validate_structure can demonstrate
  // detection of a broken heap invariant.
  void corrupt_order_for_test();
  void push_duplicate_for_test();

 private:
  std::vector<EventNode> heap_;
};

}  // namespace harmony::sim
