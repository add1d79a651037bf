#include "sim/event_queue.h"

#include <algorithm>

namespace harmony::sim {

namespace {

// std::*_heap comparator for a min-heap over (time, seq).
struct NodeAfter {
  bool operator()(const EventNode& a, const EventNode& b) const noexcept {
    return node_before(b, a);
  }
};

}  // namespace

void BinaryHeapQueue::push(const EventNode& n) {
  heap_.push_back(n);
  std::push_heap(heap_.begin(), heap_.end(), NodeAfter{});
}

bool BinaryHeapQueue::pop_min(EventNode& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), NodeAfter{});
  out = heap_.back();
  heap_.pop_back();
  return true;
}

void BinaryHeapQueue::compact(const EventArena& arena) {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [&](const EventNode& n) { return !arena.is_live(n.slot, n.gen); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), NodeAfter{});
}

void BinaryHeapQueue::validate_structure(check::Validation& v) const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const EventNode& parent = heap_[(i - 1) / 2];
    const EventNode& child = heap_[i];
    HARMONY_VALIDATE(v, !node_before(child, parent))
        << "heap property violated between nodes " << (i - 1) / 2 << " and " << i
        << " (times " << parent.time << " vs " << child.time << ")";
  }
}

void BinaryHeapQueue::corrupt_order_for_test() {
  if (heap_.size() < 2) return;
  // Swap the root (minimum) with the maximum: the max on top is guaranteed to
  // order after at least one of its children.
  std::size_t max_i = 0;
  for (std::size_t i = 1; i < heap_.size(); ++i)
    if (node_before(heap_[max_i], heap_[i])) max_i = i;
  std::swap(heap_[0], heap_[max_i]);
}

void BinaryHeapQueue::push_duplicate_for_test() {
  if (heap_.empty()) return;
  push(heap_.front());
}

}  // namespace harmony::sim
