#include "sim/simulator.h"

#include <vector>

namespace harmony::sim {

void Simulator::maybe_compact() {
  // Lazy deletion leaves the cancelled node behind; sweep the orphans out
  // once they outnumber the live events (the +64 floor avoids thrashing tiny
  // queues). Pop order is unaffected — survivors keep their (time, seq) keys.
  if (queue_nodes() > 2 * arena_.live() + 64) heap_.compact(arena_);
}

void Simulator::cancel(EventId id) {
  // Cancelling an already-fired or unknown id is a harmless no-op; the arena
  // generation check rejects stale handles in O(1).
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (arena_.cancel(slot, gen)) maybe_compact();
}

bool Simulator::step() {
  EventNode node;
  while (heap_.pop_min(node)) {
    if (!arena_.begin_fire(node.slot, node.gen)) continue;  // cancelled orphan
    // Pops must be time-monotonic or causality breaks silently downstream.
    HARMONY_DCHECK(node.time >= now_)
        << "event " << node.seq << " fires at " << node.time << " but clock is at "
        << now_;
    now_ = node.time;
    ++fired_;
    arena_.fire_and_release(node.slot);
    return true;
  }
  return false;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

void Simulator::run_until(double t) {
  EventNode node;
  while (heap_.pop_min(node)) {
    if (!arena_.is_live(node.slot, node.gen)) continue;  // drop orphans cheaply
    if (node.time > t) {
      // Went one past the horizon: re-insert. The node keeps its (time, seq)
      // key, so FIFO order within its instant is preserved.
      heap_.push(node);
      break;
    }
    if (!arena_.begin_fire(node.slot, node.gen)) continue;
    HARMONY_DCHECK(node.time >= now_)
        << "event " << node.seq << " fires at " << node.time << " but clock is at "
        << now_;
    now_ = node.time;
    ++fired_;
    arena_.fire_and_release(node.slot);
  }
  if (t > now_) now_ = t;
}

void Simulator::validate(check::Validation& v) const {
  // Brute-force recount of queue nodes per live event, and the true minimum
  // over live pending events.
  std::vector<std::uint8_t> node_count(arena_.slots(), 0);
  std::size_t live_nodes = 0;
  const EventNode* min_live = nullptr;
  EventNode min_copy{};
  auto visit = [&](const EventNode& n) {
    if (!arena_.is_live(n.slot, n.gen)) return;  // orphan of a cancelled event
    ++node_count[n.slot];
    ++live_nodes;
    if (min_live == nullptr || node_before(n, *min_live)) {
      min_copy = n;
      min_live = &min_copy;
    }
  };
  heap_.for_each(visit);

  HARMONY_VALIDATE(v, live_nodes == arena_.live())
      << "arena holds " << arena_.live() << " live events but the queue holds nodes for "
      << live_nodes << " of them";
  for (std::size_t slot = 0; slot < node_count.size(); ++slot)
    HARMONY_VALIDATE(v, node_count[slot] <= 1)
        << "event in arena slot " << slot << " has "
        << static_cast<unsigned>(node_count[slot]) << " queue nodes (expected exactly 1)";
  if (min_live != nullptr) {
    HARMONY_VALIDATE(v, min_live->time >= now_)
        << "clock " << now_ << " ran past pending event " << min_live->seq << " at "
        << min_live->time << " (event-queue pops would be non-monotonic)";
  }
  heap_.validate_structure(v);
}

}  // namespace harmony::sim
