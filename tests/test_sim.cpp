#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace harmony::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TieBreaksFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// An event queued late under a reserved sequence number pops exactly where
// it would have had it been scheduled at reservation time: after same-instant
// events scheduled before the reservation, before those scheduled after it.
TEST(Simulator, ReservedSequenceKeepsItsPlace) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(0); });
  const std::uint64_t first = sim.reserve_seqs(3);
  sim.schedule_at(5.0, [&] { order.push_back(4); });
  sim.schedule_at(1.0, [&] {
    // Queued out of order and long after the reservation.
    sim.schedule_reserved(5.0, first + 2, [&] { order.push_back(3); });
    sim.schedule_reserved(5.0, first, [&] {
      order.push_back(1);
      // Chained from inside a reserved event, as ClusterSim's arrivals are.
      sim.schedule_reserved(5.0, first + 1, [&] { order.push_back(2); });
    });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, UnreservedSequenceThrows) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const std::uint64_t first = sim.reserve_seqs(2);
  EXPECT_THROW(sim.schedule_reserved(2.0, first + 2, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_reserved(2.0, 0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(sim.schedule_reserved(2.0, first + 1, [] {}));
}

TEST(Simulator, CancelIsNoopAfterFire) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // harmless
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsFire) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(0.5, [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(1.0, [&] { sim.schedule_in(2.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] { sim.schedule_in(1.0, tick); };
  sim.schedule_in(1.0, tick);
  sim.run(100);
  EXPECT_EQ(sim.events_fired(), 100u);
}

// ---------------------------------------------------------------------------
// Event-queue behaviour: (time, seq) pop order, run_until re-insertion,
// cancellation and orphan compaction.

TEST(EventQueue, FireOrderAndFifoTieBreak) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(20); });
  sim.schedule_at(1.0, [&] { order.push_back(10); });
  sim.schedule_at(1.0, [&] { order.push_back(11); });  // same instant: FIFO
  sim.schedule_at(1.0, [&] { order.push_back(12); });
  sim.schedule_at(0.5, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 11, 12, 20}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(EventQueue, FarFutureEventsFireInOrder) {
  // Timestamps spanning ten orders of magnitude, interleaved with near-term
  // work.
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1e9, 0.25, 3e6, 2.0, 7e4, 0.5, 1e9, 12.0})
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run();
  const std::vector<double> want{0.25, 0.5, 2.0, 12.0, 7e4, 3e6, 1e9, 1e9};
  EXPECT_EQ(fired, want);
}

TEST(EventQueue, RunUntilDoesNotDisturbTieOrder) {
  // run_until pops one event past the horizon and re-inserts it; the
  // re-inserted node must keep its place among same-instant peers.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.run_until(4.0);
  EXPECT_TRUE(order.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelledEventsNeverFire) {
  Simulator sim;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(sim.schedule_at(1.0 + i, [&] { ++fired; }));
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
  sim.run();
  EXPECT_EQ(fired, 50);
  EXPECT_TRUE(sim.empty());
}

TEST(EventQueue, SelfCancelDuringFireIsNoop) {
  // Cancelling the event that is currently firing, from inside its own
  // callback, must be harmless (the generation already bumped).
  Simulator sim;
  int fired = 0;
  EventId id = kInvalidEvent;
  id = sim.schedule_at(1.0, [&] {
    ++fired;
    sim.cancel(id);
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.empty());
}

TEST(EventQueue, OrphanCompactionBoundsQueueGrowth) {
  // Lazy deletion leaves cancelled nodes in the queue. Aggressive
  // cancel/reschedule churn must not grow the queue without bound: the
  // compaction trigger caps queue nodes at 2 * live + 64.
  Simulator sim;
  int fired = 0;
  std::vector<EventId> live;
  // A small set of survivors plus a huge churn of cancelled events.
  for (int i = 0; i < 8; ++i)
    live.push_back(sim.schedule_at(1e6 + i, [&] { ++fired; }));
  for (int round = 0; round < 2000; ++round) {
    const EventId id = sim.schedule_at(10.0 + round, [&] { ++fired; });
    sim.cancel(id);
    ASSERT_LE(sim.queue_nodes(), 2 * sim.pending() + 64)
        << "round " << round << ": orphans accumulate without bound";
  }
  EXPECT_EQ(sim.pending(), 8u);
  sim.run();
  EXPECT_EQ(fired, 8);
}

TEST(EventQueue, ValidatorCleanOnBusyQueue) {
  Simulator sim;
  for (int i = 0; i < 500; ++i) sim.schedule_at(0.5 * i, [] {});
  for (double t : {1e7, 2e9, 5e4}) sim.schedule_at(t, [] {});
  // Drain a prefix so the heap has been popped and re-sifted.
  sim.run(200);
  check::Validation v("sim");
  sim.validate(v);
  EXPECT_TRUE(v.report().ok()) << v.report().to_string();
}

TEST(EventQueue, ValidatorDetectsClockCorruption) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.corrupt_clock_for_test(100.0);
  check::Validation v("sim");
  sim.validate(v);
  const auto report = v.report();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("ran past pending event"), std::string::npos)
      << report.to_string();
}

// ---------------------------------------------------------------------------

TEST(FifoResource, ServesSequentially) {
  Simulator sim;
  FifoResource r(sim, "cpu");
  std::vector<double> done_at;
  r.submit(2.0, [&] { done_at.push_back(sim.now()); });
  r.submit(3.0, [&] { done_at.push_back(sim.now()); });
  r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done_at, (std::vector<double>{2.0, 5.0, 6.0}));
}

TEST(FifoResource, BusyTimeExcludesIdle) {
  Simulator sim;
  FifoResource r(sim, "cpu");
  r.submit(2.0, [] {});
  sim.run();
  sim.schedule_at(10.0, [&] { r.submit(1.0, [] {}); });
  sim.run();
  EXPECT_DOUBLE_EQ(r.busy_time(), 3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 11.0);
}

TEST(FifoResource, CancelPending) {
  Simulator sim;
  FifoResource r(sim, "cpu");
  int done = 0;
  r.submit(2.0, [&] { ++done; });
  const TaskId second = r.submit(2.0, [&] { ++done; });
  EXPECT_TRUE(r.cancel_pending(second));
  EXPECT_FALSE(r.cancel_pending(second));
  sim.run();
  EXPECT_EQ(done, 1);
}

TEST(FifoResource, CompletionCanResubmit) {
  Simulator sim;
  FifoResource r(sim, "cpu");
  int rounds = 0;
  std::function<void()> again = [&] {
    if (++rounds < 3) r.submit(1.0, again);
  };
  r.submit(1.0, again);
  sim.run();
  EXPECT_EQ(rounds, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SharedResource, SingleTaskRunsAtFullRate) {
  Simulator sim;
  SharedResource r(sim, "net", 2.0);  // 2 units/sec
  double done_at = -1.0;
  r.submit(4.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(SharedResource, TwoTasksShareCapacity) {
  Simulator sim;
  SharedResource r(sim, "net", 1.0);
  std::vector<double> done_at;
  r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 2u);
  // Each gets rate 1/2, so both finish at t = 2.
  EXPECT_NEAR(done_at[0], 2.0, 1e-9);
  EXPECT_NEAR(done_at[1], 2.0, 1e-9);
}

TEST(SharedResource, LateArrivalSlowsFirstTask) {
  Simulator sim;
  SharedResource r(sim, "net", 1.0);
  double first_done = -1.0, second_done = -1.0;
  r.submit(2.0, [&] { first_done = sim.now(); });
  sim.schedule_at(1.0, [&] { r.submit(0.5, [&] { second_done = sim.now(); }); });
  sim.run();
  // First task: 1s alone (1 unit done), then shares; remaining 1 unit at rate
  // 1/2 while the 0.5-unit task drains (done at t=2), then full rate again:
  // at t=2 first has 0.5 left -> finishes at 2.5.
  EXPECT_NEAR(second_done, 2.0, 1e-9);
  EXPECT_NEAR(first_done, 2.5, 1e-9);
}

TEST(SharedResource, InterferencePenaltySlowsEveryone) {
  Simulator sim;
  SharedResource r(sim, "cpu", 1.0, 0.5);  // 50% penalty per extra task
  std::vector<double> done_at;
  r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  sim.run();
  // Rate per task = 1 / 2 / (1 + 0.5) = 1/3 -> both done at t = 3 (vs 2
  // without interference).
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_NEAR(done_at[1], 3.0, 1e-9);
}

TEST(SharedResource, WorkCompletedAccounting) {
  Simulator sim;
  SharedResource r(sim, "cpu", 1.0);
  r.submit(3.0, [] {});
  r.submit(1.0, [] {});
  sim.run();
  EXPECT_NEAR(r.work_completed(), 4.0, 1e-9);
  EXPECT_NEAR(r.busy_time(), 4.0, 1e-9);  // work-conserving
}

TEST(SharedResource, CompletionOrderSurvivesInsertionHistoryPerturbation) {
  // Thirteen equal tasks all finish in the same settle, so the callback
  // firing order is exactly the task-ledger iteration order. Run the batch
  // once on a fresh resource and once after a churn phase that forces
  // erases/rehashes in the ledger first: a hash-ordered ledger diverges
  // under that perturbation, the ordered ledger must stay byte-identical
  // to submission order.
  auto run = [](bool churn) {
    Simulator sim;
    SharedResource r(sim, "cpu", 1.0);
    if (churn)
      for (int i = 0; i < 7; ++i) r.submit(0.25 * (i + 1), [] {});
    std::vector<int> order;
    const double start = churn ? 100.0 : 0.0;
    sim.schedule_at(start, [&] {
      for (int i = 0; i < 13; ++i)
        r.submit(5.0, [&order, i] { order.push_back(i); });
    });
    sim.run();
    return order;
  };
  const std::vector<int> fresh = run(false);
  ASSERT_EQ(fresh.size(), 13u);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(fresh[i], i);  // submission order
  EXPECT_EQ(fresh, run(true));
}

TEST(SharedResource, ZeroWorkCompletesImmediately) {
  Simulator sim;
  SharedResource r(sim, "cpu", 1.0);
  bool done = false;
  r.submit(0.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

class SharedFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(SharedFairnessSweep, NEqualTasksFinishTogether) {
  const int n = GetParam();
  Simulator sim;
  SharedResource r(sim, "cpu", 1.0);
  std::vector<double> done_at;
  for (int i = 0; i < n; ++i) r.submit(1.0, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), static_cast<std::size_t>(n));
  for (double d : done_at) EXPECT_NEAR(d, static_cast<double>(n), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Fairness, SharedFairnessSweep, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace harmony::sim
