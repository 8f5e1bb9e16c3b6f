// Unit tests for the discrete-event engine and contended-resource models.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/resources.h"

namespace vmp::sim {
namespace {

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(3.0, [&] { order.push_back(3); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(EngineTest, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, NegativeDelayClampsToNow) {
  Engine engine;
  bool fired = false;
  engine.schedule(-5.0, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  double second_fire_time = -1;
  engine.schedule(1.0, [&] {
    engine.schedule(2.0, [&] { second_fire_time = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(second_fire_time, 3.0);
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // double cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, HandleNotPendingAfterFire) {
  Engine engine;
  EventHandle handle = engine.schedule(1.0, [] {});
  engine.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule(1.0, [&] { fired.push_back(1.0); });
  engine.schedule(5.0, [&] { fired.push_back(5.0); });
  const std::size_t n = engine.run_until(2.0);
  EXPECT_EQ(n, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[1], 5.0);
}

TEST(EngineTest, StepFiresExactlyOne) {
  Engine engine;
  int count = 0;
  engine.schedule(1.0, [&] { ++count; });
  engine.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, ScheduleAtPastTimeClamps) {
  Engine engine;
  engine.schedule(5.0, [] {});
  engine.run();
  double fire_time = -1;
  engine.schedule_at(1.0, [&] { fire_time = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fire_time, 5.0);
}

// -- Schedule policy seam ------------------------------------------------------

namespace {
/// Always fires the co-enabled event with the HIGHEST seq (reverse FIFO).
class PickLast : public SchedulePolicy {
 public:
  std::size_t pick(SimTime, const std::vector<Choice>& ready) override {
    return ready.size() - 1;
  }
};
/// Fires the first co-enabled event (the default order, but through the
/// gather-and-pick path instead of the fast path).
class PickFirst : public SchedulePolicy {
 public:
  std::size_t pick(SimTime, const std::vector<Choice>& ready) override {
    last_ready = ready;
    return 0;
  }
  std::vector<Choice> last_ready;
};
}  // namespace

TEST(EngineTest, EqualTimeFifoStableUnderHeapChurn) {
  // Pin the vector+pop_heap queue: scheduling order among equal-time events
  // survives arbitrary interleaving with earlier pops and later pushes.
  Engine engine;
  std::vector<int> order;
  engine.schedule(0.5, [&] {
    for (int i = 10; i < 15; ++i) {
      engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
  });
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(order.size(), 15u);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, PolicyPicksWhichTiedEventFires) {
  Engine engine;
  PickLast policy;
  engine.set_scheduler(&policy);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    engine.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  engine.schedule(2.0, [&order] { order.push_back(99); });  // untied: as-is
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 99}));
}

TEST(EngineTest, PolicySeesSeqAndTagOfEveryCoEnabledEvent) {
  Engine engine;
  PickFirst policy;
  engine.set_scheduler(&policy);
  engine.schedule(1.0, [] {}, "alpha");
  engine.schedule(1.0, [] {}, "beta");
  engine.step();
  ASSERT_EQ(policy.last_ready.size(), 2u);
  EXPECT_EQ(policy.last_ready[0].tag, "alpha");
  EXPECT_EQ(policy.last_ready[1].tag, "beta");
  EXPECT_LT(policy.last_ready[0].seq, policy.last_ready[1].seq);
}

TEST(EngineTest, OutOfRangePickFallsBackToFifo) {
  class PickBeyond : public SchedulePolicy {
   public:
    std::size_t pick(SimTime, const std::vector<Choice>& ready) override {
      return ready.size() + 7;
    }
  };
  Engine engine;
  PickBeyond policy;
  engine.set_scheduler(&policy);
  std::vector<int> order;
  engine.schedule(1.0, [&] { order.push_back(0); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EngineTest, CancelWhileQueuedAmongTies) {
  // The fired event cancels a tied loser that was gathered and re-queued:
  // the loser must not fire, and run() must terminate cleanly.
  Engine engine;
  PickFirst policy;
  engine.set_scheduler(&policy);
  bool victim_fired = false;
  EventHandle victim;
  engine.schedule(1.0, [&] { victim.cancel(); });
  victim = engine.schedule(1.0, [&] { victim_fired = true; });
  engine.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_FALSE(victim.pending());
}

TEST(EngineTest, FiredCallbackCanJoinNextDecisionWithNewEvent) {
  // An event scheduled DURING a tied firing at the same timestamp becomes
  // part of the next decision point.
  Engine engine;
  PickLast policy;
  engine.set_scheduler(&policy);
  std::vector<std::string> order;
  engine.schedule(1.0, [&] {
    order.push_back("first");
    engine.schedule_at(1.0, [&] { order.push_back("nested"); });
  });
  engine.run();
  // Only one event was enabled at the first decision; the nested event then
  // fires at the same sim time.
  EXPECT_EQ(order, (std::vector<std::string>{"first", "nested"}));
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(EngineTest, DecisionLogRecordsTiesOnlyUnderPolicy) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(1.0, [&] { order.push_back(0); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.run();
  EXPECT_TRUE(engine.decision_log().empty());  // no policy, no recording

  PickLast policy;
  engine.set_scheduler(&policy);
  engine.schedule(1.0, [&] { order.push_back(2); });
  engine.schedule(1.0, [&] { order.push_back(3); });
  engine.schedule(2.0, [&] { order.push_back(4); });
  engine.run();
  ASSERT_EQ(engine.decision_log().size(), 3u);
  const TieDecision& tie = engine.decision_log()[0];
  EXPECT_EQ(tie.ready.size(), 2u);
  EXPECT_EQ(tie.chosen, tie.ready[1]);  // PickLast chose the later seq
  EXPECT_EQ(engine.decision_log()[2].ready.size(), 1u);  // singleton logged
  engine.clear_decision_log();
  EXPECT_TRUE(engine.decision_log().empty());
}

TEST(EngineTest, RemovingPolicyRestoresDefaultTieBreak) {
  Engine engine;
  PickLast policy;
  engine.set_scheduler(&policy);
  engine.set_scheduler(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    engine.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// -- SharedBandwidth -----------------------------------------------------------

TEST(SharedBandwidthTest, SingleTransferTakesUnitsOverCapacity) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double done_at = -1;
  pipe.start(100.0, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(done_at, 10.0, 1e-9);
}

TEST(SharedBandwidthTest, TwoEqualTransfersShareFairly) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double a_done = -1, b_done = -1;
  pipe.start(100.0, [&] { a_done = engine.now(); });
  pipe.start(100.0, [&] { b_done = engine.now(); });
  engine.run();
  // Each gets 5 units/s: both complete at t=20.
  EXPECT_NEAR(a_done, 20.0, 1e-9);
  EXPECT_NEAR(b_done, 20.0, 1e-9);
}

TEST(SharedBandwidthTest, LateArrivalSlowsEarlierTransfer) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double a_done = -1, b_done = -1;
  pipe.start(100.0, [&] { a_done = engine.now(); });
  engine.schedule(5.0, [&] {
    pipe.start(50.0, [&] { b_done = engine.now(); });
  });
  engine.run();
  // A moves 50 units alone by t=5; then both share 5 u/s each, needing
  // 50 units each -> both finish at t=15.
  EXPECT_NEAR(a_done, 15.0, 1e-9);
  EXPECT_NEAR(b_done, 15.0, 1e-9);
}

TEST(SharedBandwidthTest, ShorterTransferFinishesFirstAndFreesShare) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double small_done = -1, big_done = -1;
  pipe.start(200.0, [&] { big_done = engine.now(); });
  pipe.start(50.0, [&] { small_done = engine.now(); });
  engine.run();
  // Shared until the small job's 50 units finish at t=10; the big job then
  // has 150 units left alone at 10 u/s -> done at t=25.
  EXPECT_NEAR(small_done, 10.0, 1e-9);
  EXPECT_NEAR(big_done, 25.0, 1e-9);
}

TEST(SharedBandwidthTest, ZeroUnitCompletesImmediately) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double done_at = -1;
  pipe.start(0.0, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(done_at, 0.0, 1e-9);
}

TEST(SharedBandwidthTest, CompletionCallbackCanStartNewTransfer) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  double second_done = -1;
  pipe.start(100.0, [&] {
    pipe.start(100.0, [&] { second_done = engine.now(); });
  });
  engine.run();
  EXPECT_NEAR(second_done, 20.0, 1e-9);
}

TEST(SharedBandwidthTest, AccountsTotalTransferred) {
  Engine engine;
  SharedBandwidth pipe(&engine, 10.0);
  pipe.start(30.0, nullptr);
  pipe.start(70.0, nullptr);
  engine.run();
  EXPECT_NEAR(pipe.total_transferred(), 100.0, 1e-6);
  EXPECT_EQ(pipe.active(), 0u);
}

TEST(SharedBandwidthTest, InvalidCapacityThrows) {
  Engine engine;
  EXPECT_THROW(SharedBandwidth(&engine, 0.0), std::invalid_argument);
}

// -- FifoServer ------------------------------------------------------------------

TEST(FifoServerTest, SingleServerSerializes) {
  Engine engine;
  FifoServer fifo(&engine, 1);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    fifo.submit(2.0, [&] { done.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
  EXPECT_NEAR(done[2], 6.0, 1e-9);
}

TEST(FifoServerTest, MultipleServersRunInParallel) {
  Engine engine;
  FifoServer fifo(&engine, 2);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    fifo.submit(3.0, [&] { done.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
  EXPECT_NEAR(done[3], 6.0, 1e-9);
}

TEST(FifoServerTest, QueueDepthVisible) {
  Engine engine;
  FifoServer fifo(&engine, 1);
  fifo.submit(1.0, nullptr);
  fifo.submit(1.0, nullptr);
  fifo.submit(1.0, nullptr);
  EXPECT_EQ(fifo.busy(), 1u);
  EXPECT_EQ(fifo.queued(), 2u);
  engine.run();
  EXPECT_EQ(fifo.busy(), 0u);
  EXPECT_EQ(fifo.queued(), 0u);
}

}  // namespace
}  // namespace vmp::sim
