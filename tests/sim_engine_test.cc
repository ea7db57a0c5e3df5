#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"

namespace unifab {
namespace {

TEST(EngineTest, StartsAtTimeZeroAndIdle) {
  Engine e;
  EXPECT_EQ(e.Now(), 0u);
  EXPECT_TRUE(e.Idle());
  EXPECT_EQ(e.PendingEvents(), 0u);
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(FromNs(30), [&] { order.push_back(3); });
  e.Schedule(FromNs(10), [&] { order.push_back(1); });
  e.Schedule(FromNs(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), FromNs(30));
}

TEST(EngineTest, SameTickEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(FromNs(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EngineTest, NestedSchedulingAdvancesTime) {
  Engine e;
  Tick inner_fired_at = 0;
  e.Schedule(FromNs(10), [&] {
    e.Schedule(FromNs(5), [&] { inner_fired_at = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(inner_fired_at, FromNs(15));
}

TEST(EngineTest, RunUntilStopsAtDeadlineAndSetsNow) {
  Engine e;
  int fired = 0;
  e.Schedule(FromNs(10), [&] { ++fired; });
  e.Schedule(FromNs(100), [&] { ++fired; });
  const std::size_t n = e.RunUntil(FromNs(50));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.Now(), FromNs(50));
  e.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunForIsRelative) {
  Engine e;
  e.Schedule(FromNs(10), [] {});
  e.RunFor(FromNs(20));
  EXPECT_EQ(e.Now(), FromNs(20));
  e.RunFor(FromNs(20));
  EXPECT_EQ(e.Now(), FromNs(40));
}

TEST(EngineTest, StepLimitsEventCount) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.Schedule(FromNs(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(e.Step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Step(10), 3u);
  EXPECT_EQ(fired, 5);
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine e;
  int fired = 0;
  const EventId id = e.Schedule(FromNs(10), [&] { ++fired; });
  e.Schedule(FromNs(20), [&] { ++fired; });
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(id));  // double-cancel reports failure
  e.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, CancelAfterFireReturnsFalse) {
  Engine e;
  const EventId id = e.Schedule(FromNs(1), [] {});
  e.Run();
  EXPECT_FALSE(e.Cancel(id));
}

TEST(EngineTest, TotalFiredCounts) {
  Engine e;
  for (int i = 0; i < 7; ++i) {
    e.Schedule(FromNs(i), [] {});
  }
  e.Run();
  EXPECT_EQ(e.TotalFired(), 7u);
}

TEST(EngineTest, LateScheduleClampsToNowAndFlagsAuditor) {
  Engine engine;
  Tick fired_at = 0;
  engine.Schedule(1000, [&engine, &fired_at] {
    // A stale callback computing an absolute time from cached state lands
    // behind the clock; the engine must clamp instead of corrupting tick
    // order (and must never fire the event "in the past").
    engine.ScheduleAt(250, [&engine, &fired_at] { fired_at = engine.Now(); });
  });
  engine.Run();

  EXPECT_EQ(fired_at, Tick{1000});
  EXPECT_EQ(engine.late_schedules(), 1u);

  const auto violations = engine.audit().Sweep();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path, "sim/engine/late_schedules");
}

TEST(EngineTest, OnTimeSchedulesDoNotTripTheLateCounter) {
  Engine engine;
  engine.Schedule(10, [&engine] { engine.ScheduleAt(engine.Now(), [] {}); });
  engine.Run();
  EXPECT_EQ(engine.late_schedules(), 0u);
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

TEST(EventQueueTest, EmptyAfterCancellingEverything) {
  EventQueue q;
  const EventId a = q.Push(5, [] {});
  const EventId b = q.Push(10, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  q.Cancel(b);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PopSkipsCancelledHead) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.Push(5, [&] { fired = 1; });
  q.Push(10, [&] { fired = 2; });
  q.Cancel(a);
  auto [when, id, fn] = q.Pop();
  EXPECT_EQ(when, 10u);
  EXPECT_NE(id, kInvalidEventId);
  fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelReclaimsRecordsEagerly) {
  // Cancelled events (e.g. far-future MSHR timeouts) must return to the
  // pool immediately, not linger until their tick surfaces — the pool
  // invariant AllocatedRecords() - FreeRecords() == Size() holds at rest.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.Push(1'000'000 + static_cast<Tick>(i), [] {}));
  }
  EXPECT_EQ(q.AllocatedRecords() - q.FreeRecords(), q.Size());
  for (const EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
    EXPECT_EQ(q.AllocatedRecords() - q.FreeRecords(), q.Size());
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.FreeRecords(), q.AllocatedRecords());
  // Reclaimed records are reused rather than growing the pool.
  const std::size_t allocated = q.AllocatedRecords();
  for (int i = 0; i < 100; ++i) {
    q.Push(static_cast<Tick>(i), [] {});
  }
  EXPECT_EQ(q.AllocatedRecords(), allocated);
}

TEST(EventQueueTest, StaleIdsNeverCancelReusedRecords) {
  // After a record is freed and reused, the old EventId's generation tag no
  // longer matches — cancelling it must not disturb the new occupant.
  EventQueue q;
  const EventId a = q.Push(5, [] {});
  ASSERT_TRUE(q.Cancel(a));
  int fired = 0;
  q.Push(7, [&] { fired = 1; });  // reuses the record slot `a` named
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  auto [when, id, fn] = q.Pop();
  EXPECT_EQ(when, 7u);
  fn();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Cancel(id));  // popped ids are stale too
}

TEST(EventQueueTest, FifoWithinTickAcrossManyTicks) {
  // Events popping in (when, schedule-order) order regardless of insertion
  // pattern — the determinism contract the calendar layout must preserve.
  EventQueue q;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    for (Tick t : {30u, 10u, 20u}) {
      const int tag = static_cast<int>(t) + round;
      q.Push(t, [&order, tag] { order.push_back(tag); });
    }
  }
  std::vector<int> got;
  while (!q.Empty()) {
    auto [when, id, fn] = q.Pop();
    fn();
    (void)when;
    (void)id;
  }
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 20, 21, 22, 30, 31, 32}));
}

TEST(EventQueueTest, LargeCapturesAndReschedulingChurn) {
  // Callables up to EventCallback::kInlineBytes live in the pooled record;
  // bigger ones spill to the heap but still run and destroy correctly.
  EventQueue q;
  struct Big {
    std::array<std::uint64_t, 32> payload;  // 256B: larger than inline buffer
  };
  auto big = std::make_shared<Big>();
  big->payload[31] = 77;
  std::uint64_t seen = 0;
  q.Push(1, [big, &seen] { seen = big->payload[31]; });
  std::array<char, 96> inline_blob{};
  inline_blob[95] = 5;
  int inline_seen = 0;
  q.Push(2, [inline_blob, &inline_seen] { inline_seen = inline_blob[95]; });
  while (!q.Empty()) {
    auto [when, id, fn] = q.Pop();
    fn();
    (void)when;
    (void)id;
  }
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(inline_seen, 5);
  EXPECT_EQ(big.use_count(), 1);  // the queue released its copy
}

}  // namespace
}  // namespace unifab
