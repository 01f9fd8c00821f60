#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <tuple>
#include <vector>

namespace wvote {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim(1);
  EXPECT_EQ(sim.Now(), TimePoint());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, EventsRunInTimestampOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(Duration::Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Duration::Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Duration::Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), TimePoint() + Duration::Millis(30));
}

TEST(SimulatorTest, TiesRunInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ClockAdvancesOnlyThroughEvents) {
  Simulator sim(1);
  sim.Schedule(Duration::Millis(10), [&] { EXPECT_EQ(sim.Now().ToMicros(), 10000); });
  sim.Schedule(Duration::Millis(50), [&] { EXPECT_EQ(sim.Now().ToMicros(), 50000); });
  sim.Run();
}

TEST(SimulatorTest, EventsMayScheduleEvents) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    sim.Schedule(Duration::Millis(1), [&] {
      ++fired;
      sim.Schedule(Duration::Millis(1), [&] { ++fired; });
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(1);
  bool ran = false;
  EventHandle handle = sim.Schedule(Duration::Millis(5), [&] { ran = true; });
  handle.Cancel();
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterRunIsHarmless) {
  Simulator sim(1);
  EventHandle handle = sim.Schedule(Duration::Millis(5), [] {});
  sim.Run();
  handle.Cancel();  // no crash
}

TEST(SimulatorTest, DefaultEventHandleIsInert) {
  EventHandle handle;
  handle.Cancel();  // no crash
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(Duration::Millis(10), [&] { ++fired; });
  sim.Schedule(Duration::Millis(30), [&] { ++fired; });
  const size_t n = sim.RunUntil(TimePoint() + Duration::Millis(20));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), TimePoint() + Duration::Millis(20));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundary) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(Duration::Millis(20), [&] { ++fired; });
  sim.RunUntil(TimePoint() + Duration::Millis(20));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim(1);
  sim.RunFor(Duration::Millis(10));
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(sim.Now(), TimePoint() + Duration::Millis(20));
}

TEST(SimulatorTest, RunUntilDoneStopsAtTheEventThatMakesItTrue) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(Duration::Millis(10), [&] { ++fired; });
  sim.Schedule(Duration::Millis(20), [&] { ++fired; });
  sim.Schedule(Duration::Millis(30), [&] { ++fired; });
  EXPECT_TRUE(sim.RunUntil(TimePoint() + Duration::Millis(100), [&] { return fired == 2; }));
  EXPECT_EQ(sim.Now(), TimePoint() + Duration::Millis(20));
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(SimulatorTest, RunUntilDoneThatGivesUpEndsAtTheLimit) {
  // Giving up at 4.999s cascades the wheel toward the 5s event's slot; the
  // clock must follow to the limit, or a later insert between the old clock
  // and that slot would be filed behind the 5s event.
  Simulator sim(1);
  std::vector<int64_t> fired_at;
  auto record = [&] { fired_at.push_back(sim.Now().ToMicros()); };
  sim.Schedule(Duration::Seconds(5), record);
  EXPECT_FALSE(sim.RunUntil(TimePoint::FromMicros(4'999'000), [] { return false; }));
  EXPECT_EQ(sim.Now().ToMicros(), 4'999'000);
  sim.Schedule(Duration::Micros(500), record);
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<int64_t>{4'999'500, 5'000'000}));
}

TEST(SimulatorTest, StepOneProcessesExactlyOne) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] { ++fired; });
  sim.Schedule(Duration::Millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.StepOne());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.StepOne());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.StepOne());
}

TEST(SimulatorTest, PendingCount) {
  Simulator sim(1);
  sim.Schedule(Duration::Millis(1), [] {});
  sim.Schedule(Duration::Millis(2), [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.Run();
  EXPECT_EQ(sim.events_pending(), 0u);
}

// --- Timer-wheel specific coverage: ordering across levels, far-future
// overflow, cancellation races against the pooled/recycled nodes. ---

TEST(SimulatorTest, SameTimestampFifoSurvivesCascade) {
  // Events parked in a coarse wheel level get re-dealt into finer levels as
  // the clock approaches; ties must still run in scheduling order.
  Simulator sim(1);
  std::vector<int> order;
  const Duration far = Duration::Seconds(70);  // several levels up
  for (int i = 0; i < 32; ++i) {
    sim.Schedule(far, [&order, i] { order.push_back(i); });
  }
  // An intermediate event forces at least one cascade before the tied ones.
  sim.Schedule(Duration::Seconds(1), [] {});
  sim.Run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, InterleavedNearAndFarEventsRunInOrder) {
  Simulator sim(1);
  std::vector<int64_t> fire_times;
  // Delays spanning every wheel level, scheduled in scrambled order.
  const int64_t delays_us[] = {70'000'000'000, 3, 900'000, 64, 1,       12'000'000,
                               4095,           65'536,     0,  250'000, 7};
  for (int64_t d : delays_us) {
    sim.Schedule(Duration::Micros(d), [&fire_times, &sim] {
      fire_times.push_back(sim.Now().ToMicros());
    });
  }
  sim.Run();
  ASSERT_EQ(fire_times.size(), std::size(delays_us));
  for (size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
  EXPECT_EQ(fire_times.back(), 70'000'000'000);
}

TEST(SimulatorTest, FarFutureEventDoesNotOverflowTheWheel) {
  // Duration::Infinite() is ~292k years of microseconds; it must park in the
  // top level and stay there, not wrap into some near slot.
  Simulator sim(1);
  bool far_fired = false;
  bool near_fired = false;
  sim.Schedule(Duration::Infinite(), [&] { far_fired = true; });
  sim.Schedule(Duration::Millis(1), [&] { near_fired = true; });
  sim.RunFor(Duration::Seconds(3600));
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.Run();  // draining does reach it eventually
  EXPECT_TRUE(far_fired);
}

TEST(SimulatorTest, CancelThenFireReapsWithoutRunning) {
  Simulator sim(1);
  bool ran = false;
  EventHandle handle = sim.Schedule(Duration::Millis(5), [&] { ran = true; });
  sim.Schedule(Duration::Millis(10), [] {});
  handle.Cancel();
  EXPECT_EQ(sim.events_pending(), 2u);  // cancellation is lazy
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 1u);  // reaping is not processing
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulatorTest, ReapingCancelledEventsDoesNotAdvanceClock) {
  Simulator sim(1);
  EventHandle handle = sim.Schedule(Duration::Millis(5), [] {});
  handle.Cancel();
  sim.Schedule(Duration::Millis(20), [] {});
  // StepOne must skip the cancelled 5ms event and land on the 20ms one.
  EXPECT_TRUE(sim.StepOne());
  EXPECT_EQ(sim.Now().ToMicros(), 20'000);
}

TEST(SimulatorTest, SchedulingBelowAReapedCancelledEventStillFires) {
  // Regression: reaping a trailing cancelled event cascades the wheel toward
  // its far-future slot; a subsequent insert at a nearer timestamp must not
  // land behind the wheel's advanced position.
  Simulator sim(1);
  EventHandle far = sim.Schedule(Duration::Seconds(1000), [] {});
  far.Cancel();
  EXPECT_FALSE(sim.StepOne());  // reaps the cancelled node, wheel now empty
  EXPECT_EQ(sim.Now(), TimePoint());
  bool ran = false;
  sim.Schedule(Duration::Millis(5), [&] { ran = true; });
  EXPECT_TRUE(sim.StepOne());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now().ToMicros(), 5'000);
}

TEST(SimulatorTest, StaleHandleCannotCancelRecycledNode) {
  // Fire-then-cancel race: after an event fires, its pooled node is recycled
  // and will be reused by a later Schedule. The stale handle's generation no
  // longer matches, so cancelling it must not touch the new event.
  Simulator sim(1);
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    stale.push_back(sim.Schedule(Duration::Millis(1), [] {}));
  }
  sim.Run();
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(Duration::Millis(1), [&fired] { ++fired; });  // reuses nodes
  }
  for (EventHandle& h : stale) {
    h.Cancel();  // all inert: every generation is stale
  }
  sim.Run();
  EXPECT_EQ(fired, 100);
}

TEST(SimulatorTest, CancelInsideOwnCallbackIsHarmless) {
  Simulator sim(1);
  EventHandle self;
  bool ran = false;
  self = sim.Schedule(Duration::Millis(1), [&] {
    ran = true;
    self.Cancel();  // already firing; must not corrupt the pool
  });
  sim.Run();
  EXPECT_TRUE(ran);
  // The node recycles normally and is reusable.
  bool again = false;
  sim.Schedule(Duration::Millis(1), [&again] { again = true; });
  sim.Run();
  EXPECT_TRUE(again);
}

TEST(SimulatorTest, DoubleCancelCountsOnce) {
  Simulator sim(1);
  EventHandle handle = sim.Schedule(Duration::Millis(5), [] {});
  EventHandle copy = handle;  // copies share the event
  handle.Cancel();
  copy.Cancel();
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, PoolReuseKeepsScheduleCorrectAcrossWaves) {
  // Thousands of schedule/fire/recycle cycles across wheel levels: the
  // freelist must never hand out a node that is still parked in the wheel.
  Simulator sim(1);
  int fired = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 200; ++i) {
      sim.Schedule(Duration::Micros((i % 7) * 950 + 1), [&fired] { ++fired; });
    }
    sim.Run();
  }
  EXPECT_EQ(fired, 50 * 200);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulatorTest, LargeCallbackCapturesFallBackToHeap) {
  // Captures over the inline buffer take the boxed path; behavior is
  // identical, including cancellation.
  Simulator sim(1);
  struct Big {
    char bytes[200];
  };
  Big big{};
  big.bytes[0] = 42;
  char seen = 0;
  sim.Schedule(Duration::Millis(1), [big, &seen] { seen = big.bytes[0]; });
  EventHandle cancelled = sim.Schedule(Duration::Millis(2), [big, &seen] { seen = 99; });
  cancelled.Cancel();
  sim.Run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, SchedulingCountersTrack) {
  Simulator sim(1);
  EventHandle h = sim.Schedule(Duration::Millis(1), [] {});
  sim.Schedule(Duration::Millis(2), [] {});
  h.Cancel();
  sim.Run();
  EXPECT_EQ(sim.stats().events_scheduled, 2u);
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
  EXPECT_EQ(sim.stats().events_processed, 1u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim(1);
  sim.RunFor(Duration::Millis(10));
  EXPECT_DEATH(sim.ScheduleAt(TimePoint() + Duration::Millis(5), [] {}), "past");
}

TEST(SimulatorTest, MetronomeFiresAtEveryPeriodMultiple) {
  Simulator sim(1);
  std::vector<int64_t> fires;
  sim.SetMetronome(Duration::Millis(10),
                   [&](TimePoint t) { fires.push_back(t.ToMicros()); });
  // Events at 4, 14, 24ms: each period boundary in between must fire, with
  // the hook observing the deadline's own timestamp.
  int ran = 0;
  for (int ms : {4, 14, 24}) {
    sim.Schedule(Duration::Millis(ms), [&] { ++ran; });
  }
  sim.RunUntil(TimePoint() + Duration::Millis(30));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(fires, (std::vector<int64_t>{10000, 20000, 30000}));
}

TEST(SimulatorTest, MetronomeFiresWithNoEventsAtAll) {
  // RunUntil advances the clock to its limit even with an empty wheel; the
  // metronome must cover that advance too.
  Simulator sim(1);
  int fires = 0;
  sim.SetMetronome(Duration::Millis(10), [&](TimePoint) { ++fires; });
  sim.RunUntil(TimePoint() + Duration::Millis(35));
  EXPECT_EQ(fires, 3);  // 10, 20, 30ms
}

TEST(SimulatorTest, MetronomeConsumesNoSequenceNumbers) {
  // The load-bearing determinism property: a firing metronome must not
  // touch the event stream. Same seed, same events, with and without a
  // metronome attached -> identical sequence numbers and event stats.
  auto run = [](bool with_metronome) {
    Simulator sim(7);
    int hook_calls = 0;
    if (with_metronome) {
      sim.SetMetronome(Duration::Millis(1), [&](TimePoint) { ++hook_calls; });
    }
    for (int i = 1; i <= 20; ++i) {
      sim.Schedule(Duration::Millis(i * 3), [&sim] {
        sim.Schedule(Duration::Micros(sim.rng().NextBelow(5000)), [] {});
      });
    }
    sim.RunUntil(TimePoint() + Duration::Millis(100));
    return std::make_tuple(sim.next_seq(), sim.stats().events_scheduled,
                           sim.Now().ToMicros(), hook_calls);
  };
  const auto without = run(false);
  const auto with = run(true);
  EXPECT_EQ(std::get<0>(with), std::get<0>(without));
  EXPECT_EQ(std::get<1>(with), std::get<1>(without));
  EXPECT_EQ(std::get<2>(with), std::get<2>(without));
  EXPECT_GT(std::get<3>(with), 0);
}

TEST(SimulatorTest, MetronomeMaxCatchupSkipsStaleDeadlinesKeepingPhase) {
  Simulator sim(1);
  std::vector<int64_t> fires;
  sim.SetMetronome(Duration::Millis(10), [&](TimePoint t) { fires.push_back(t.ToMicros()); },
                   /*max_catchup=*/4);
  // A 1-second idle gap spans 100 deadlines; only the last 4 fire, still
  // aligned to period multiples (observers see the gap in the fire times).
  sim.Schedule(Duration::Seconds(1), [] {});
  sim.Run();
  EXPECT_EQ(fires, (std::vector<int64_t>{970000, 980000, 990000, 1000000}));
}

TEST(SimulatorTest, MetronomeClearAndReanchor) {
  Simulator sim(1);
  int first = 0;
  sim.SetMetronome(Duration::Millis(10), [&](TimePoint) { ++first; });
  sim.RunUntil(TimePoint() + Duration::Millis(25));
  EXPECT_EQ(first, 2);
  sim.ClearMetronome();
  sim.RunUntil(TimePoint() + Duration::Millis(45));
  EXPECT_EQ(first, 2);  // cleared: no more fires
  // A new metronome re-anchors at the first multiple of its period after
  // Now() (45ms) — so 50ms, not a phase carried over from the old one.
  std::vector<int64_t> fires;
  sim.SetMetronome(Duration::Millis(25), [&](TimePoint t) { fires.push_back(t.ToMicros()); });
  sim.RunUntil(TimePoint() + Duration::Millis(80));
  EXPECT_EQ(fires, (std::vector<int64_t>{50000, 75000}));
}

TEST(SimulatorDeathTest, SchedulingFromMetronomeHookAborts) {
  // Metronome hooks are pure observers: an event inserted from inside one
  // could predate the event already popped from the wheel.
  Simulator sim(1);
  sim.SetMetronome(Duration::Millis(1), [&](TimePoint) {
    sim.Schedule(Duration::Millis(1), [] {});
  });
  EXPECT_DEATH(sim.RunUntil(TimePoint() + Duration::Millis(5)), "observer");
}

}  // namespace
}  // namespace wvote
