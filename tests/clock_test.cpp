#include "common/clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace rlscommon {
namespace {

using namespace std::chrono_literals;

TEST(SystemClockTest, MonotonicAdvance) {
  SystemClock* clock = SystemClock::Instance();
  TimePoint a = clock->Now();
  clock->SleepFor(std::chrono::milliseconds(5));
  TimePoint b = clock->Now();
  EXPECT_GE(b - a, std::chrono::milliseconds(4));
}

/// A loop-shaped waiter: one mutex, one condition variable, one flag.
struct Loop {
  std::mutex mu;
  std::condition_variable cv;
  bool flag = false;  // guarded by mu

  void Set() {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    cv.notify_all();
  }
  bool Wait(Clock& clock, TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mu);
    return clock.WaitUntil(lock, cv, deadline, [this] { return flag; });
  }
};

TEST(SystemClockTest, WaitUntilWakesOnPredicateBeforeDeadline) {
  SystemClock* clock = SystemClock::Instance();
  Loop loop;
  std::thread setter([&] {
    std::this_thread::sleep_for(10ms);
    loop.Set();
  });
  const TimePoint start = clock->Now();
  EXPECT_TRUE(loop.Wait(*clock, start + 60s));
  EXPECT_LT(clock->Now() - start, 30s);
  setter.join();
}

TEST(SystemClockTest, WaitUntilReturnsAtDeadline) {
  SystemClock* clock = SystemClock::Instance();
  Loop loop;
  const TimePoint deadline = clock->Now() + 20ms;
  EXPECT_FALSE(loop.Wait(*clock, deadline));
  EXPECT_GE(clock->Now(), deadline);
}

TEST(SystemClockTest, MaxDeadlineWaitsForPredicateOnly) {
  SystemClock* clock = SystemClock::Instance();
  Loop loop;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    EXPECT_TRUE(loop.Wait(*clock, TimePoint::max()));
    returned.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());
  loop.Set();
  waiter.join();
  EXPECT_TRUE(returned.load());
}

TEST(ManualClockTest, NowReflectsAdvance) {
  ManualClock clock;
  TimePoint start = clock.Now();
  clock.Advance(std::chrono::seconds(10));
  EXPECT_EQ(clock.Now() - start, std::chrono::seconds(10));
}

TEST(ManualClockTest, SleeperWakesWhenAdvanced) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(std::chrono::seconds(5));
    woke.store(true);
  });
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  EXPECT_FALSE(woke.load());
  clock.Advance(std::chrono::seconds(5));
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ManualClockTest, ZeroSleepReturnsImmediately) {
  ManualClock clock;
  clock.SleepFor(Duration::zero());  // must not block
  clock.SleepFor(Duration(-1));
}

TEST(ManualClockTest, WaitUntilWakesOnPredicateBeforeDeadline) {
  ManualClock clock;
  Loop loop;
  std::thread waiter([&] { EXPECT_TRUE(loop.Wait(clock, clock.Now() + 1h)); });
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  loop.Set();  // no time passes
  waiter.join();
  EXPECT_EQ(clock.Now(), TimePoint{});
}

TEST(ManualClockTest, WaitUntilReturnsWhenAdvancedToDeadline) {
  ManualClock clock;
  Loop loop;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    EXPECT_FALSE(loop.Wait(clock, clock.Now() + 10s));
    returned.store(true);
  });
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  clock.Advance(9s);
  // Still parked one second short of its deadline.
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  EXPECT_FALSE(returned.load());
  clock.Advance(1s);
  waiter.join();
  EXPECT_TRUE(returned.load());
}

// Advance wakes exactly the waiters whose deadline has passed; the
// others stay parked.
TEST(ManualClockTest, AdvanceWakesOnlyDueWaiters) {
  ManualClock clock;
  constexpr int kWaiters = 4;  // deadlines at 1 s, 2 s, 3 s, 4 s
  std::vector<Loop> loops(kWaiters);
  std::vector<std::atomic<bool>> returned(kWaiters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      loops[i].Wait(clock, TimePoint{} + std::chrono::seconds(i + 1));
      returned[i].store(true);
    });
  }
  ASSERT_TRUE(clock.WaitForParked(kWaiters, 10s));
  clock.Advance(2500ms);
  threads[0].join();
  threads[1].join();
  ASSERT_TRUE(clock.WaitForParked(2, 10s));
  EXPECT_FALSE(returned[2].load());
  EXPECT_FALSE(returned[3].load());
  clock.Advance(2s);
  threads[2].join();
  threads[3].join();
}

TEST(ManualClockTest, MaxDeadlineIsNoDeadline) {
  ManualClock clock;
  Loop loop;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    EXPECT_TRUE(loop.Wait(clock, TimePoint::max()));
    returned.store(true);
  });
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  clock.Advance(24h * 365 * 100);
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  EXPECT_FALSE(returned.load());
  loop.Set();
  waiter.join();
}

// The parked-waiter hook counts a waiter only while its deadline lies
// after Now() and its predicate is false, and gives up after its real-
// time bound.
TEST(ManualClockTest, WaitForParkedCountsOnlyWaitersWithNothingDue) {
  ManualClock clock;
  EXPECT_FALSE(clock.WaitForParked(1, 20ms));  // nobody waits

  Loop loop;
  std::atomic<int> rounds{0};
  std::atomic<bool> stop{false};
  // A periodic loop: one round per virtual second until told to stop.
  std::thread periodic([&] {
    std::unique_lock<std::mutex> lock(loop.mu);
    TimePoint next = clock.Now() + 1s;
    while (!clock.WaitUntil(lock, loop.cv, next, [&] { return loop.flag; })) {
      rounds.fetch_add(1);
      next += 1s;
    }
    stop.store(true);
  });
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  EXPECT_FALSE(clock.WaitForParked(2, 20ms));  // only one thread waits
  for (int i = 1; i <= 5; ++i) {
    clock.Advance(1s);
    // Parked again only after it ran the round that came due.
    ASSERT_TRUE(clock.WaitForParked(1, 10s));
    EXPECT_EQ(rounds.load(), i);
  }
  {
    // A true predicate is not parked, even before the thread wakes.
    std::lock_guard<std::mutex> lock(loop.mu);
    loop.flag = true;
  }
  EXPECT_FALSE(clock.WaitForParked(1, 20ms));
  loop.cv.notify_all();
  periodic.join();
  EXPECT_TRUE(stop.load());
}

TEST(StopwatchTest, MeasuresManualClock) {
  ManualClock clock;
  Stopwatch watch(&clock);
  clock.Advance(std::chrono::milliseconds(1500));
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 1.5);
  watch.Reset();
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace rlscommon
