// Clock abstractions.
//
// Soft-state timeouts, the update manager's rounds, the RLI expiry pass,
// the metrics exporter and the link model all consume time through a
// Clock, so tests can substitute a manually advanced clock and step the
// soft-state machinery deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace rlscommon {

using Duration = std::chrono::nanoseconds;
using TimePoint = std::chrono::steady_clock::time_point;

/// Abstract monotonic clock. All timestamps in the RLS are monotonic;
/// wall-clock time is only used for log lines.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current monotonic time.
  virtual TimePoint Now() const = 0;

  /// Now() in microseconds since the clock's epoch (soft-state stamps).
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Now().time_since_epoch())
        .count();
  }

  /// The one way to wait: blocks on `cv` until `pred()` holds or Now()
  /// reaches `deadline` (TimePoint::max() = no deadline), and returns
  /// pred(). `lock` holds `cv`'s mutex on entry and on return; whoever
  /// makes pred() true does so under that mutex and then notifies `cv`.
  virtual bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                         TimePoint deadline, const std::function<bool()>& pred) = 0;

  /// A WaitUntil with nothing else to wait for.
  void SleepFor(Duration d);
};

/// Real clock backed by std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  TimePoint Now() const override { return std::chrono::steady_clock::now(); }
  bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                 TimePoint deadline, const std::function<bool()>& pred) override;

  /// Shared process-wide instance.
  static SystemClock* Instance();
};

/// Manually advanced clock for tests. A WaitUntil returns only when its
/// predicate holds or Advance() moves time to its deadline, so a server
/// built on this clock runs its periodic loops (update rounds, immediate
/// flushes, recovery passes, RLI expiry, metrics export) step by step:
/// Advance(), then WaitForParked() until every loop has done the work
/// due by the new Now() and is waiting again.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimePoint start = TimePoint{}) : now_ns_(start.time_since_epoch().count()) {}

  TimePoint Now() const override {
    return TimePoint(Duration(now_ns_.load(std::memory_order_acquire)));
  }

  bool WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                 TimePoint deadline, const std::function<bool()>& pred) override;

  /// Moves time forward and wakes every waiter whose deadline has passed.
  void Advance(Duration d);

  /// Test hook: waits up to `real_timeout` of real time until at least
  /// `n` threads wait on this clock for a deadline after Now() with a
  /// false predicate. Returns whether that happened.
  bool WaitForParked(std::size_t n, std::chrono::milliseconds real_timeout);

 private:
  /// One thread inside WaitUntil; it lives on that thread's stack.
  struct Waiter {
    TimePoint deadline;
    std::condition_variable* cv;
    std::mutex* mu;
    const std::function<bool()>* pred;
  };

  std::atomic<int64_t> now_ns_;
  // Lock order: mu_ before a waiter's mutex. Advance and WaitForParked
  // take waiters' mutexes while they hold mu_; WaitUntil takes mu_ only
  // with its caller's mutex released.
  std::mutex mu_;
  std::condition_variable changed_;  // waiters_ or Now() changed
  std::vector<Waiter*> waiters_;
};

/// Simple stopwatch over a Clock (defaults to the system clock).
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock = SystemClock::Instance())
      : clock_(clock), start_(clock_->Now()) {}

  void Reset() { start_ = clock_->Now(); }

  Duration Elapsed() const { return clock_->Now() - start_; }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Elapsed()).count();
  }

 private:
  const Clock* clock_;
  TimePoint start_;
};

}  // namespace rlscommon
