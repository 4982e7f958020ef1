// Clock abstractions.
//
// Soft-state timeouts, immediate-mode flush intervals and the link model
// all consume time through a Clock interface so tests can substitute a
// manually advanced clock and benches can run the expiration machinery
// deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

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

  /// Blocks the calling thread for `d` (or until the clock is advanced
  /// past it, for manual clocks).
  virtual void SleepFor(Duration d) = 0;
};

/// Real clock backed by std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  TimePoint Now() const override { return std::chrono::steady_clock::now(); }
  void SleepFor(Duration d) override;

  /// Shared process-wide instance.
  static SystemClock* Instance();
};

/// Manually advanced clock for tests. SleepFor() blocks until another
/// thread calls Advance() far enough, so periodic threads (expire thread,
/// immediate-mode flusher) can be driven step by step.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimePoint start = TimePoint{}) : now_ns_(start.time_since_epoch().count()) {}

  TimePoint Now() const override {
    return TimePoint(Duration(now_ns_.load(std::memory_order_acquire)));
  }

  void SleepFor(Duration d) override;

  /// Moves time forward and wakes sleepers whose deadline passed.
  void Advance(Duration d);

 private:
  std::atomic<int64_t> now_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
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
