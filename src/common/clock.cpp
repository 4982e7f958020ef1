#include "common/clock.h"

namespace rlscommon {

void Clock::SleepFor(Duration d) {
  if (d <= Duration::zero()) return;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  WaitUntil(lock, cv, Now() + d, [] { return false; });
}

bool SystemClock::WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                            TimePoint deadline, const std::function<bool()>& pred) {
  if (deadline == TimePoint::max()) {
    cv.wait(lock, pred);
    return true;
  }
  return cv.wait_until(lock, deadline, pred);
}

SystemClock* SystemClock::Instance() {
  static SystemClock clock;
  return &clock;
}

bool ManualClock::WaitUntil(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                            TimePoint deadline, const std::function<bool()>& pred) {
  Waiter self{deadline, &cv, lock.mutex(), &pred};
  lock.unlock();
  {
    std::lock_guard<std::mutex> guard(mu_);
    waiters_.push_back(&self);
  }
  changed_.notify_all();
  lock.lock();
  // Advance moves time before it takes this mutex to notify `cv`, so a
  // check of Now() made under the mutex cannot miss its wake-up.
  while (!pred() && Now() < deadline) cv.wait(lock);
  lock.unlock();
  {
    std::lock_guard<std::mutex> guard(mu_);
    std::erase(waiters_, &self);
  }
  changed_.notify_all();
  lock.lock();
  return pred();
}

void ManualClock::Advance(Duration d) {
  std::lock_guard<std::mutex> guard(mu_);
  now_ns_.fetch_add(d.count(), std::memory_order_acq_rel);
  for (Waiter* waiter : waiters_) {
    if (waiter->deadline > Now()) continue;
    std::lock_guard<std::mutex> lock(*waiter->mu);
    waiter->cv->notify_all();
  }
  changed_.notify_all();
}

bool ManualClock::WaitForParked(std::size_t n, std::chrono::milliseconds real_timeout) {
  std::unique_lock<std::mutex> guard(mu_);
  return changed_.wait_for(guard, real_timeout, [&] {
    std::size_t parked = 0;
    for (Waiter* waiter : waiters_) {
      if (waiter->deadline <= Now()) continue;
      std::lock_guard<std::mutex> lock(*waiter->mu);
      parked += !(*waiter->pred)();
    }
    return parked >= n;
  });
}

}  // namespace rlscommon
