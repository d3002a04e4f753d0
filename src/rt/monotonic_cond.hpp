// Mutex + condition variable whose timed waits run on CLOCK_MONOTONIC.
//
// std::condition_variable::wait_until(steady_clock) is only correct if the
// C++ runtime maps steady_clock waits onto CLOCK_MONOTONIC — libstdc++ on
// Linux does, but that is an implementation detail, and the seed code
// additionally assumed steady_clock's epoch equals clock_gettime's.  This
// wrapper removes both assumptions: deadlines are absolute
// common::monotonic_now() nanoseconds handed straight to
// pthread_cond_timedwait on a CLOCK_MONOTONIC-attributed condvar.
//
// Used by the OptionalPool's condvar backend (the paper's Fig. 6 protocol,
// kept as the baseline for the batched futex wake path) and usable
// anywhere an OD-relative timeout must be immune to wall-clock steps.
#pragma once

#include <pthread.h>

#include "common/time.hpp"

namespace rtseed::rt {

/// Bundled mutex + condvar, BasicLockable (works with std::lock_guard).
/// wait/wait_until must be called with the lock held.
class MonotonicCond {
 public:
  MonotonicCond();
  ~MonotonicCond();

  MonotonicCond(const MonotonicCond&) = delete;
  MonotonicCond& operator=(const MonotonicCond&) = delete;

  void lock();
  void unlock();

  void notify_one();
  void notify_all();

  template <typename Pred>
  void wait(Pred pred) {
    while (!pred()) wait_once();
  }

  /// Waits until pred() or the absolute CLOCK_MONOTONIC deadline; returns
  /// the final pred() value.
  template <typename Pred>
  bool wait_until(common::Nanos abs_deadline, Pred pred) {
    while (!pred()) {
      if (!timed_wait_once(abs_deadline)) return pred();
    }
    return true;
  }

  /// True when the condvar waits natively on CLOCK_MONOTONIC (always on
  /// Linux; other hosts fall back to a realtime-clock conversion).
  bool monotonic() const { return monotonic_; }

 private:
  void wait_once();
  /// One pthread_cond_timedwait; false on ETIMEDOUT.
  bool timed_wait_once(common::Nanos abs_deadline);

  pthread_mutex_t mutex_;
  pthread_cond_t cond_;
  bool monotonic_ = false;
};

}  // namespace rtseed::rt
