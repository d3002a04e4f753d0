// When a thread of the optional pool busy-waits before it parks.
//
// One rule covers both waits of the handoff (the mandatory thread waiting
// for the round's completion countdown, a worker waiting for its next
// command): spin only while the thread being waited for can run at the
// same time, and only for a bounded stretch of wall-clock time.
//
//   * A spin on the CPU the awaited thread is pinned to is pure loss.  The
//     spinner holds that CPU (the mandatory thread even at a higher
//     SCHED_FIFO priority than the part it waits for), so the value it
//     polls cannot be produced until the spin gives up.  On a 1-CPU host
//     that holds for every wait.
//     The mandatory thread therefore parks while a part pinned to its CPU
//     is still to run; the last such part to end wakes it (a cheap local
//     wake) so it can spin for the parts running elsewhere.
//   * Budgets are nanoseconds read from the monotonic clock, not PAUSE
//     counts: a PAUSE costs from a few ns to ≈40 ns depending on the CPU
//     model (≈18 ns on a 4-vCPU Xeon VM, so 2048 PAUSEs last ≈37 µs
//     there), and one count spins 6 µs on one host and 180 µs on another.
//   * A worker spins after its part only if its previous command arrived
//     within the budget.  Back-to-back rounds (a multi-phase job's next
//     optional phase) keep the zero-syscall spinning handoff.
//   * Periodic waits wake AHEAD of the event instead of spinning through
//     the gap: waking a thread on a halted vCPU costs ≈10 µs, so the
//     mandatory thread sleeps until its release − kReleaseLead and spins
//     into the release, and a worker of a periodic task sleeps until its
//     predicted command − kReleaseLead, then polls for at most
//     kPrewakeSpin before it parks as usual.  Both leads go through
//     spin_budget: no lead on 1 CPU or on the signaller's CPU.
#pragma once

#include "common/time.hpp"
#include "rt/futex.hpp"

namespace rtseed::core::spin_rule {

using common::Nanos;

/// Longest the mandatory thread polls the round's completion countdown
/// before it parks.
inline constexpr Nanos kCompletionSpin = common::micros(60);
/// Longest a worker polls its command word after its part before it parks.
inline constexpr Nanos kWorkerSpin = common::micros(40);

/// How far ahead of a periodic event a thread stops sleeping and starts
/// polling.  Sized from the ≈12 µs p50 release lag of an untouched
/// periodic sleep on a 4-vCPU VM (no cpuidle driver: every wake-up is a
/// halted vCPU's exit), plus margin for the wake-up's spread.
inline constexpr Nanos kReleaseLead = common::micros(20);
/// Longest a pre-woken worker polls its command word before it parks:
/// the lead itself plus as much again for a command that comes late.
inline constexpr Nanos kPrewakeSpin = 2 * kReleaseLead;

/// Spin budget of a thread about to wait for a peer: `budget` when the
/// peer can run at the same time, otherwise 0 (park at once).
constexpr Nanos spin_budget(Nanos budget, int online_cpus,
                            bool shares_cpu_with_peer) {
  return online_cpus > 1 && !shares_cpu_with_peer ? budget : 0;
}

/// The mandatory thread's completion spin: none while a signalled part
/// pinned to the caller's own CPU has not ended.
constexpr Nanos completion_spin(int online_cpus, bool part_on_caller_cpu) {
  return spin_budget(kCompletionSpin, online_cpus, part_on_caller_cpu);
}

/// A worker's post-part spin.  `previous_gap` is how long after the worker
/// started waiting its previous command was published; a gap longer than
/// the budget means the next command is not worth spinning for either.
constexpr Nanos worker_spin(int online_cpus, bool shares_signaller_cpu,
                            Nanos previous_gap) {
  return previous_gap <= kWorkerSpin
             ? spin_budget(kWorkerSpin, online_cpus, shares_signaller_cpu)
             : 0;
}

/// The mandatory thread's release lead: it sleeps until release − lead and
/// spins the rest.  0 on a 1-CPU host, where the spin would only hold the
/// one CPU everything else needs.
constexpr Nanos release_lead(int online_cpus) {
  return spin_budget(kReleaseLead, online_cpus, false);
}

/// When a worker of a periodic task stops sleeping before its next
/// command, which the signaller predicted for `predicted_signal` (0 = no
/// prediction: a back-to-back pool).  0 = sleep until woken, as on the
/// signaller's CPU, where the poll would hold off the signal it awaits.
constexpr Nanos worker_wake_at(int online_cpus, bool shares_signaller_cpu,
                               Nanos predicted_signal) {
  return predicted_signal > 0 &&
                 spin_budget(kReleaseLead, online_cpus,
                             shares_signaller_cpu) > 0
             ? predicted_signal - kReleaseLead
             : 0;
}

/// Polls `done()` with PAUSEs in between until it holds or `budget`
/// nanoseconds pass; the clock is read once every few polls.  Returns the
/// last `done()`.
template <typename Done>
bool spin_until(Nanos budget, Done&& done) {
  if (budget <= 0) return done();
  constexpr int kPollsPerClockRead = 8;
  const Nanos deadline = common::monotonic_now() + budget;
  for (;;) {
    for (int k = 0; k < kPollsPerClockRead; ++k) {
      if (done()) return true;
      rt::cpu_relax();
    }
    if (common::monotonic_now() >= deadline) return done();
  }
}

}  // namespace rtseed::core::spin_rule
