// Pool of parallel optional threads implementing the paper's Fig. 6 / 7
// protocol, factored out so both the classic parallel-extended imprecise
// task (one optional phase) and the practical imprecise computation model
// (multiple mandatory parts with an optional phase after each — the
// paper's future work, ref [33]) reuse the same machinery:
//
//   * threads park until the mandatory thread signals them;
//   * each signalled part runs its body under the configured termination
//     strategy with a per-thread one-shot optional-deadline timer;
//   * the last part to end wakes the caller for the next mandatory
//     segment / wind-up part.
//
// Two wake backends:
//
//   kFutexBatch — the default.  Per-slot command words; the fan-out wake
//     is BATCHED through one shared eventcount word (wake_gen_): the
//     signaller publishes all k command words first, bumps the generation
//     once, and issues at most ONE FUTEX_WAKE(INT_MAX) — 1 syscall per
//     fan-out instead of up to k.  Workers load the generation, re-check
//     their own command word, and only then sleep on the generation word,
//     so the bump-after-publish ordering makes the per-slot lost-wake
//     window structurally impossible: a worker that reads the new
//     generation must also see its command, and a worker that read the old
//     generation is caught by the kernel's word revalidation at FUTEX_WAIT
//     entry.  Recovery and shutdown reuse the same single batched wake.
//
//     Round completion is a single atomic countdown whose last decrementer
//     issues at most one wake of the mandatory thread; the timeout/forcing
//     path waits on an absolute CLOCK_MONOTONIC deadline
//     (FUTEX_WAIT_BITSET).  Forcing stragglers is lock-free: each slot
//     owns an atomic force flag that the part's StopToken observes
//     (StopToken::bind_force_flag), so the mandatory thread writes a
//     stable flag instead of dereferencing a pointer into the worker's
//     stack.
//
//     Both sides spin before they park, under one rule
//     (core/spin_rule.hpp): a thread spins only while the thread it waits
//     for can run at the same time, for a bounded number of NANOSECONDS.
//     The mandatory thread does not spin while a part pinned to its own
//     CPU has not ended (the last such part wakes it to spin for the
//     rest), a worker parks at once when it shares the signaller's CPU,
//     and a worker whose previous command came later than its spin
//     budget parks at once too.
//
//     Rounds of a periodic task (Options::period > 0) are pre-woken.
//     Each round the signaller publishes, per slot, when it predicts the
//     next signal: release + period + m̂, where m̂ tracks the median of
//     (signal time − release).  A worker off the signaller's CPU then
//     waits in four steps: a timed sleep on the generation word until
//     the prediction − spin_rule::kReleaseLead; a CAS kCmdParked →
//     kCmdIdle that withdraws its parked state (so the signaller skips
//     the wake syscall); a poll of its command word for at most
//     spin_rule::kPrewakeSpin; then the untimed park.  A command that
//     lands during any step is taken at once.
//
//   kCondvar — the paper-verbatim per-slot mutex+condvar protocol (one
//     notify per part, never broadcast — paper §IV-C), kept compiled as
//     the Fig. 6 baseline, with its timed wait fixed to run on
//     CLOCK_MONOTONIC (rt::MonotonicCond) instead of assuming steady_clock
//     shares clock_gettime's epoch.
//
// Steady-state allocation contract (DESIGN.md §11): after start(), a
// round performs ZERO heap allocations — slots live in one contiguous
// aligned array, part bodies are inline-storage callables, and per-part
// scratch comes from a slot-owned Arena reset between rounds.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/cacheline.hpp"
#include "common/inplace_function.hpp"
#include "core/task_config.hpp"
#include "fault/supervisor.hpp"
#include "obs/telemetry.hpp"
#include "rt/monotonic_cond.hpp"
#include "rt/thread.hpp"

namespace rtseed::core {

/// How the mandatory thread hands work to (and collects completions from)
/// the optional threads.  The values are stable: parameterized test names
/// print them.
enum class WakeBackend {
  kFutexBatch = 1, ///< per-slot words + ONE batched wake per fan-out — default
  kCondvar = 3,    ///< legacy mutex+condvar protocol — the paper baseline
};

const char* wake_backend_name(WakeBackend backend);

class OptionalPool : public fault::SupervisedPool {
 public:
  /// Body of part `part`; invoked on that part's pinned thread.  Under
  /// kSigjmp/kTryCatch it may be abandoned at any instruction.  Inline
  /// storage only — a capture over 64 bytes is a compile error, never a
  /// hidden heap allocation on the dispatch path.
  using PartBody = common::InplaceFunction<
      void(const JobContext&, int part, StopToken&), 64>;

  struct Options {
    TerminationStrategy termination = TerminationStrategy::kSigjmp;
    int fifo_priority = 0;           ///< 0 = best-effort
    std::vector<common::CpuId> cpus; ///< one per part (pool size)
    std::string name_prefix;         ///< thread names: <prefix>.o<k>
    /// Grace past the optional deadline before stop tokens are forced.
    Nanos completion_margin = common::millis(100);
    WakeBackend wake_backend = WakeBackend::kFutexBatch;
    /// Repair the blocked-signal defect of kTryCatch terminations
    /// (TerminationOptions::repair_signal_mask; OFF = paper-faithful).
    bool repair_signal_mask = true;
    /// Period of the rounds: the owning task's Tᵢ, one round per job.
    /// Workers wake ahead of the predicted next round; 0 = rounds come
    /// back to back (a multi-phase job's phases) and nothing is predicted.
    Nanos period = 0;
    /// Capacity of each slot's scratch Arena (JobContext::scratch),
    /// reserved once at pool construction and reset (no frees) before
    /// every part.  0 disables scratch (ctx.scratch == nullptr).
    common::usize scratch_bytes = 4096;
  };

  OptionalPool(Options options, PartBody body);

  OptionalPool(const OptionalPool&) = delete;
  OptionalPool& operator=(const OptionalPool&) = delete;

  /// Joins all threads.
  ~OptionalPool() override;

  int size() const { return num_slots_; }
  common::CpuId cpu(int part) const {
    return options_.cpus[static_cast<size_t>(part)];
  }
  WakeBackend backend() const { return backend_; }

  /// Spawns the (parked) optional threads.
  common::Status start();

  /// Stops and joins all threads (idempotent).  Must not be called
  /// concurrently with run_round (same contract as the seed protocol).
  void shutdown();

  struct RoundResult {
    int completed = 0;
    int terminated = 0;
    Nanos signal_start = 0;        ///< Δb window: the per-part wake loop
    Nanos signal_end = 0;
    Nanos first_part_start = 0;    ///< Δs reference (0 if none started)
    Nanos all_ended = 0;           ///< when the last part ended
  };

  /// Runs one optional phase: signals parts [0, count) with the given job
  /// context (whose optional_deadline bounds this phase), blocks until
  /// every part completed or was terminated.  Must not be called
  /// concurrently with itself.  count is clamped to the pool size.
  RoundResult run_round(const JobContext& ctx, int count);

  /// std::exceptions absorbed from part bodies (logged, part counted as
  /// completed-with-error).
  long body_errors() const {
    return body_errors_.load(std::memory_order_relaxed);
  }

  /// Wakes re-issued by run_round's lost-wake recovery loop: when a wake
  /// is lost (swallowed or late, or a condvar notify that raced the
  /// worker's predicate check), the recovery path re-wakes any slot whose
  /// command still reads ready instead of waiting forever.
  long wake_retries() const {
    return wake_retries_.load(std::memory_order_relaxed);
  }

  // fault::SupervisedPool — the supervisor's view of this pool.  Health is
  // read from per-slot heartbeat words the workers keep with plain relaxed
  // stores (two per part on the hot path).
  int worker_count() const override { return size(); }
  fault::WorkerHealth worker_health(int worker) const override;
  void force_worker(int worker) override;
  bool kill_worker(int worker) override;
  bool respawn_worker(int worker) override;

  /// Attaches the telemetry hub (before start()); each optional thread
  /// registers its own event ring on its setup path.  `telemetry` must
  /// outlive the pool.
  void set_telemetry(obs::Telemetry* telemetry, common::TaskId task) {
    telemetry_ = telemetry;
    task_ = task;
  }

  /// Ring of the thread that calls run_round (the mandatory thread): the
  /// Δb signal-window events are emitted there.  Set from that thread
  /// before the first round.  Ignored unless set_telemetry was called too.
  void set_caller_trace(obs::TraceBuffer* trace) { caller_trace_ = trace; }

 private:
  // Command-word states (kFutexBatch backend).  kParked means the worker
  // has committed to sleeping in FUTEX_WAIT — the signaller only pays the
  // wake syscall when it observes this value.
  static constexpr std::uint32_t kCmdIdle = 0;
  static constexpr std::uint32_t kCmdParked = 1;
  static constexpr std::uint32_t kCmdReady = 2;
  static constexpr std::uint32_t kCmdShutdown = 3;

  /// Completion word: low 31 bits = parts still running this round;
  /// bit 31 = the mandatory thread has committed to FUTEX_WAIT (the last
  /// decrementer issues a wake only when it is set).
  static constexpr std::uint32_t kCompletionWaiterBit = 1u << 31;

  struct Slot {
    // Hot handoff word, alone on its cache line: the signal loop touches
    // one line per part, and a worker spinning here never bounces the
    // lines of its neighbours.
    alignas(common::kCacheLine) std::atomic<std::uint32_t> cmd{kCmdIdle};

    // Round context, published before the release-exchange on cmd and
    // read by the worker after its acquire — on a separate line so the
    // job copy does not invalidate a spinning neighbour's word.
    alignas(common::kCacheLine) JobContext job{};
    /// Published with `job`: the signaller's CPU (sched_getcpu) and the
    /// round's signal start, inputs of the worker's spin rule.
    common::CpuId signaller_cpu = common::kInvalidCpu;
    Nanos signalled_at = 0;
    /// Published with `job`: when the signaller expects to signal this
    /// slot next (0 = no prediction, Options::period == 0).
    Nanos next_signal = 0;
    /// Observed by this part's StopToken (bind_force_flag); written by
    /// the mandatory thread's force-after-margin path.
    std::atomic<bool> force_flag{false};

    // kCondvar backend state (paper Fig. 6 verbatim).
    rt::MonotonicCond cv;
    enum class State { kIdle, kReady, kShutdown } state = State::kIdle;

    // Supervision words (off the handoff line; written by the owning
    // worker with relaxed stores, read by the supervisor's poll).
    // busy_since != 0 means a part is executing; busy_deadline is its OD.
    std::atomic<common::u64> heartbeat{0};
    std::atomic<Nanos> busy_since{0};
    std::atomic<Nanos> busy_deadline{0};
    std::atomic<bool> alive{false};
    std::atomic<pthread_t> handle{};
    /// Worker-owned (never touched by the signaller): how long the worker
    /// spins for its next command (spin_rule::worker_spin), decided when
    /// it consumed the previous one.  0 = park at once (also at start-up).
    Nanos worker_spin = 0;
    /// Worker-owned: when the worker stops sleeping ahead of its next
    /// command (spin_rule::worker_wake_at); 0 = sleep until woken.
    Nanos wake_at = 0;

    /// Per-part scratch handed to the body via JobContext::scratch.
    /// Reserved once at pool construction, reset() (one store) per part —
    /// never resized on the hot path.
    common::Arena scratch;
  };
  // Layout checks: the alignas directives above must actually separate
  // the hot cmd word (offset 0) from the job context — a Slot smaller
  // than two lines would mean they share one.
  static_assert(alignof(Slot) == common::kCacheLine,
                "slot must start cache-line-aligned");
  static_assert(sizeof(Slot) >= 2 * common::kCacheLine,
                "cmd and job must sit on distinct cache lines");

  void thread_main(int part);
  /// Spawns (or re-spawns) worker `part` into threads_[part].  Caller
  /// holds lifecycle_mutex_ (or is single-threaded setup).
  void spawn_worker_locked(int part);
  /// Blocks until cmd != kIdle/kParked, spinning at most `spin` ns before
  /// it parks, and pre-woken at `wake_at` when that is non-zero (see the
  /// header comment); returns kCmdReady or kCmdShutdown.
  std::uint32_t wait_for_command(Slot& slot, Nanos spin, Nanos wake_at);
  /// Signaller side of the pre-wake: updates m̂ from this round and
  /// returns the predicted time of the next one (0 = none).
  Nanos predict_next_signal(const JobContext& ctx, Nanos signal_start);
  /// The one batched wake (kFutexBatch): bumps the generation so a worker
  /// between its generation load and FUTEX_WAIT entry cannot sleep past
  /// us, then wakes every sleeper with a single syscall.  Callers publish
  /// all command words FIRST.
  void batch_wake_workers();
  /// Runs one signalled part: timestamps, termination strategy, outcome
  /// counters.  Shared by both backends.
  void execute_part(Slot& slot, int part, const JobContext& job,
                    obs::TraceBuffer* trace);
  /// Waits for the round countdown to hit zero (futex backends), spinning
  /// first as the spin rule allows; abs_deadline < 0 waits forever.
  /// False iff the deadline passed first.
  bool wait_completion_word(Nanos abs_deadline);
  /// Raises the force flags of parts [0, count) — lock-free.
  void force_parts(int count);

  Options options_;
  WakeBackend backend_;
  PartBody body_;

  /// One contiguous cache-line-aligned allocation (no pointer chase per
  /// part in the signal loop).
  common::AlignedArrayPtr<Slot> slots_;
  int num_slots_ = 0;
  /// Guards threads_/started_ against respawn vs shutdown races (the
  /// supervisor respawns from its own thread).  Never taken on the
  /// run_round / execute_part hot path.
  std::mutex lifecycle_mutex_;
  std::vector<rt::RtThread> threads_;
  bool started_ = false;

  // Round-shared words, one cache line each: the completion countdown is
  // hammered by every finishing part, and the per-part result counters
  // must not share its line (or each other's) or the final decrements
  // serialize on cache-line ownership.
  alignas(common::kCacheLine) std::atomic<std::uint32_t> remaining_{0};
  /// Parts of this round pinned to the signaller's CPU that have not
  /// ended yet: the signaller spins only once this reads 0.
  alignas(common::kCacheLine) std::atomic<int> local_parts_{0};
  /// kFutexBatch eventcount: bumped once per fan-out (and per recovery /
  /// shutdown broadcast); all parked workers sleep on this one word.
  alignas(common::kCacheLine) std::atomic<std::uint32_t> wake_gen_{0};
  alignas(common::kCacheLine) std::atomic<int> round_completed_{0};
  alignas(common::kCacheLine) std::atomic<int> round_terminated_{0};
  alignas(common::kCacheLine) std::atomic<Nanos> first_part_start_{0};
  alignas(common::kCacheLine) std::atomic<long> body_errors_{0};
  alignas(common::kCacheLine) std::atomic<long> wake_retries_{0};
  /// Signaller-owned m̂: the running median of (signal time − release)
  /// behind the next-signal prediction; < 0 until the first round.
  Nanos signal_offset_ = -1;

  // kCondvar backend completion state.
  rt::MonotonicCond completion_cv_;
  int remaining_cv_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  common::TaskId task_ = common::kInvalidTask;
  obs::TraceBuffer* caller_trace_ = nullptr;
};

}  // namespace rtseed::core
