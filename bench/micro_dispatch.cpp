// Micro-benchmark of the zero-allocation dispatch path (ISSUE 7): what
// the steady-state per-job machinery costs and — the part CI gates on —
// how many heap allocations and wake syscalls it performs.
//
//   [call]   invoking a part body through InplaceFunction, FunctionRef
//            and std::function (the replaced hot-path vocabulary);
//   [arena]  per-part scratch from the slot Arena vs. the heap;
//   [round]  a full OptionalPool round per wake backend, with empty
//            bodies: mean wall time, wake syscalls per round (from
//            rt::wake_stats), kernel sleeps per round, and the heap
//            allocation count over the whole measured window.
//
// This binary links rtseed_alloc_hook, so every global operator new in
// the process ticks obs::alloc_stats().  `steady_state_allocs` in the
// JSON is the sum over all measured round windows; gates.json pins it to
// EXACTLY ZERO — a new allocation anywhere on the publish → wake →
// dispatch → scratch → completion path fails CI, not a code review.
//
// Flags: --json out.json   machine-readable results (CI archives this as
//                          BENCH_dispatch.json)
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "common/arena.hpp"
#include "common/inplace_function.hpp"
#include "common/time.hpp"
#include "common/topology.hpp"
#include "core/assignment.hpp"
#include "core/optional_pool.hpp"
#include "host_info.hpp"
#include "obs/hotpath_audit.hpp"
#include "rt/futex.hpp"

namespace {

using rtseed::common::monotonic_now;
using rtseed::common::Nanos;
namespace common = rtseed::common;
namespace core = rtseed::core;
namespace obs = rtseed::obs;
namespace rt = rtseed::rt;

constexpr int kNp = 4;
constexpr int kWarmupRounds = 50;
constexpr int kRounds = 1000;

double ns_per_op(Nanos elapsed, long ops) {
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

// Keeps the optimizer from folding the callable loops away.
volatile long g_sink = 0;

double bench_inplace_call() {
  long local = 0;
  common::InplaceFunction<void(int), 64> fn = [&local](int v) { local += v; };
  constexpr long kOps = 5'000'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) fn(static_cast<int>(n));
  const double ns = ns_per_op(monotonic_now() - start, kOps);
  g_sink = local;
  return ns;
}

double bench_function_ref_call() {
  long local = 0;
  const auto lambda = [&local](int v) { local += v; };
  common::FunctionRef<void(int)> fn = lambda;
  // Hide which trampoline the reference holds, as a caller that received
  // it from elsewhere would: otherwise the compiler inlines the lambda
  // and folds the whole loop into one add.
  asm volatile("" : "+m"(fn));
  constexpr long kOps = 5'000'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) fn(static_cast<int>(n));
  const double ns = ns_per_op(monotonic_now() - start, kOps);
  g_sink = local;
  return ns;
}

double bench_std_function_call() {
  long local = 0;
  std::function<void(int)> fn = [&local](int v) { local += v; };
  constexpr long kOps = 5'000'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) fn(static_cast<int>(n));
  const double ns = ns_per_op(monotonic_now() - start, kOps);
  g_sink = local;
  return ns;
}

double bench_arena_alloc() {
  common::Arena arena(1 << 16);
  constexpr long kOps = 1'000'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    arena.reset();
    auto* p = arena.alloc_array<long>(8);
    p[0] = n;
    g_sink = p[0];
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

double bench_heap_alloc() {
  constexpr long kOps = 200'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    auto* p = static_cast<long*>(::operator new(8 * sizeof(long)));
    p[0] = n;
    g_sink = p[0];
    ::operator delete(p);
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

struct RoundMetrics {
  double full_round_ns = -1.0;
  double wake_syscalls_per_round = -1.0;
  double wait_sleeps_per_round = -1.0;
  long allocs = -1;
};

RoundMetrics bench_round(core::WakeBackend backend) {
  RoundMetrics metrics;
  core::OptionalPool::Options options;
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.fifo_priority = 0;  // unprivileged
  options.cpus = core::assign_optional_parts(
      common::Topology::native(), core::AssignmentPolicy::kTopologyAware, kNp);
  options.name_prefix = "dispatch";
  options.completion_margin = common::millis(50);
  options.wake_backend = backend;
  core::OptionalPool pool(std::move(options),
                          [](const core::JobContext&, int, core::StopToken&) {
                          });
  if (!pool.start().is_ok()) return metrics;

  const auto job_at = [](long round) {
    core::JobContext ctx;
    ctx.job = round;
    ctx.release = monotonic_now();
    ctx.deadline = ctx.release + common::seconds(10);
    ctx.optional_deadline = ctx.release + common::seconds(10);
    return ctx;
  };
  for (long round = 0; round < kWarmupRounds; ++round) {
    (void)pool.run_round(job_at(round), kNp);
  }

  const obs::HotpathAudit audit;
  const Nanos start = monotonic_now();
  for (long round = 0; round < kRounds; ++round) {
    (void)pool.run_round(job_at(kWarmupRounds + round), kNp);
  }
  const Nanos elapsed = monotonic_now() - start;
  const auto wake = audit.wake_delta();
  const auto alloc = audit.alloc_delta();
  pool.shutdown();

  metrics.full_round_ns = ns_per_op(elapsed, kRounds);
  metrics.wake_syscalls_per_round =
      static_cast<double>(wake.wake_calls) / kRounds;
  metrics.wait_sleeps_per_round =
      static_cast<double>(wake.wait_sleeps) / kRounds;
  metrics.allocs = alloc.alloc_calls;
  return metrics;
}

void print_round(const char* tag, const RoundMetrics& m) {
  std::printf(
      "[round]  %-12s full_round %8.0f ns  wakes/round %5.2f  "
      "sleeps/round %5.2f  allocs %ld\n",
      tag, m.full_round_ns, m.wake_syscalls_per_round, m.wait_sleeps_per_round,
      m.allocs);
}

void json_round(std::FILE* f, const char* key, const RoundMetrics& m) {
  std::fprintf(f,
               "  \"%s\": {\"full_round_ns\": %.1f, "
               "\"wake_syscalls_per_round\": %.3f, "
               "\"wait_sleeps_per_round\": %.3f, \"allocs\": %ld}",
               key, m.full_round_ns, m.wake_syscalls_per_round,
               m.wait_sleeps_per_round, m.allocs);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== micro_dispatch: zero-allocation dispatch path ===\n\n");

  const double inplace_ns = bench_inplace_call();
  const double ref_ns = bench_function_ref_call();
  const double stdfn_ns = bench_std_function_call();
  std::printf("[call]   InplaceFunction: %6.2f ns/call\n", inplace_ns);
  std::printf("[call]   FunctionRef:     %6.2f ns/call\n", ref_ns);
  std::printf("[call]   std::function:   %6.2f ns/call\n", stdfn_ns);

  const double arena_ns = bench_arena_alloc();
  const double heap_ns = bench_heap_alloc();
  std::printf("[arena]  arena reset+alloc: %6.2f ns/op\n", arena_ns);
  std::printf("[arena]  heap new+delete:   %6.2f ns/op\n", heap_ns);

  const RoundMetrics batch = bench_round(core::WakeBackend::kFutexBatch);
  const RoundMetrics condvar = bench_round(core::WakeBackend::kCondvar);
  print_round("futex-batch", batch);
  print_round("condvar", condvar);

  const bool hook = obs::alloc_hook_installed();
  const long steady_allocs = (batch.allocs < 0 || condvar.allocs < 0)
                                 ? -1
                                 : batch.allocs + condvar.allocs;
  std::printf("\nalloc hook: %s   steady-state allocs (all backends): %ld\n",
              hook ? "installed" : "ABSENT", steady_allocs);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"micro_dispatch\",\n");
    std::fprintf(f, "  \"host\": {%s},\n",
                 rtseed::bench::host_fields().c_str());
    std::fprintf(f, "  \"np\": %d,\n", kNp);
    std::fprintf(f, "  \"rounds\": %d,\n", kRounds);
    std::fprintf(f, "  \"alloc_hook\": %s,\n", hook ? "true" : "false");
    std::fprintf(f, "  \"steady_state_allocs\": %ld,\n", steady_allocs);
    std::fprintf(f, "  \"inplace_call_ns\": %.3f,\n", inplace_ns);
    std::fprintf(f, "  \"function_ref_call_ns\": %.3f,\n", ref_ns);
    std::fprintf(f, "  \"std_function_call_ns\": %.3f,\n", stdfn_ns);
    std::fprintf(f, "  \"arena_alloc_ns\": %.3f,\n", arena_ns);
    std::fprintf(f, "  \"heap_alloc_ns\": %.3f,\n", heap_ns);
    json_round(f, "batch", batch);
    std::fprintf(f, ",\n");
    json_round(f, "condvar", condvar);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("[json] results -> %s\n", json_path.c_str());
  }
  return 0;
}
