// Micro-benchmark of the limit-order-book workload (ISSUE 9): raw book
// apply latency and match throughput, the depth-band analytics cost the
// optional parts pay, and the QoS-vs-P&L trade-off the imprecise model
// exists to expose.
//
//   [apply]     seeded SplitMix64 flow through the BitmapBook in a
//               cramped band (64 levels, heavy crossing): ns/event,
//               events/s, matches/s — and the final content digest,
//               which gates.json pins with an equals gate: the book is
//               deterministic, so the digest is a portable constant and
//               any divergence is a correctness regression, caught in
//               bench-smoke even before the fuzzer runs.
//   [analytics] one depth-band optional part over a populated book:
//               full refinement vs first-refinement-only (what a cut
//               token delivers) — the A/B that prices one band of QoS.
//   [job]       full inline OMS job rounds (mandatory + bands + windup)
//               vs mandatory + windup alone: the optional parts' share
//               of the period.
//   [qos]       N jobs at three optional-completion levels (full /
//               first / none), same flow seed: completion rate, orders,
//               fills, P&L dollars — the EXPERIMENTS.md QoS-vs-np row.
//
// This binary links rtseed_alloc_hook: `steady_state_allocs` counts
// heap allocations across the measured apply/analytics windows and
// gates.json pins it to zero.
//
// Flags: --json out.json   machine-readable results (CI archives this
//                          as BENCH_lob.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/time.hpp"
#include "core/termination.hpp"
#include "host_info.hpp"
#include "lob/book.hpp"
#include "lob/flow.hpp"
#include "obs/hotpath_audit.hpp"
#include "trading/oms_task.hpp"

namespace {

using rtseed::common::monotonic_now;
using rtseed::common::Nanos;
using rtseed::common::seconds;
namespace common = rtseed::common;
namespace core = rtseed::core;
namespace lob = rtseed::lob;
namespace obs = rtseed::obs;
namespace trading = rtseed::trading;

volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// [apply] raw book apply latency + match throughput

struct ApplyResult {
  long events = 0;
  double ns_per_event = -1.0;
  double events_per_s = -1.0;
  double matches_per_s = -1.0;
  rtseed::common::u64 trades = 0;
  rtseed::common::u64 digest = 0;
  long allocs = -1;
};

ApplyResult bench_apply(long events) {
  ApplyResult out;
  out.events = events;

  // Cramped band: most arrivals land near the touch, so the measured
  // mix is dominated by matching and level churn, not empty inserts.
  lob::BookConfig book_cfg;
  book_cfg.min_tick = 10;
  book_cfg.num_levels = 64;
  book_cfg.max_orders = 4096;
  lob::FlowConfig flow_cfg;
  flow_cfg.spread_levels = 12;
  flow_cfg.aggressive_pct = 40;

  constexpr int kReps = 5;
  double best_ns = -1.0;
  long allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    lob::BitmapBook book(book_cfg);
    lob::FlowGenerator gen(0x5EED9 + static_cast<rtseed::common::u64>(rep),
                           book_cfg, flow_cfg);
    // The flow generator's cancel/replace picks need live ids; track a
    // bounded set the way the fuzz harness does, swap-remove on use.
    constexpr int kLive = 4096;
    lob::OrderId live[kLive];
    int live_count = 0;

    // Construction above allocates (by design, one-time); the audited
    // window is the event loop alone.
    const obs::HotpathAudit audit;
    const Nanos t0 = monotonic_now();
    for (long i = 0; i < events; ++i) {
      const lob::FlowEvent ev = gen.next();
      switch (ev.kind) {
        case lob::FlowKind::kAddLimit: {
          const auto r = book.add_limit(ev.side, ev.price, ev.qty, nullptr);
          if (r.id.valid() && live_count < kLive) live[live_count++] = r.id;
          break;
        }
        case lob::FlowKind::kMarket:
          book.add_market(ev.side, ev.qty, nullptr);
          break;
        case lob::FlowKind::kCancel: {
          if (live_count == 0) break;
          const int idx = static_cast<int>(ev.pick % live_count);
          const lob::OrderId id = live[idx];
          live[idx] = live[--live_count];
          book.cancel(id);
          break;
        }
        case lob::FlowKind::kReplace: {
          if (live_count == 0) break;
          const int idx = static_cast<int>(ev.pick % live_count);
          const lob::OrderId id = live[idx];
          live[idx] = live[--live_count];
          lob::SubmitResult readd;
          book.replace(id, ev.price, ev.qty, nullptr, &readd);
          if (readd.id.valid() && readd.remaining > 0 && live_count < kLive) {
            live[live_count++] = readd.id;
          }
          break;
        }
      }
    }
    const Nanos elapsed = monotonic_now() - t0;
    const double ns =
        static_cast<double>(elapsed) / static_cast<double>(events);
    if (best_ns < 0.0 || ns < best_ns) {
      best_ns = ns;
      out.trades = book.stats().trades;
      out.matches_per_s = elapsed > 0
                              ? static_cast<double>(book.stats().trades) *
                                    1e9 / static_cast<double>(elapsed)
                              : -1.0;
    }
    if (rep == 0) out.digest = book.digest();  // seed 0x5EED9: the pinned run
    allocs += audit.alloc_delta().alloc_calls;
  }
  out.allocs = allocs;
  out.ns_per_event = best_ns;
  out.events_per_s = best_ns > 0 ? 1e9 / best_ns : -1.0;
  return out;
}

// ---------------------------------------------------------------------------
// [analytics] depth-band refinement cost, full vs first-refinement

struct AnalyticsResult {
  int band_levels = 0;
  double ns_full = -1.0;   ///< full refinement ladder
  double ns_first = -1.0;  ///< one refinement (a cut token's yield)
  long allocs = -1;
};

AnalyticsResult bench_analytics() {
  AnalyticsResult out;
  trading::OmsTaskConfig cfg;
  cfg.oms.book.min_tick = 100;
  cfg.oms.book.num_levels = 512;
  cfg.oms.book.max_orders = 4096;
  cfg.num_bands = 1;
  cfg.band_levels = 16;
  cfg.events_per_job = 512;
  out.band_levels = cfg.band_levels;
  trading::OmsTask task(cfg);
  common::Arena arena(64 * 1024);

  core::JobContext ctx;
  ctx.release = 0;
  ctx.deadline = monotonic_now() + seconds(60);
  ctx.optional_deadline = ctx.deadline;
  ctx.scratch = &arena;
  // Populate the book with several jobs' worth of flow.
  for (int i = 0; i < 8; ++i) task.on_mandatory(ctx);

  constexpr int kReps = 5;
  constexpr long kCalls = 2000;
  const obs::HotpathAudit audit;
  double best_full = -1.0, best_first = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Nanos t0 = monotonic_now();
    for (long i = 0; i < kCalls; ++i) {
      arena.reset();
      core::StopToken token(monotonic_now() + seconds(60));
      task.on_optional(ctx, 0, token);
    }
    const double full = static_cast<double>(monotonic_now() - t0) /
                        static_cast<double>(kCalls);
    if (best_full < 0.0 || full < best_full) best_full = full;

    t0 = monotonic_now();
    for (long i = 0; i < kCalls; ++i) {
      arena.reset();
      core::StopToken token(0);  // already expired: one refinement, cut
      task.on_optional(ctx, 0, token);
    }
    const double first = static_cast<double>(monotonic_now() - t0) /
                         static_cast<double>(kCalls);
    if (best_first < 0.0 || first < best_first) best_first = first;
  }
  out.allocs = audit.alloc_delta().alloc_calls;
  out.ns_full = best_full;
  out.ns_first = best_first;
  return out;
}

// ---------------------------------------------------------------------------
// [job] + [qos] full inline job rounds at a given optional completion

enum class OptionalMode { kFull, kFirst, kNone };

struct QosResult {
  long jobs = 0;
  double completion_rate = 0.0;
  /// Fraction of refinement iterations delivered — the finer QoS axis:
  /// a cut-early band still COMMITS (counts toward completion_rate) but
  /// at depth 1 of band_levels.
  double refinement = 0.0;
  double jobs_per_s = -1.0;
  long orders = 0;
  long fills = 0;
  double pnl_dollars = 0.0;
};

QosResult run_jobs(OptionalMode mode, long jobs) {
  trading::OmsTaskConfig cfg;
  cfg.oms.book.min_tick = 100;
  cfg.oms.book.num_levels = 256;
  cfg.oms.book.max_orders = 2048;
  cfg.oms.max_client_orders = 256;
  cfg.num_bands = 4;
  cfg.band_levels = 8;
  cfg.events_per_job = 64;
  cfg.entry_threshold = 0.10;
  cfg.order_qty = 4;
  cfg.order_ttl = 0;
  trading::OmsTask task(cfg);
  common::Arena arena(64 * 1024);

  const Nanos t0 = monotonic_now();
  for (long j = 0; j < jobs; ++j) {
    core::JobContext ctx;
    ctx.job = j;
    ctx.release = j;  // virtual time: TTLs and attribution stay exact
    ctx.deadline = monotonic_now() + seconds(60);
    ctx.optional_deadline = ctx.deadline;
    ctx.scratch = &arena;
    arena.reset();
    task.on_mandatory(ctx);
    if (mode != OptionalMode::kNone) {
      for (int part = 0; part < cfg.num_bands; ++part) {
        core::StopToken token(mode == OptionalMode::kFull
                                  ? monotonic_now() + seconds(60)
                                  : 0);
        task.on_optional(ctx, part, token);
      }
    }
    task.on_windup(ctx);
  }
  const Nanos elapsed = monotonic_now() - t0;

  QosResult out;
  const auto s = task.stats();
  out.jobs = s.jobs;
  out.completion_rate = task.qos_completion_rate();
  const double max_iters = static_cast<double>(jobs) * cfg.num_bands *
                           cfg.band_levels;
  out.refinement =
      max_iters > 0 ? static_cast<double>(s.band_iterations) / max_iters : 0;
  out.jobs_per_s = elapsed > 0 ? static_cast<double>(jobs) * 1e9 /
                                     static_cast<double>(elapsed)
                               : -1.0;
  out.orders = s.orders_submitted;
  out.fills = static_cast<long>(task.oms().stats().taker_fills +
                                task.oms().stats().maker_fills);
  out.pnl_dollars = task.pnl_dollars();
  return out;
}

void print_qos(const char* mode, const QosResult& r) {
  std::printf(
      "[qos]      %-5s completion=%.3f refinement=%.3f jobs/s=%.0f "
      "orders=%ld fills=%ld pnl=$%.2f\n",
      mode, r.completion_rate, r.refinement, r.jobs_per_s, r.orders, r.fills,
      r.pnl_dollars);
}

void emit_qos_json(std::FILE* f, const char* mode, const QosResult& r,
                   const char* trailing) {
  std::fprintf(f,
               "    \"%s\": {\"jobs\": %ld, \"completion_rate\": %.4f, "
               "\"refinement\": %.4f, \"jobs_per_s\": %.0f, \"orders\": %ld, "
               "\"fills\": %ld, \"pnl_dollars\": %.2f}%s\n",
               mode, r.jobs, r.completion_rate, r.refinement, r.jobs_per_s,
               r.orders, r.fills, r.pnl_dollars, trailing);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  long apply_events = 2'000'000;
  long qos_jobs = 4000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      apply_events = std::strtol(argv[i] + 9, nullptr, 0);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      qos_jobs = std::strtol(argv[i] + 7, nullptr, 0);
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json] [--events=N] [--jobs=N]\n",
                   argv[0]);
      return 2;
    }
  }

  const bool hook = obs::alloc_hook_installed();

  const ApplyResult apply = bench_apply(apply_events);
  std::printf("[apply]    %ld events: %.1f ns/event, %.0f events/s, "
              "%.0f matches/s, digest=%016llx\n",
              apply.events, apply.ns_per_event, apply.events_per_s,
              apply.matches_per_s,
              static_cast<unsigned long long>(apply.digest));

  const AnalyticsResult analytics = bench_analytics();
  std::printf("[analytics] band of %d levels: full=%.0f ns, first=%.0f ns "
              "(cut token keeps %.0f%% of the cost)\n",
              analytics.band_levels, analytics.ns_full, analytics.ns_first,
              analytics.ns_full > 0
                  ? 100.0 * analytics.ns_first / analytics.ns_full
                  : 0.0);

  const QosResult full = run_jobs(OptionalMode::kFull, qos_jobs);
  const QosResult first = run_jobs(OptionalMode::kFirst, qos_jobs);
  const QosResult none = run_jobs(OptionalMode::kNone, qos_jobs);
  print_qos("full", full);
  print_qos("first", first);
  print_qos("none", none);

  const long steady_allocs =
      (apply.allocs < 0 || analytics.allocs < 0)
          ? -1
          : apply.allocs + analytics.allocs;
  std::printf("[alloc]    hook=%s steady_state_allocs=%ld\n",
              hook ? "yes" : "no", steady_allocs);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"micro_lob\",\n");
    std::fprintf(f, "  \"host\": {%s},\n",
                 rtseed::bench::host_fields().c_str());
    std::fprintf(f, "  \"alloc_hook\": %s,\n", hook ? "true" : "false");
    std::fprintf(f, "  \"steady_state_allocs\": %ld,\n", steady_allocs);
    std::fprintf(f,
                 "  \"apply\": {\"events\": %ld, \"ns_per_event\": %.1f, "
                 "\"events_per_s\": %.0f, \"matches_per_s\": %.0f, "
                 "\"trades\": %llu, \"digest\": \"%016llx\"},\n",
                 apply.events, apply.ns_per_event, apply.events_per_s,
                 apply.matches_per_s,
                 static_cast<unsigned long long>(apply.trades),
                 static_cast<unsigned long long>(apply.digest));
    std::fprintf(f,
                 "  \"analytics\": {\"band_levels\": %d, \"ns_full\": %.1f, "
                 "\"ns_first\": %.1f},\n",
                 analytics.band_levels, analytics.ns_full,
                 analytics.ns_first);
    std::fprintf(f, "  \"qos\": {\n");
    emit_qos_json(f, "full", full, ",");
    emit_qos_json(f, "first", first, ",");
    emit_qos_json(f, "none", none, "");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  g_sink = g_sink + full.pnl_dollars;
  return 0;
}
