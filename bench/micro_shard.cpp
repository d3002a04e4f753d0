// Micro-benchmark of the sharded runtime's cross-shard path (ISSUE 8):
// aggregate tick throughput of sharded pipelines over the zero-allocation
// transport, and — what CI gates on — the allocation count of the
// cross-shard path and the modeled 2-shard speedup.
//
//   [native]  A/B: 1 shard vs 2 shards over the same transport, one
//             consumer thread per shard running a real indicator round
//             per tick, one router fanning ticks out by symbol hash.
//             Reported with host.cpus: on a single-core runner the
//             native speedup measures timeslicing, not parallelism —
//             which is why the gate reads the model, not this number.
//   [hop]     acquire -> post -> poll -> release round trip.
//   [model]   sim::PipelineModel calibrated from single-threaded
//             measurements of the SAME consumer work and router
//             dispatch; modeled_speedup(2) is the ≥1.8x acceptance gate
//             (S parallel pipelines behind one router, Amdahl-bounded).
//   [sim]     2-shard miss rate, native ShardedRuntime vs
//             sim::simulate_sharded on the same task set — the two must
//             agree within 10 points at comfortable load.
//
// This binary links rtseed_alloc_hook: `steady_state_allocs` counts heap
// allocations across every measured single-threaded transport window
// (calibration + hop), and gates.json pins it to EXACTLY ZERO.
//
// Flags: --json out.json   machine-readable results (CI archives this as
//                          BENCH_shard.json)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "common/topology.hpp"
#include "host_info.hpp"
#include "obs/hotpath_audit.hpp"
#include "sched/sharded.hpp"
#include "shard/sharded_runtime.hpp"
#include "shard/transport.hpp"
#include "sim/sharded_topology.hpp"
#include "trading/indicators.hpp"

namespace {

using rtseed::common::millis;
using rtseed::common::monotonic_now;
using rtseed::common::Nanos;
namespace common = rtseed::common;
namespace core = rtseed::core;
namespace obs = rtseed::obs;
namespace sched = rtseed::sched;
namespace shard = rtseed::shard;
namespace sim = rtseed::sim;
namespace trading = rtseed::trading;

constexpr int kFastWindow = 64;
constexpr int kSlowWindow = 256;

// The per-tick shard work used EVERYWHERE below (native consumers and
// the model calibration), so the modeled pipelines drain at the measured
// native service rate.  It is the steady-state indicator refresh a
// trading shard performs on every tick — the volatility term structure
// (fast/slow rolling stddev), bands, RSI, and MACD — heap-free after
// construction.
struct ShardWork {
  ShardWork()
      : fast_vol(kFastWindow, fast_storage),
        slow_vol(kSlowWindow, slow_storage),
        bands(20, 2.0),
        rsi(14) {}

  void consume(const shard::ShardMessage& msg) {
    const double price = msg.body.tick.price;
    fast_vol.update(price);
    slow_vol.update(price);
    bands.update(price);
    rsi.update(price);
    macd.update(price);
    const double vol_ratio =
        slow_vol.ready() && slow_vol.value() > 0.0
            ? fast_vol.value() / slow_vol.value()
            : 1.0;
    sink += vol_ratio + rsi.value() + macd.value().histogram +
            (bands.ready() ? bands.value().percent_b : 0.5);
  }

  double fast_storage[kFastWindow];
  double slow_storage[kSlowWindow];
  trading::RollingStdDev fast_vol;
  trading::RollingStdDev slow_vol;
  trading::BollingerBands bands;
  trading::Rsi rsi;
  trading::Macd macd;
  double sink = 0.0;
};

inline void fill_tick(shard::ShardMessage* msg, common::u32 sym,
                      common::u64 seq) {
  msg->kind = shard::MessageKind::kTick;
  msg->symbol = sym;
  msg->seq = seq;
  // Real spread: a flat series would walk the EMA chains into subnormal
  // floats, whose microcoded arithmetic skews the service calibration.
  msg->body.tick.price = 100.0 + 0.01 * static_cast<double>(seq % 251);
}

volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// [native] aggregate throughput, 1 vs 2 shards

double native_ticks_per_s(int shards, long total_ticks) {
  auto transport = shard::ShardTransport::create(shards);
  if (!transport.has_value()) return -1.0;
  auto& t = **transport;

  std::atomic<long> consumed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> consumers;
  for (int s = 0; s < shards; ++s) {
    consumers.emplace_back([&, s] {
      ShardWork work;
      while (!stop.load(std::memory_order_relaxed)) {
        shard::ShardMessage* msg = t.poll(s);
        if (msg == nullptr) {
          std::this_thread::yield();
          continue;
        }
        work.consume(*msg);
        t.release(msg);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
      g_sink = work.sink;
    });
  }

  const Nanos start = monotonic_now();
  long sent = 0;
  common::u32 sym = 0;
  while (sent < total_ticks) {
    shard::ShardMessage* msg = t.acquire();
    if (msg == nullptr) {
      std::this_thread::yield();  // consumers lag: let them drain
      continue;
    }
    fill_tick(msg, sym, static_cast<common::u64>(sent));
    if (t.post(sched::home_shard(sym, shards), msg)) {
      ++sent;
      ++sym;
    }
  }
  while (consumed.load(std::memory_order_relaxed) < total_ticks) {
    std::this_thread::yield();
  }
  const Nanos elapsed = monotonic_now() - start;
  stop.store(true);
  for (auto& c : consumers) c.join();

  return elapsed > 0 ? static_cast<double>(total_ticks) * 1e9 /
                           static_cast<double>(elapsed)
                     : -1.0;
}

// ---------------------------------------------------------------------------
// [model] single-threaded calibration of the pipeline terms

struct Calibration {
  double tick_service_ns = -1.0;
  double router_dispatch_ns = -1.0;
  double hop_ns = -1.0;
  long allocs = -1;
};

// Each term is the BEST of kReps repetitions: on a shared/1-cpu host,
// scheduler preemption only ever inflates a window, so min-of-means is
// the stable per-tick cost and keeps the modeled service/dispatch ratio
// (the gated quantity) reproducible.
Calibration calibrate(long ticks_per_rep) {
  Calibration out;
  auto transport = shard::ShardTransport::create(1);
  if (!transport.has_value()) return out;
  auto& t = **transport;

  constexpr int kReps = 7;
  constexpr long kBatch = 256;
  ShardWork work;  // constructed before the audit: ctor may allocate

  const obs::HotpathAudit audit;

  double best_service = -1.0, best_dispatch = -1.0, best_hop = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Shard-side service: poll + indicator round + release, timed over
    // drains of pre-filled batches.
    Nanos service_time = 0;
    long done = 0;
    while (done < ticks_per_rep) {
      for (long i = 0; i < kBatch; ++i) {
        shard::ShardMessage* msg = t.acquire();
        fill_tick(msg, 0, static_cast<common::u64>(done + i));
        t.post(0, msg);
      }
      const Nanos t0 = monotonic_now();
      for (long i = 0; i < kBatch; ++i) {
        shard::ShardMessage* msg = t.poll(0);
        work.consume(*msg);
        t.release(msg);
      }
      service_time += monotonic_now() - t0;
      done += kBatch;
    }
    const double service =
        static_cast<double>(service_time) / static_cast<double>(done);
    if (best_service < 0.0 || service < best_service) best_service = service;

    // Router-side dispatch: acquire + fill + post, drains untimed.
    Nanos dispatch_time = 0;
    done = 0;
    while (done < ticks_per_rep) {
      const Nanos t0 = monotonic_now();
      for (long i = 0; i < kBatch; ++i) {
        shard::ShardMessage* msg = t.acquire();
        fill_tick(msg, 0, static_cast<common::u64>(done + i));
        t.post(0, msg);
      }
      dispatch_time += monotonic_now() - t0;
      for (long i = 0; i < kBatch; ++i) t.release(t.poll(0));
      done += kBatch;
    }
    const double dispatch =
        static_cast<double>(dispatch_time) / static_cast<double>(done);
    if (best_dispatch < 0.0 || dispatch < best_dispatch) {
      best_dispatch = dispatch;
    }

    // Hop: full acquire -> post -> poll -> release round trip, one at a
    // time (what a spilled tick pays on top of home-shard delivery).
    const Nanos h0 = monotonic_now();
    for (long i = 0; i < ticks_per_rep; ++i) {
      shard::ShardMessage* msg = t.acquire();
      fill_tick(msg, 0, static_cast<common::u64>(i));
      t.post(0, msg);
      t.release(t.poll(0));
    }
    const double hop = static_cast<double>(monotonic_now() - h0) /
                       static_cast<double>(ticks_per_rep);
    if (best_hop < 0.0 || hop < best_hop) best_hop = hop;
  }
  out.tick_service_ns = best_service;
  out.router_dispatch_ns = best_dispatch;
  out.hop_ns = best_hop;

  out.allocs = audit.alloc_delta().alloc_calls;
  g_sink = work.sink;
  return out;
}

// ---------------------------------------------------------------------------
// [sim] native 2-shard miss rate vs the simulator's

struct MissRates {
  double native_rate = -1.0;
  double sim_rate = -1.0;
  double diff = -1.0;
};

void burn(Nanos amount) {
  const Nanos until = monotonic_now() + amount;
  while (monotonic_now() < until) {
  }
}

MissRates miss_rate_comparison() {
  MissRates out;
  constexpr int kSymbols = 4;
  constexpr long kJobs = 25;
  const Nanos period = millis(20);
  const Nanos mandatory = millis(2);
  const Nanos windup = millis(1);
  const Nanos optional = millis(5);
  // The bodies burn far less than their WCETs: comfortable load, where
  // native and simulated behaviour must both be miss-free.
  const Nanos body_burn = common::micros(200);

  shard::ShardedRuntimeOptions options;
  options.base.topology = common::Topology::uniform(2, 1);
  options.base.initial_offset = millis(5);
  options.base.termination = core::TerminationStrategy::kPeriodicCheck;
  options.num_shards = 2;
  options.from_env = false;
  shard::ShardedRuntime sr(options);
  for (common::u32 sym = 0; sym < kSymbols; ++sym) {
    core::TaskConfig tc;
    tc.params.name = "bench" + std::to_string(sym);
    tc.params.period = period;
    tc.params.mandatory = mandatory;
    tc.params.windup = windup;
    tc.params.optional = {optional};
    tc.num_jobs = kJobs;
    tc.callbacks.mandatory = [body_burn](const core::JobContext&) {
      burn(body_burn);
    };
    tc.callbacks.optional = [](const core::JobContext&, int,
                               core::StopToken& token) {
      while (!token.should_stop()) {
      }
    };
    tc.callbacks.windup = [](const core::JobContext&) {};
    if (!sr.admit(std::move(tc), sym).is_ok()) return out;
  }
  if (!sr.start().is_ok()) return out;
  sr.wait_all_finished();
  const auto report = sr.stop_and_report();
  long jobs = 0, misses = 0;
  for (const auto& shard_report : report.shards) {
    for (const auto& task : shard_report.tasks) {
      jobs += task.qos.jobs;
      misses += task.qos.deadline_misses;
    }
  }
  if (jobs > 0) {
    out.native_rate = static_cast<double>(misses) / static_cast<double>(jobs);
  }

  // The same shape through sim::ShardedTopology.
  std::vector<sched::SymbolTaskSet> groups;
  for (common::u32 sym = 0; sym < kSymbols; ++sym) {
    sched::SymbolTaskSet group;
    group.symbol = sym;
    sched::ImpreciseTaskParams params;
    params.name = "bench" + std::to_string(sym);
    params.period = period;
    params.mandatory = mandatory;
    params.windup = windup;
    params.optional = {optional};
    group.tasks.add(params);
    groups.push_back(std::move(group));
  }
  sim::ShardedSimOptions sim_options;
  sim_options.per_shard.horizon = period * kJobs;
  const auto simulated = sim::simulate_sharded(groups, {1, 1}, sim_options);
  out.sim_rate = simulated.miss_rate();

  if (out.native_rate >= 0.0 && out.sim_rate >= 0.0) {
    out.diff = out.native_rate > out.sim_rate
                   ? out.native_rate - out.sim_rate
                   : out.sim_rate - out.native_rate;
  }
  return out;
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

  std::printf("=== micro_shard: sharded runtimes over the transport ===\n\n");

  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  constexpr long kNativeTicks = 100'000;
  const double one = native_ticks_per_s(1, kNativeTicks);
  const double two = native_ticks_per_s(2, kNativeTicks);
  const double native_speedup = one > 0 ? two / one : -1.0;
  std::printf("[native] 1 shard: %10.0f ticks/s\n", one);
  std::printf("[native] 2 shards: %9.0f ticks/s  speedup %.2fx "
              "(host has %d cpu%s)\n",
              two, native_speedup, cpus, cpus == 1 ? "" : "s");

  const Calibration cal = calibrate(50'000);
  std::printf("[model]  tick service %.1f ns  router dispatch %.1f ns  "
              "hop %.1f ns\n",
              cal.tick_service_ns, cal.router_dispatch_ns, cal.hop_ns);

  sim::PipelineModel model;
  model.tick_service = static_cast<Nanos>(cal.tick_service_ns);
  model.router_dispatch = static_cast<Nanos>(cal.router_dispatch_ns);
  model.hop_latency = static_cast<Nanos>(cal.hop_ns);
  const double speedup2 = sim::modeled_speedup(model, 2);
  const double speedup4 = sim::modeled_speedup(model, 4);
  std::printf("[model]  modeled speedup: 2 shards %.2fx, 4 shards %.2fx\n",
              speedup2, speedup4);

  const MissRates rates = miss_rate_comparison();
  std::printf("[sim]    2-shard miss rate: native %.4f  simulated %.4f  "
              "|diff| %.4f\n",
              rates.native_rate, rates.sim_rate, rates.diff);

  const bool hook = obs::alloc_hook_installed();
  std::printf("\nalloc hook: %s   cross-shard path allocs: %ld\n",
              hook ? "installed" : "ABSENT", cal.allocs);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"micro_shard\",\n");
    std::fprintf(f, "  \"host\": {%s},\n",
                 rtseed::bench::host_fields().c_str());
    std::fprintf(f, "  \"alloc_hook\": %s,\n", hook ? "true" : "false");
    std::fprintf(f, "  \"steady_state_allocs\": %ld,\n", cal.allocs);
    std::fprintf(f, "  \"hop_ns\": %.1f,\n", cal.hop_ns);
    std::fprintf(f,
                 "  \"native\": {\"ticks\": %ld, "
                 "\"one_shard_ticks_per_s\": %.0f, "
                 "\"two_shard_ticks_per_s\": %.0f, \"speedup\": %.3f},\n",
                 kNativeTicks, one, two, native_speedup);
    std::fprintf(f,
                 "  \"model\": {\"tick_service_ns\": %.1f, "
                 "\"router_dispatch_ns\": %.1f, "
                 "\"modeled_speedup_2\": %.3f, "
                 "\"modeled_speedup_4\": %.3f},\n",
                 cal.tick_service_ns, cal.router_dispatch_ns, speedup2,
                 speedup4);
    std::fprintf(f,
                 "  \"sim\": {\"native_miss_rate\": %.4f, "
                 "\"sim_miss_rate\": %.4f, \"miss_rate_diff\": %.4f}\n",
                 rates.native_rate, rates.sim_rate, rates.diff);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
