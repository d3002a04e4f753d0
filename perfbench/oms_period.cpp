// oms_period: OmsTask on core::Runtime (P-RMWP), an open loop at 1 kHz.
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/runtime.hpp"
#include "lob/oms.hpp"
#include "oms_jobs.hpp"
#include "spans.hpp"
#include "trading/oms_task.hpp"

namespace perfbench {

namespace core = rtseed::core;
namespace lob = rtseed::lob;
namespace shard = rtseed::shard;
namespace trading = rtseed::trading;
using rtseed::common::monotonic_now;

JobTiling tile_job(const JobStamps& s) {
  JobTiling t;
  t.release_lag = s.m_start - s.release;
  t.mandatory = s.m_end - s.m_start;
  t.windup = s.w_end - s.w_start;
  t.drain = s.done - s.w_end;
  t.response = s.done - s.release;

  std::pair<Nanos, Nanos> parts[kBands];
  usize n = 0;
  Nanos first = std::numeric_limits<Nanos>::max();
  Nanos last = std::numeric_limits<Nanos>::min();
  bool parts_ordered = true;
  for (int k = 0; k < kBands; ++k) {
    if (s.o_start[k] == 0) continue;
    parts[n++] = {s.o_start[k], optional_end(s, k)};
    first = std::min(first, s.o_start[k]);
    last = std::max(last, optional_end(s, k));
    parts_ordered = parts_ordered && optional_end(s, k) >= s.o_start[k];
  }
  if (n == 0) {
    t.collect = s.w_start - s.m_end;
  } else {
    t.dispatch = first - s.m_end;
    t.optional = union_length(std::span(parts, n));
    t.holes = (last - first) - t.optional;
    t.collect = s.w_start - last;
  }
  t.ordered = parts_ordered && t.release_lag >= 0 && t.mandatory >= 0 &&
              t.dispatch >= 0 && t.collect >= 0 && t.windup >= 0 &&
              t.drain >= 0;
  return t;
}

namespace {

constexpr u32 kSymbol = 1;
/// A run is kChunks measured runtimes in sequence, each on a fresh
/// set-up, so that set-up is sampled across the whole run rather than at
/// one moment of it.
constexpr int kChunks = 15;
/// Set-ups per chunk: throwaway ones, then the measured one.  All are timed.
constexpr int kSetupsPerChunk = 8;
constexpr int kBandLevels = 16;

/// The OmsTask, its 1-shard gateway transport, and the bench's per-job
/// stamps — everything a part wrapper reaches through its one captured
/// pointer.
struct Harness {
  std::unique_ptr<shard::ShardTransport> transport;
  std::unique_ptr<trading::OmsTask> task;
  std::vector<JobStamps> stamps;  ///< sized outside the timed set-up
  bool traced = false;
  long exec_reports = 0;

  explicit Harness(const trading::OmsTaskConfig& config) {
    auto created = shard::ShardTransport::create(1);
    if (!created.has_value()) {
      throw std::runtime_error("transport: " + created.status().message());
    }
    transport = std::move(*created);
    task = std::make_unique<trading::OmsTask>(config);
    task->bind_transport(transport.get(), 0, kSymbol);
  }

  JobStamps* slot(core::JobId job) {
    return job >= 0 && static_cast<usize>(job) < stamps.size()
               ? &stamps[static_cast<usize>(job)]
               : nullptr;
  }

  void mandatory(const core::JobContext& ctx) {
    JobStamps* s = slot(ctx.job);
    if (s != nullptr) {
      s->release = ctx.release;
      s->deadline = ctx.deadline;
      s->optional_deadline = ctx.optional_deadline;
      if (traced) s->m_start = monotonic_now();
    }
    task->on_mandatory(ctx);
    if (s != nullptr && traced) s->m_end = monotonic_now();
  }

  void optional(const core::JobContext& ctx, int part, core::StopToken& token) {
    JobStamps* s = traced && part >= 0 && part < kBands ? slot(ctx.job)
                                                         : nullptr;
    if (s != nullptr) s->o_start[part] = monotonic_now();
    task->on_optional(ctx, part, token);
    if (s != nullptr) s->o_end[part] = monotonic_now();
  }

  void windup(const core::JobContext& ctx) {
    JobStamps* s = slot(ctx.job);
    if (s != nullptr && traced) s->w_start = monotonic_now();
    task->on_windup(ctx);
    if (s != nullptr && traced) s->w_end = monotonic_now();
    while (shard::ShardMessage* msg = transport->poll_result(0)) {
      if (msg->kind == shard::MessageKind::kExecReport) ++exec_reports;
      transport->release(msg);
    }
    if (s != nullptr) s->done = monotonic_now();
  }
};

core::TaskConfig wrapped_task(Harness* h, long num_jobs) {
  core::TaskConfig config = h->task->make_task_config(num_jobs);
  config.callbacks.mandatory = [h](const core::JobContext& ctx) {
    h->mandatory(ctx);
  };
  config.callbacks.optional = [h](const core::JobContext& ctx, int part,
                                  core::StopToken& token) {
    h->optional(ctx, part, token);
  };
  config.callbacks.windup = [h](const core::JobContext& ctx) {
    h->windup(ctx);
  };
  return config;
}

/// Output checks of the run: book, exec reports, order conservation.
void check_oms(Result& r, Harness& h, long jobs) {
  const trading::OmsTask::Stats st = h.task->stats();
  const lob::OrderManager& oms = h.task->oms();
  char why[256] = {};
  r.check(oms.book().check_invariants(why, sizeof(why)),
          std::string("book invariants: ") + why);
  r.check(st.jobs == jobs, "jobs run " + std::to_string(st.jobs) + " != " +
                               std::to_string(jobs));
  r.check(h.exec_reports == jobs,
          "exec reports " + std::to_string(h.exec_reports) + " != jobs " +
              std::to_string(jobs));
  u64 terminal = 0;
  for (u64 c : oms.stats().terminal) terminal += c;
  r.check(oms.stats().submissions == terminal + oms.open_client_orders(),
          "client-order conservation: submissions " +
              std::to_string(oms.stats().submissions) + " != terminal " +
              std::to_string(terminal) + " + open " +
              std::to_string(oms.open_client_orders()));
  // Gateway conservation: every order posted reached the OMS or still
  // waits in the ingress ring for the next mandatory part.
  r.check(st.orders_via_transport ==
              oms.stats().submissions + h.transport->ingress_size_approx(0),
          "gateway conservation: posted " +
              std::to_string(st.orders_via_transport) + " != submitted " +
              std::to_string(oms.stats().submissions) + " + in flight");
}

/// One measured runtime: its harness, whose stamps hold the executed
/// jobs in release order, and what the runtime reported.
struct Chunk {
  std::unique_ptr<Harness> harness;
  long jobs = 0;      ///< jobs the runtime ran
  long releases = 0;  ///< due releases, skipped ones included
  Nanos cpu = 0;      ///< process CPU while the jobs ran
  long voluntary_switches = 0;
  long involuntary_switches = 0;
  bool rt_degraded = false;
};

/// Sets up kSetupsPerChunk runtimes (timed into `setup_s`), runs the last
/// one for `jobs` jobs and stops it.
Chunk run_chunk(const trading::OmsTaskConfig& config,
                const core::RuntimeOptions& rt_options, long jobs, bool traced,
                std::vector<double>& setup_s, std::vector<double>& analyze_ms) {
  struct Instance {
    std::unique_ptr<Harness> harness;
    std::unique_ptr<core::Runtime> runtime;
  };
  // Construct -> admit -> analyze -> start.
  const auto set_up = [&](bool measured) {
    Instance in;
    // The bench's own stamp array is allocated outside the timed set-up.
    // Job indices run past `jobs` by the releases the runtime skips.
    std::vector<JobStamps> stamps(
        measured ? static_cast<usize>(jobs + jobs / 4 + 64) : 0);
    const Nanos t0 = monotonic_now();
    in.harness = std::make_unique<Harness>(config);
    in.harness->stamps = std::move(stamps);
    in.harness->traced = measured && traced;
    in.runtime = std::make_unique<core::Runtime>(rt_options);
    if (auto st = in.runtime->admit(wrapped_task(in.harness.get(), jobs));
        !st) {
      throw std::runtime_error("admit: " + st.message());
    }
    const Nanos ta = monotonic_now();
    auto plan = in.runtime->analyze();
    if (!plan.has_value()) {
      throw std::runtime_error("analyze: " + plan.status().message());
    }
    analyze_ms.push_back(to_ms(monotonic_now() - ta));
    if (auto st = in.runtime->start(); !st) {
      throw std::runtime_error("start: " + st.message());
    }
    setup_s.push_back(static_cast<double>(monotonic_now() - t0) / 1e9);
    return in;
  };
  for (int i = 1; i < kSetupsPerChunk; ++i) set_up(false).runtime->stop();

  Instance in = set_up(true);
  const CpuUsage cpu0 = cpu_usage();
  in.runtime->wait_all_finished();
  const CpuUsage cpu1 = cpu_usage();
  const core::RuntimeReport report = in.runtime->stop_and_report();

  Chunk c;
  c.jobs = jobs;
  c.cpu = cpu1.self_cpu - cpu0.self_cpu;
  c.voluntary_switches = cpu1.voluntary_switches - cpu0.voluntary_switches;
  c.involuntary_switches =
      cpu1.involuntary_switches - cpu0.involuntary_switches;
  c.rt_degraded = report.rt_degraded;
  // A release that falls inside an overrunning job is skipped: its index
  // never runs.  Keep the executed jobs, in release order.
  Harness& h = *in.harness;
  std::vector<JobStamps> executed;
  executed.reserve(static_cast<usize>(jobs));
  for (usize i = 0; i < h.stamps.size(); ++i) {
    if (h.stamps[i].release == 0) continue;
    executed.push_back(h.stamps[i]);
    c.releases = static_cast<long>(i) + 1;
  }
  h.stamps = std::move(executed);
  if (h.stamps.size() < 2) throw std::runtime_error("fewer than 2 jobs ran");
  c.harness = std::move(in.harness);
  return c;
}

/// Per-layer metrics and the tiling check of a traced run.
void oms_layers(Result& r, const Options& options,
                const std::vector<Chunk>& chunks) {
  usize total = 0;
  for (const Chunk& c : chunks) total += c.harness->stamps.size();
  SpanLog log(total * (3 + kBands));
  std::vector<double> lag, dispatch, fanout, collect, response, open_orders;
  long completed = 0, terminated = 0, discarded = 0, misses = 0, untiled = 0;
  double via_transport = 0, exec_reports = 0, rejected = 0, iterations = 0;
  double trades = 0, risk_rejects = 0, drops = 0, exhausted = 0;
  u64 id = 0;
  for (const Chunk& c : chunks) {
    const Harness& h = *c.harness;
    for (const JobStamps& s : h.stamps) {
      const int root = log.add("job", id, s.release, s.done, 0);
      log.add("trading.mandatory", id, s.m_start, s.m_end, 1, root);
      bool any_optional = false;
      for (int k = 0; k < kBands; ++k) {
        if (s.o_start[k] == 0) {
          ++discarded;
          continue;
        }
        any_optional = true;
        ++(s.o_end[k] != 0 ? completed : terminated);
        log.add("trading.optional", id, s.o_start[k], optional_end(s, k),
                2 + k, root);
      }
      log.add("trading.windup", id, s.w_start, s.w_end, 1, root);
      log.add("shard.egress_drain", id, s.w_end, s.done, 1, root);
      ++id;

      const JobTiling t = tile_job(s);
      if (!t.ordered) ++untiled;
      if (s.done > s.deadline) ++misses;
      lag.push_back(to_us(t.release_lag));
      if (any_optional) {
        dispatch.push_back(to_us(t.dispatch));
        fanout.push_back(to_us(t.holes));
        collect.push_back(to_us(t.collect));
      }
      response.push_back(to_us(t.response));
    }
    const trading::OmsTask::Stats st = h.task->stats();
    via_transport += static_cast<double>(st.orders_via_transport);
    exec_reports += static_cast<double>(h.exec_reports);
    rejected += static_cast<double>(st.orders_rejected);
    iterations += static_cast<double>(st.band_iterations);
    trades += static_cast<double>(h.task->oms().book().stats().trades);
    open_orders.push_back(static_cast<double>(h.task->oms().book().open_orders()));
    risk_rejects += static_cast<double>(h.task->oms().stats().risk_rejects);
    drops += static_cast<double>(h.transport->ingress_drops());
    exhausted += static_cast<double>(h.transport->pool_exhausted());
  }
  r.check(untiled == 0, std::to_string(untiled) +
                            " jobs whose part stamps are out of order");

  auto& v = r.values;
  v["core.release_lag_us"] = median(lag);
  v["core.dispatch_us"] = median(dispatch);
  v["core.fanout_gap_us"] = median(fanout);
  v["core.collect_us"] = median(collect);
  v["core.response_p99_us"] = percentile(response, 0.99);
  v["core.optional_completed"] = static_cast<double>(completed);
  v["core.optional_terminated"] = static_cast<double>(terminated);
  v["core.optional_discarded"] = static_cast<double>(discarded);
  v["core.deadline_misses"] = static_cast<double>(misses);
  v["trading.mandatory_us"] = median(log.durations_us("trading.mandatory"));
  v["trading.optional_us"] = median(log.durations_us("trading.optional"));
  v["trading.windup_us"] = median(log.durations_us("trading.windup"));
  v["trading.orders_via_transport"] = via_transport;
  v["trading.exec_reports"] = exec_reports;
  v["trading.orders_rejected"] = rejected;
  v["trading.band_iterations"] = iterations;
  const trading::OmsTask& first = *chunks.front().harness->task;
  v["lob.apply_flow_ns"] = replay_apply_flow_ns(
      first.config().flow_seed, first.config().oms.book, first.config().flow,
      static_cast<u64>(first.stats().market_events));
  v["lob.trades"] = trades;
  v["lob.open_orders"] = median(open_orders);
  v["lob.risk_rejects"] = risk_rejects;
  v["shard.ingress_drops"] = drops;
  v["shard.pool_exhausted"] = exhausted;
  v["trace.spans"] = static_cast<double>(log.spans().size());

  std::vector<Nanos> self = log.self_times();
  std::vector<double> job_self;
  for (usize i = 0; i < self.size(); ++i) {
    if (log.spans()[i].parent < 0) job_self.push_back(to_us(self[i]));
  }
  r.note("job_self_time_p50_us (gaps outside wrapped calls)", median(job_self),
         "us");
  write_trace(r, options, log,
              {"jobs", "mandatory", "optional0", "optional1", "optional2"});
}

}  // namespace

Result run_oms_period(const Options& options) {
  Result r;
  const long jobs = std::max(
      16L, static_cast<long>(options.seconds * 1000.0) / kChunks);
  trading::OmsTaskConfig config;
  config.period = rtseed::common::millis(1);
  config.num_bands = kBands;
  config.band_levels = kBandLevels;
  config.events_per_job = 64;

  core::RuntimeOptions rt_options;
  rt_options.policy = core::AssignmentPolicy::kOneByOne;
  rt_options.termination = core::TerminationStrategy::kSigjmp;

  std::vector<double> setup_s, analyze_ms;
  std::vector<Chunk> chunks;
  for (int i = 0; i < kChunks; ++i) {
    // Every chunk gets its own market stream, all derived from the seed.
    config.flow_seed = options.seed * kChunks + static_cast<u64>(i);
    chunks.push_back(run_chunk(config, rt_options, jobs, options.trace,
                               setup_s, analyze_ms));
  }

  std::vector<double> response;
  long releases = 0, skipped = 0, misses = 0, unfinished = 0, drops = 0;
  long band_iterations = 0, voluntary = 0, involuntary = 0;
  double completions = 0, completion_ns = 0;
  Nanos cpu = 0;
  bool rt_degraded = false;
  for (const Chunk& c : chunks) {
    Harness& h = *c.harness;
    r.check(static_cast<long>(h.stamps.size()) == c.jobs,
            std::to_string(h.stamps.size()) + " of " + std::to_string(c.jobs) +
                " executed jobs stamped");
    for (const JobStamps& s : h.stamps) {
      if (s.done == 0) {
        ++unfinished;
        continue;
      }
      response.push_back(to_us(s.done - s.release));
      if (s.done > s.deadline) ++misses;
    }
    check_oms(r, h, c.jobs);
    const trading::OmsTask::Stats st = h.task->stats();
    releases += c.releases;
    skipped += c.releases - static_cast<long>(h.stamps.size());
    drops += static_cast<long>(st.transport_drops);
    band_iterations += st.band_iterations;
    cpu += c.cpu;
    voluntary += c.voluntary_switches;
    involuntary += c.involuntary_switches;
    rt_degraded = rt_degraded || c.rt_degraded;
    completions += static_cast<double>(h.stamps.size() - 1);
    completion_ns +=
        static_cast<double>(h.stamps.back().done - h.stamps.front().done);
  }
  r.check(unfinished == 0, std::to_string(unfinished) + " jobs never finished");

  // Every job run is an attempt; it fails if one of its gateway posts was
  // dropped or it never finished.  Deadline misses and skipped releases
  // are timing outcomes that follow the host's stalls (multi-ms vCPU
  // pauses on a shared host), so they are reported, not counted as failed.
  const double jobs_run = static_cast<double>(jobs) * kChunks;
  r.attempted = static_cast<long>(jobs) * kChunks;
  r.failed = drops + unfinished;
  r.values["setup_s"] = median(setup_s);
  r.values["latency_p50_us"] = percentile(response, 0.5);
  r.values["tail.latency_p99_us"] = percentile(response, 0.99);
  r.values["cpu_us_per_op"] = to_us(cpu) / jobs_run;
  const double qos = static_cast<double>(band_iterations) /
                     (jobs_run * kBands * kBandLevels);
  r.values["trading.qos_refinement"] = qos;
  r.note("job_response_p50_us", r.values["latency_p50_us"], "us");
  r.note("job_response_p99_us", r.values["tail.latency_p99_us"], "us");
  r.note("job_response_samples", static_cast<double>(response.size()), "jobs");
  r.note("job_response_samples_beyond_p99",
         static_cast<double>(samples_beyond(response.size(), 0.99)), "jobs");
  r.note("cpu_us_per_job", r.values["cpu_us_per_op"], "us");
  r.note("qos_refinement", qos, "ratio");
  // Pinned to the offered 1 kHz unless releases are skipped (counted as
  // failures), so it is a note and not a metric.
  r.note("jobs_per_s (open loop, 1 kHz offered)",
         completion_ns > 0 ? completions * 1e9 / completion_ns : 0.0, "1/s");
  r.note("setup_samples", static_cast<double>(setup_s.size()), "set-ups");
  r.note("deadline_misses", static_cast<double>(misses), "jobs");
  r.note("skipped_releases", static_cast<double>(skipped), "jobs");
  r.note("due_releases", static_cast<double>(releases), "jobs");
  r.note("rt_degraded", rt_degraded ? 1.0 : 0.0, "bool");

  r.values["sched.analyze_ms"] = median(analyze_ms);
  r.values["core.rt_degraded"] = rt_degraded ? 1.0 : 0.0;
  r.values["core.skipped_releases"] = static_cast<double>(skipped);
  r.values["core.voluntary_switches_per_job"] =
      static_cast<double>(voluntary) / jobs_run;
  r.values["core.involuntary_switches_per_job"] =
      static_cast<double>(involuntary) / jobs_run;
  if (options.trace) oms_layers(r, options, chunks);
  return r;
}

}  // namespace perfbench
