#include "core/multi_phase_task.hpp"

#include <algorithm>
#include <limits>

#include "common/rt_logger.hpp"
#include "rt/futex.hpp"
#include "rt/priority.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::core {

common::Expected<MultiPhasePlacement> plan_single_multi_phase(
    const sched::MultiPhaseTaskParams& params) {
  if (auto st = params.validate(); !st) return st;
  const auto analysis = sched::analyze_mrmwp({params});
  if (!analysis.schedulable) {
    return common::failed_precondition(params.name +
                                       ": not RMWP-MP schedulable");
  }
  MultiPhasePlacement placement;
  placement.processor = 0;
  placement.mandatory_priority = rt::rt_capabilities().sched_fifo ? 98 : 0;
  placement.optional_priority =
      rt::rt_capabilities().sched_fifo
          ? rt::optional_priority_for(placement.mandatory_priority)
          : 0;
  placement.optional_deadline_offsets = analysis.optional_deadline[0];
  return placement;
}

namespace {

// Pool size: the widest phase (phases reuse the same threads serially).
int max_parts(const sched::MultiPhaseTaskParams& params) {
  int widest = 0;
  for (const auto& phase : params.optional) {
    widest = std::max(widest, static_cast<int>(phase.size()));
  }
  return widest;
}

}  // namespace

MultiPhaseTask::MultiPhaseTask(MultiPhaseConfig config,
                               MultiPhasePlacement placement,
                               TaskRuntimeOptions options,
                               const common::Topology& topology)
    : config_(std::move(config)),
      placement_(std::move(placement)),
      options_(options),
      topology_(topology),
      records_(1024) {
  OptionalPool::Options pool_options;
  pool_options.termination = options_.termination;
  pool_options.fifo_priority = placement_.optional_priority;
  // placement.processor is the mandatory thread's core index; under
  // kTopologyAware the optional parts stay off it (see assignment.hpp).
  const int mandatory_core =
      placement_.processor >= 0 && placement_.processor < topology.num_cores()
          ? placement_.processor
          : -1;
  pool_options.cpus = assign_optional_parts(
      topology, options_.policy, max_parts(config_.params), mandatory_core);
  pool_options.name_prefix = config_.params.name;
  pool_options.completion_margin = options_.completion_margin;
  pool_options.wake_backend = options_.wake_backend;
  pool_ = std::make_unique<OptionalPool>(
      std::move(pool_options),
      [this](const JobContext& ctx, int part, StopToken& token) {
        if (config_.callbacks.optional) {
          config_.callbacks.optional(
              ctx, current_phase_.load(std::memory_order_acquire), part,
              token);
        }
      });
}

MultiPhaseTask::~MultiPhaseTask() { stop(); }

common::Status MultiPhaseTask::start() {
  if (started_) return common::failed_precondition("task already started");
  if (static_cast<int>(placement_.optional_deadline_offsets.size()) <
      config_.params.num_phases()) {
    return common::invalid_argument(
        "placement is missing optional deadlines for some phases");
  }
  if (config_.params.num_phases() > kMaxPhases) {
    return common::invalid_argument("too many optional phases");
  }
  started_ = true;
  active_.store(true, std::memory_order_release);
  finished_word_.store(0, std::memory_order_release);

  if (auto st = pool_->start(); !st) return st;

  rt::ThreadConfig mc;
  mc.name = config_.params.name + ".m";
  mc.fifo_priority = placement_.mandatory_priority;
  mc.affinity =
      rt::CpuSet::single(topology_.cpu_at(placement_.processor, 0));
  mandatory_thread_ =
      std::make_unique<rt::RtThread>(mc, [this] { mandatory_loop(); });
  return common::Status::ok();
}

void MultiPhaseTask::stop() {
  if (!started_) return;
  active_.store(false, std::memory_order_release);
  if (mandatory_thread_) mandatory_thread_->join();
  pool_->shutdown();
  mandatory_thread_.reset();
  started_ = false;
  mark_finished();
}

void MultiPhaseTask::mark_finished() {
  finished_word_.store(1, std::memory_order_release);
  rt::wake_word(finished_word_, std::numeric_limits<int>::max());
}

void MultiPhaseTask::wait_finished() {
  rt::wait_word(finished_word_, 0);
}

void MultiPhaseTask::mandatory_loop() {
  rt::PeriodicClock clock(config_.params.period, options_.initial_offset);
  clock.start();

  // num_jobs counts EXECUTED jobs; releases skipped by overruns do not.
  const long max_jobs = config_.num_jobs;
  long executed = 0;
  while (active_.load(std::memory_order_acquire)) {
    if (max_jobs > 0 && executed >= max_jobs) break;
    const Nanos release = clock.wait_next_release();
    if (!active_.load(std::memory_order_acquire)) break;
    run_one_job(clock.job_index(), release);
    ++executed;
  }

  mark_finished();
}

void MultiPhaseTask::run_one_job(common::JobId job_index, Nanos release) {
  const auto& params = config_.params;
  const int segments = params.num_segments();
  const int phases = params.num_phases();

  MultiPhaseJobRecord rec;
  rec.job = job_index;
  rec.release = release;
  rec.deadline = release + params.effective_deadline();

  JobContext ctx;
  ctx.job = job_index;
  ctx.release = release;
  ctx.deadline = rec.deadline;

  for (int segment = 0; segment < segments; ++segment) {
    if (config_.callbacks.mandatory) {
      try {
        config_.callbacks.mandatory(ctx, segment);
      } catch (const std::exception& e) {
        callback_errors_.fetch_add(1, std::memory_order_relaxed);
        common::global_logger().error("%s: exception in segment %d: %s",
                                      params.name.c_str(), segment, e.what());
      }
    }

    if (segment >= phases) continue;  // no optional phase after this one
    const auto parts = static_cast<int>(
        params.optional[static_cast<size_t>(segment)].size());
    PhaseOutcome outcome;
    const Nanos abs_od =
        release +
        placement_.optional_deadline_offsets[static_cast<size_t>(segment)];
    if (parts > 0 && common::monotonic_now() < abs_od) {
      current_phase_.store(segment, std::memory_order_release);
      ctx.optional_deadline = abs_od;
      const auto round = pool_->run_round(ctx, parts);
      outcome.completed = round.completed;
      outcome.terminated = round.terminated;
    } else {
      // The segment overran its phase's optional deadline: the whole
      // phase is discarded and the next mandatory segment runs at once.
      outcome.discarded = parts;
    }
    rec.phases.push_back(outcome);
  }

  rec.finished = common::monotonic_now();
  rec.deadline_met = rec.finished <= rec.deadline;
  if (!records_.try_push(rec)) {
    records_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<MultiPhaseJobRecord> MultiPhaseTask::drain_records() {
  std::vector<MultiPhaseJobRecord> out;
  while (auto rec = records_.try_pop()) out.push_back(*rec);
  return out;
}

}  // namespace rtseed::core
