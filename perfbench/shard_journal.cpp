// shard_journal: journaled shard processes under a closed-loop producer,
// with SIGKILL -> respawn -> journal replay -> catch-up on a fixed event
// schedule, every recovery checked against in-process mirror workers.
#include <signal.h>
#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "lob/flow.hpp"
#include "shard/process_runtime.hpp"
#include "shard/worker.hpp"
#include "spans.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace lob = rtseed::lob;
namespace shard = rtseed::shard;
using rtseed::common::monotonic_now;

namespace {

constexpr int kShards = 2;
constexpr u32 kSymbols = 16;
constexpr int kBatch = 64;
/// Events posted to a dead shard while it is down (fits its 1024-slot ring).
constexpr int kBacklog = 512;
/// A run is a sequence of sessions, each on fresh journals: kSessionEvents
/// flow events with both shards killed in turn once kKillAt events have
/// been applied.  Fixed event positions give every session journals of the
/// same length to replay, and bound the journal a run leaves on disk.
constexpr u64 kSessionEvents = 600'000;
constexpr u64 kKillAt = 300'000;
constexpr Nanos kWaitLimit = rtseed::common::seconds(10);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

shard::WorkerConfig worker_config() {
  shard::WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 1 << 10;
  config.book.max_orders = 1 << 12;
  config.snapshot_every = 4096;
  return config;
}

/// Removes a directory tree on scope exit (journals must not outlive the
/// run, and a stale journal would be replayed by the next one).
struct ScopedDir {
  fs::path path;
  explicit ScopedDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
};

std::unique_ptr<shard::ProcessShardRuntime> start_runtime(
    const std::string& journal_dir) {
  shard::ProcessRuntimeOptions options;
  options.num_shards = kShards;
  options.worker = worker_config();
  options.journal_dir = journal_dir;
  options.start_supervisor = false;
  auto created = shard::ProcessShardRuntime::create(options);
  if (!created.has_value()) {
    throw std::runtime_error("create: " + created.status().message());
  }
  std::unique_ptr<shard::ProcessShardRuntime> rt = std::move(*created);
  if (auto st = rt->start(); !st) {
    throw std::runtime_error("start: " + st.message());
  }
  const Nanos limit = monotonic_now() + kWaitLimit;
  for (int s = 0; s < kShards; ++s) {
    while (rt->control(s)->state.load(std::memory_order_acquire) !=
           static_cast<u32>(shard::ShardState::kRunning)) {
      if (monotonic_now() > limit) throw std::runtime_error("shard start timeout");
      cpu_relax();
    }
  }
  return rt;
}

shard::ShardMessage flow_message(u32 symbol, u64 seq, const lob::FlowEvent& ev) {
  shard::ShardMessage msg{};
  msg.kind = shard::MessageKind::kFlow;
  msg.symbol = symbol;
  msg.seq = seq;
  msg.body.flow.price_ticks = ev.price;
  msg.body.flow.qty = ev.qty;
  msg.body.flow.flow_kind = static_cast<u32>(ev.kind);
  msg.body.flow.side = static_cast<u32>(ev.side);
  msg.body.flow.pick = ev.pick;
  return msg;
}

/// What the producer measured, over every session of a run.
struct Totals {
  long attempted = 0;
  long failed = 0;
  u64 kills = 0;
  u64 steady_events = 0;  ///< events posted in batches (not backlogs)
  Nanos steady_ns = 0;    ///< producer time spent in batches
  u64 events = 0;         ///< events accepted, backlogs included
  u64 journal_bytes = 0;
  u64 respawn_recoveries = 0;
  u64 deltas_applied = 0;
  u64 ingress_drops = 0;
  u64 pool_exhausted = 0;
  u64 trades = 0;
  u64 open_orders = 0;
  u64 risk_vetoes = 0;
  /// The producer thread's CPU spent checking (mirrors, digests, journal
  /// sizes and removal); cpu_us_per_op leaves it out.
  Nanos checker_cpu = 0;
  std::vector<double> setup_s;
  std::vector<double> latency_us;  ///< per batch, in time order
  std::vector<double> post_ns;  ///< per batch: post phase / posts
  std::vector<double> reap_ms, respawn_ms, catchup_ms, recovery_ms;
  std::vector<std::string> violations;
  u64 next_id = 0;  ///< span ids: batches and kill cycles
};

/// Adds the calling thread's CPU time over its scope to `total`.
class ThreadCpuScope {
 public:
  explicit ThreadCpuScope(Nanos& total)
      : total_(total), start_(thread_cpu_now()) {}
  ~ThreadCpuScope() { total_ += thread_cpu_now() - start_; }
  ThreadCpuScope(const ThreadCpuScope&) = delete;
  ThreadCpuScope& operator=(const ThreadCpuScope&) = delete;

 private:
  Nanos& total_;
  Nanos start_;
};

/// One session: the producer thread posting seeded flow in batches and
/// spinning on each shard's applied_seq, plus the in-process mirrors the
/// shards are checked against.
class Session {
 public:
  Session(shard::ProcessShardRuntime& rt, lob::FlowGenerator& gen,
          Totals& totals, SpanLog* log)
      : rt_(rt), gen_(gen), t_(totals), log_(log) {
    const ThreadCpuScope checking(t_.checker_cpu);
    for (int s = 0; s < kShards; ++s) {
      // Accepted events wait here for their mirror at most one batch or
      // backlog: appends inside the timed window never reallocate.
      pending_[s].reserve(kBacklog + kBatch);
      auto mirror = shard::ShardWorker::create(worker_config());
      if (!mirror.has_value()) {
        throw std::runtime_error("mirror: " + mirror.status().message());
      }
      mirrors_[s] = std::move(*mirror);
    }
    for (u32 sym = 0; sym < kSymbols; ++sym) {
      homed_[rt.shard_of(sym)].push_back(sym);
    }
    for (int s = 0; s < kShards; ++s) {
      if (homed_[s].empty()) throw std::runtime_error("a shard owns no symbol");
    }
  }

  u64 events() const { return seq_[0] + seq_[1]; }

  /// Posts one batch across all symbols and waits until it is applied.
  void batch() {
    const u64 id = t_.next_id++;
    const Nanos t0 = monotonic_now();
    for (int i = 0; i < kBatch; ++i) {
      post(symbol_);
      symbol_ = (symbol_ + 1) % kSymbols;
    }
    const Nanos posted = monotonic_now();
    for (int s = 0; s < kShards; ++s) wait_applied(s);
    const Nanos t1 = monotonic_now();
    t_.steady_events += kBatch;
    t_.steady_ns += t1 - t0;
    t_.latency_us.push_back(to_us(t1 - t0));
    t_.post_ns.push_back(static_cast<double>(posted - t0) / kBatch);
    if (log_ != nullptr) {
      const int root = log_->add("batch", id, t0, t1, 0);
      log_->add("shard.post_flow", id, t0, posted, 0, root);
      log_->add("shard.wait_applied", id, posted, t1, 0, root);
    }
    const ThreadCpuScope checking(t_.checker_cpu);
    for (int s = 0; s < kShards; ++s) feed_mirror(s);
  }

  /// SIGKILL shard `k`, post a backlog to it, respawn it, wait for it to
  /// catch up, then check it against its mirror.
  void kill_cycle(int k) {
    const u64 id = t_.next_id++;
    const Nanos t0 = monotonic_now();
    if (!rt_.signal_process(k, SIGKILL)) throw std::runtime_error("kill failed");
    while (!rt_.reap_process(k)) {
      if (monotonic_now() - t0 > kWaitLimit) throw std::runtime_error("reap timeout");
      sched_yield();
    }
    const Nanos reaped = monotonic_now();
    const std::vector<u32>& syms = homed_[k];
    for (int i = 0; i < kBacklog; ++i) post(syms[static_cast<usize>(i) % syms.size()]);
    const Nanos respawn = monotonic_now();
    if (!rt_.respawn_process(k)) throw std::runtime_error("respawn failed");
    const Nanos running = monotonic_now();
    wait_applied(k);
    const Nanos caught_up = monotonic_now();
    ++t_.kills;
    t_.reap_ms.push_back(to_ms(reaped - t0));
    t_.respawn_ms.push_back(to_ms(running - respawn));
    t_.catchup_ms.push_back(to_ms(caught_up - running));
    t_.recovery_ms.push_back(to_ms(caught_up - respawn));
    check_against_mirror(k);
    if (log_ != nullptr) {
      const int root = log_->add("recovery", id, t0, monotonic_now(), 1);
      log_->add("shard.kill_reap", id, t0, reaped, 1, root);
      log_->add("shard.backlog_post", id, reaped, respawn, 1, root);
      log_->add("shard.respawn", id, respawn, running, 1, root);
      log_->add("shard.catchup", id, running, caught_up, 1, root);
    }
  }

  /// The recovered (or never-killed) shard's digest and position must
  /// equal its mirror fed the identical accepted stream.
  void check_against_mirror(int s) {
    const ThreadCpuScope checking(t_.checker_cpu);
    feed_mirror(s);
    auto digest = rt_.request_digest(s, kWaitLimit);
    if (!digest.has_value()) {
      t_.violations.push_back("digest request: " + digest.status().message());
      return;
    }
    const std::string tag = "shard " + std::to_string(s) + " after " +
                            std::to_string(t_.kills) + " kills: ";
    if (*digest != mirrors_[s]->book_digest()) {
      t_.violations.push_back(tag + "book digest differs from the mirror");
    }
    if (rt_.control(s)->position.load() != mirrors_[s]->position()) {
      t_.violations.push_back(tag + "position differs from the mirror");
    }
  }

  /// Final checks and counters of the session; the shards are still up.
  void finish(const fs::path& journal_dir, u64 kills_before) {
    u64 recoveries = 0;
    for (int s = 0; s < kShards; ++s) {
      check_against_mirror(s);
      const shard::ShardControl* control = rt_.control(s);
      recoveries += control->recoveries.load();
      t_.deltas_applied += control->deltas_applied.load();
      std::error_code ec;
      const auto size = fs::file_size(
          journal_dir / ("shard-" + std::to_string(s) + ".journal"), ec);
      if (!ec) t_.journal_bytes += static_cast<u64>(size);
      const shard::ShardWorker& m = *mirrors_[s];
      t_.trades += m.book().stats().trades;
      t_.open_orders += m.book().open_orders();
      for (u64 c : m.risk().stats().vetoes) t_.risk_vetoes += c;
    }
    // Each shard recovers once at start, then once per kill.
    const u64 respawned = recoveries - kShards;
    t_.respawn_recoveries += respawned;
    if (respawned != t_.kills - kills_before) {
      t_.violations.push_back("recoveries " + std::to_string(respawned) +
                              " != kills " +
                              std::to_string(t_.kills - kills_before));
    }
    t_.events += events();
    t_.ingress_drops += rt_.transport()->ingress_drops();
    t_.pool_exhausted += rt_.transport()->pool_exhausted();
  }

 private:
  /// Applies the events shard `s` accepted since the last call to its
  /// mirror, outside every timed window.
  void feed_mirror(int s) {
    for (const shard::ShardMessage& msg : pending_[s]) mirrors_[s]->apply(msg);
    pending_[s].clear();
  }

  void post(u32 symbol) {
    const lob::FlowEvent ev = gen_.next();
    const int s = rt_.shard_of(symbol);
    ++t_.attempted;
    if (!rt_.post_flow(symbol, ev)) {
      ++t_.failed;
      return;
    }
    pending_[s].push_back(flow_message(symbol, ++seq_[s], ev));
  }

  void wait_applied(int s) {
    const auto& applied = rt_.control(s)->applied_seq;
    if (applied.load(std::memory_order_acquire) >= seq_[s]) return;
    const Nanos limit = monotonic_now() + kWaitLimit;
    u32 spins = 0;
    while (applied.load(std::memory_order_acquire) < seq_[s]) {
      if ((++spins & 0xFFF) == 0 && monotonic_now() > limit) {
        throw std::runtime_error("shard " + std::to_string(s) +
                                 " stopped applying");
      }
      cpu_relax();
    }
  }

  shard::ProcessShardRuntime& rt_;
  lob::FlowGenerator& gen_;
  Totals& t_;
  SpanLog* log_;
  std::unique_ptr<shard::ShardWorker> mirrors_[kShards];
  std::vector<shard::ShardMessage> pending_[kShards];
  std::vector<u32> homed_[kShards];
  u64 seq_[kShards] = {};
  u32 symbol_ = 0;
};

}  // namespace

Result run_shard_journal(const Options& options) {
  Result r;
  ScopedDir dir(fs::path(options.workdir) /
                ("journal-" + std::to_string(::getpid())));
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>(usize{1} << 20);
  lob::FlowGenerator gen(options.seed, worker_config().book);
  Totals t;

  const CpuUsage cpu0 = cpu_usage();
  const Nanos end =
      monotonic_now() + static_cast<Nanos>(options.seconds * 1e9);
  for (int session = 0; monotonic_now() < end; ++session) {
    const fs::path journal_dir = dir.path / ("session-" + std::to_string(session));
    fs::create_directories(journal_dir);
    const Nanos t0 = monotonic_now();
    std::unique_ptr<shard::ProcessShardRuntime> rt =
        start_runtime(journal_dir.string());
    t.setup_s.push_back(static_cast<double>(monotonic_now() - t0) / 1e9);

    Session s(*rt, gen, t, log.get());  // builds the mirrors: checker CPU
    const u64 kills_before = t.kills;
    bool killed = false;
    while (s.events() < kSessionEvents && monotonic_now() < end) {
      if (!killed && s.events() >= kKillAt) {
        for (int k = 0; k < kShards; ++k) s.kill_cycle(k);
        killed = true;
      }
      s.batch();
    }
    s.finish(journal_dir, kills_before);
    rt->stop();  // reaps the children, so their CPU is counted below
    rt.reset();
    const ThreadCpuScope checking(t.checker_cpu);
    fs::remove_all(journal_dir);
  }
  const CpuUsage cpu1 = cpu_usage();

  r.violations = t.violations;
  r.check(t.kills > 0, "no kill happened within the run");
  const std::vector<double>& latency = t.latency_us;

  // Program CPU: producer and shard processes, without the checker's.
  const Nanos cpu = (cpu1.self_cpu - cpu0.self_cpu) +
                    (cpu1.children_cpu - cpu0.children_cpu) - t.checker_cpu;
  r.attempted = t.attempted;
  r.failed = t.failed;
  auto& v = r.values;
  v["setup_s"] = median(t.setup_s);
  v["latency_p50_us"] = percentile(latency, 0.5);
  v["tail.latency_p99_us"] = percentile(latency, 0.99);
  v["cpu_us_per_op"] =
      t.events > 0 ? to_us(cpu) / static_cast<double>(t.events) : 0.0;

  // 64 / mean batch latency: the same samples as latency_p50_us.
  r.note("flow_events_per_s (kill intervals excluded)",
         t.steady_ns > 0 ? static_cast<double>(t.steady_events) * 1e9 /
                               static_cast<double>(t.steady_ns)
                         : 0.0,
         "1/s");
  r.note("apply_latency_p50_us", v["latency_p50_us"], "us");
  r.note("apply_latency_p99_us", v["tail.latency_p99_us"], "us");
  r.note("apply_latency_samples", static_cast<double>(latency.size()),
         "batches");
  r.note("recovery_ms (median over kills)", median(t.recovery_ms), "ms");
  r.note("sessions", static_cast<double>(t.setup_s.size()), "count");
  r.note("kills", static_cast<double>(t.kills), "count");
  r.note("journal_mb (all sessions)", static_cast<double>(t.journal_bytes) / 1e6,
         "MB");

  if (options.trace) {
    v["lob.apply_flow_ns"] = replay_apply_flow_ns(
        options.seed, worker_config().book, lob::FlowConfig{}, t.events);
    v["lob.trades"] = static_cast<double>(t.trades);
    v["lob.open_orders"] = static_cast<double>(t.open_orders);
    v["lob.risk_rejects"] = static_cast<double>(t.risk_vetoes);
    v["shard.post_ns"] = median(t.post_ns);
    v["shard.journal_bytes_per_event"] =
        t.events > 0 ? static_cast<double>(t.journal_bytes) /
                           static_cast<double>(t.events)
                     : 0.0;
    v["shard.reap_ms"] = median(t.reap_ms);
    v["shard.respawn_ms"] = median(t.respawn_ms);
    v["shard.catchup_ms"] = median(t.catchup_ms);
    v["shard.recovery_ms"] = median(t.recovery_ms);
    v["shard.ingress_drops"] = static_cast<double>(t.ingress_drops);
    v["shard.pool_exhausted"] = static_cast<double>(t.pool_exhausted);
    v["shard.recoveries"] = static_cast<double>(t.respawn_recoveries);
    v["shard.deltas_applied"] = static_cast<double>(t.deltas_applied);
    v["trace.spans"] = static_cast<double>(log->spans().size());

    const std::vector<Nanos> self = log->self_times();
    std::vector<double> batch_self;
    for (usize i = 0; i < self.size(); ++i) {
      if (std::string_view(log->spans()[i].name) == "batch") {
        batch_self.push_back(to_us(self[i]));
      }
    }
    r.note("batch_self_time_p50_us (outside wrapped calls)",
           median(batch_self), "us");
    write_trace(r, options, *log, {"producer", "recovery"});
  }
  return r;
}

}  // namespace perfbench
