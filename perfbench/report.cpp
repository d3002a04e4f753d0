#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "lob/oms.hpp"

namespace perfbench {

// Each end-to-end metric has one reading per workload:
//
//   metric            oms_period            shard_journal
//   latency_p50_us    job release→done      batch post→applied
//   cpu_us_per_op     CPU µs per job        CPU µs per event
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", "lower",
     "construct -> admit/analyze -> start (fork included), median of repeats"},
    {"latency_p50_us", "us", "lower",
     "median job response (OMS) or batch apply latency (shards)"},
    {"cpu_us_per_op", "us", "lower",
     "process user+sys CPU, shard children included, per job or flow event"},
};

const std::vector<MetricSpec> kPerLayer = {
    // core — the P-RMWP runtime (oms_period only; 0 elsewhere).
    {"core.release_lag_us", "us", "lower",
     "latency_p50_us on oms_period; no change on shard_journal"},
    {"core.dispatch_us", "us", "lower",
     "latency_p50_us on oms_period; no change on shard_journal"},
    {"core.fanout_gap_us", "us", "lower",
     "latency_p50_us on oms_period; no change on shard_journal"},
    {"core.collect_us", "us", "lower",
     "latency_p50_us on oms_period; no change on shard_journal"},
    {"core.response_p99_us", "us", "lower",
     "tail.latency_p99_us on oms_period"},
    {"core.voluntary_switches_per_job", "count", "lower",
     "cpu_us_per_op on oms_period"},
    {"core.involuntary_switches_per_job", "count", "lower",
     "tail.latency_p99_us on oms_period"},
    {"core.optional_completed", "count", "higher",
     "trading.qos_refinement on oms_period"},
    {"core.optional_terminated", "count", "lower",
     "trading.qos_refinement on oms_period"},
    {"core.optional_discarded", "count", "lower",
     "trading.qos_refinement on oms_period"},
    {"core.deadline_misses", "count", "lower",
     "tail.latency_p99_us on oms_period (host stalls)"},
    {"core.skipped_releases", "count", "lower",
     "tail.latency_p99_us on oms_period (host stalls)"},
    {"core.rt_degraded", "bool", "lower",
     "every oms_period metric (best-effort threads)"},
    // sched — offline analysis.
    {"sched.analyze_ms", "ms", "lower", "setup_s on oms_period"},
    // trading — OmsTask's three parts.
    {"trading.mandatory_us", "us", "lower",
     "~10% of latency_p50_us on oms_period"},
    {"trading.optional_us", "us", "lower",
     "core.fanout_gap_us, latency_p50_us on oms_period"},
    {"trading.windup_us", "us", "lower", "latency_p50_us on oms_period"},
    {"trading.orders_via_transport", "count", "higher",
     "gateway hop load on oms_period"},
    {"trading.exec_reports", "count", "higher", "one per job (checked)"},
    {"trading.orders_rejected", "count", "lower", "risk/book vetoes"},
    {"trading.band_iterations", "count", "higher",
     "trading.qos_refinement"},
    {"trading.qos_refinement", "ratio", "higher",
     "band levels delivered / (jobs x bands x band_levels), oms_period"},
    // lob — the order book under OrderManager.
    {"lob.apply_flow_ns", "ns", "lower",
     "trading.mandatory_us on oms_period; shard apply on shard_journal"},
    {"lob.trades", "count", "higher", "book work done"},
    {"lob.open_orders", "count", "lower", "book state size"},
    {"lob.risk_rejects", "count", "lower", "risk engine vetoes"},
    // shard — transport, journal, process recovery (shard_journal).
    {"shard.post_ns", "ns", "lower",
     "latency_p50_us on shard_journal"},
    {"shard.journal_bytes_per_event", "B", "lower",
     "cpu_us_per_op, shard.recovery_ms on shard_journal"},
    {"shard.reap_ms", "ms", "lower", "shard.recovery_ms"},
    {"shard.respawn_ms", "ms", "lower", "shard.recovery_ms"},
    {"shard.catchup_ms", "ms", "lower", "shard.recovery_ms"},
    {"shard.recovery_ms", "ms", "lower",
     "respawn call -> outage backlog applied, median over kills"},
    {"shard.ingress_drops", "count", "lower", "failed"},
    {"shard.pool_exhausted", "count", "lower", "failed"},
    {"shard.recoveries", "count", "higher", "equals the kill count (checked)"},
    {"shard.deltas_applied", "count", "higher", "work done on shard_journal"},
    // The workload's latency tail, from the untraced half: no bound, a
    // shared host's tail spreads too widely run to run to gate on.
    {"tail.latency_p99_us", "us", "lower",
     "p99 of latency_p50_us's samples; moved by core.* and shard.* tails"},
    // The traced run itself.
    {"trace.overhead_us", "us", "lower",
     "traced - untraced latency_p50_us in the same run"},
    {"trace.spans", "count", "higher", "spans recorded"},
};

void Result::note(const std::string& name, double value, const char* unit) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.6g %s", value, unit);
  notes.emplace_back(name, text);
}

double replay_apply_flow_ns(u64 seed, const rtseed::lob::BookConfig& book,
                            const rtseed::lob::FlowConfig& flow, u64 events) {
  constexpr u64 kMaxEvents = u64{1} << 19;
  const usize n = static_cast<usize>(std::clamp<u64>(events, 1, kMaxEvents));
  rtseed::lob::FlowGenerator gen(seed, book, flow);
  std::vector<rtseed::lob::FlowEvent> stream(n);
  for (auto& ev : stream) ev = gen.next();
  rtseed::lob::OmsConfig config;
  config.book = book;
  rtseed::lob::OrderManager oms(config);
  const Nanos start = rtseed::common::monotonic_now();
  for (const auto& ev : stream) oms.apply_flow(ev, nullptr);
  return static_cast<double>(rtseed::common::monotonic_now() - start) /
         static_cast<double>(n);
}

CpuUsage cpu_usage() {
  const auto cpu = [](const rusage& r) {
    return static_cast<Nanos>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) *
               1'000'000'000 +
           static_cast<Nanos>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1'000;
  };
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return CpuUsage{cpu(self), cpu(children), self.ru_nvcsw, self.ru_nivcsw};
}

Nanos thread_cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

bool sched_fifo_denied() {
  bool denied = true;
  std::thread probe([&denied] {
    sched_param param{};
    param.sched_priority = 1;
    denied = ::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) != 0;
  });
  probe.join();
  return denied;
}

}  // namespace

Host probe_host(const std::string& workdir) {
  Host host;
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  host.cpu_model = cpu_model();
  utsname uts{};
  if (::uname(&uts) == 0) host.kernel = uts.release;
  host.rt_degraded = sched_fifo_denied();
  host.journal_fs = fs_type(workdir);
  return host;
}

}  // namespace perfbench
