// Micro-benchmark of shard-process failover: what a SIGKILL'd shard
// COSTS, end to end, so DESIGN.md §14's "crash isolation is bounded
// recovery, not bounded hope" claim is a measured number.
//
//   [steady]   post->apply round-trip while healthy (events/s sustained).
//   [detect]   SIGKILL -> waitpid reap (zombie latency seen by the
//              supervisor's scan).
//   [respawn]  re-fork + journal replay (snapshot + deltas) + the child
//              reporting kRunning.
//   [catchup]  draining the ingress backlog that buffered while dead.
//   [window]   the whole outage as recorded by the FailoverWindow (the
//              span obs::attribute_jobs joins miss causes against).
//   [digest]   recovered book digest and position versus a never-killed
//              in-process mirror fed the identical accepted stream —
//              equality is the correctness gate, pinned in CI.
//
// Flags: --json out.json   machine-readable results (CI archives this as
//                          BENCH_failover.json)
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "host_info.hpp"
#include "lob/flow.hpp"
#include "shard/process_runtime.hpp"
#include "shard/worker.hpp"

namespace {

using rtseed::common::millis;
using rtseed::common::monotonic_now;
using rtseed::common::Nanos;
using rtseed::common::seconds;
using rtseed::common::u32;
using rtseed::common::u64;
namespace bench = rtseed::bench;
namespace shard = rtseed::shard;
namespace lob = rtseed::lob;

constexpr u32 kSymbols = 16;
constexpr int kPreKill = 20000;   // applied before the crash
constexpr int kWhileDead = 500;   // buffered in the ring during the outage
constexpr int kPostRespawn = 2000;

double to_ms(Nanos d) { return static_cast<double>(d) / 1e6; }

shard::WorkerConfig bench_worker() {
  shard::WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 1 << 10;
  config.book.max_orders = 1 << 12;
  config.risk.max_order_qty = 0;
  config.snapshot_every = 4096;
  return config;
}

struct Results {
  double steady_kevents_s = 0;
  double detect_ms = 0;
  double respawn_ms = 0;
  double catchup_ms = 0;
  double window_ms = 0;
  bool digest_match = false;
  bool position_match = false;
  u64 recoveries = 0;
};

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

  char templ[] = "/tmp/rtseed_failover_bench_XXXXXX";
  if (mkdtemp(templ) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir = templ;

  shard::ProcessRuntimeOptions options;
  options.num_shards = 1;
  options.worker = bench_worker();
  options.journal_dir = dir;
  options.drain_slice = rtseed::common::micros(200);
  options.start_supervisor = false;
  auto runtime = shard::ProcessShardRuntime::create(options);
  if (!runtime.has_value()) {
    std::fprintf(stderr, "create: %s\n", runtime.status().to_string().c_str());
    return 1;
  }
  auto& rt = **runtime;
  if (auto st = rt.start(); !st.is_ok()) {
    std::fprintf(stderr, "start: %s\n", st.to_string().c_str());
    return 1;
  }

  // Never-killed reference, fed exactly the accepted stream with the
  // runtime's own seq numbering.
  auto mirror = shard::ShardWorker::create(bench_worker());
  if (!mirror.has_value()) return 1;
  u64 mirror_seq = 0;
  lob::FlowGenerator gen(4242, options.worker.book);
  u32 symbol = 0;
  const auto pump = [&](int count) {
    long accepted = 0;
    for (int i = 0; i < count; ++i) {
      const lob::FlowEvent ev = gen.next();
      if (rt.post_flow(symbol, ev)) {
        shard::ShardMessage msg{};
        msg.kind = shard::MessageKind::kFlow;
        msg.symbol = symbol;
        msg.seq = ++mirror_seq;
        msg.body.flow.price_ticks = ev.price;
        msg.body.flow.qty = ev.qty;
        msg.body.flow.flow_kind = static_cast<u32>(ev.kind);
        msg.body.flow.side = static_cast<u32>(ev.side);
        msg.body.flow.pick = ev.pick;
        (*mirror)->apply(msg);
        ++accepted;
      }
      symbol = (symbol + 1) % kSymbols;
    }
    return accepted;
  };

  Results r;
  std::printf("=== micro_failover: cost of a shard-process crash ===\n\n");

  // [steady]
  {
    const Nanos start = monotonic_now();
    pump(kPreKill);
    if (!rt.quiesce(0, seconds(30))) {
      std::fprintf(stderr, "steady-state quiesce timed out\n");
      return 1;
    }
    const Nanos elapsed = monotonic_now() - start;
    r.steady_kevents_s =
        static_cast<double>(kPreKill) / (static_cast<double>(elapsed) / 1e9) /
        1e3;
    std::printf("[steady]   healthy apply throughput:   %9.1f kevents/s\n",
                r.steady_kevents_s);
  }

  // [detect] SIGKILL -> reap.
  {
    const Nanos kill_at = monotonic_now();
    if (!rt.signal_process(0, SIGKILL)) return 1;
    while (!rt.reap_process(0)) {
      if (monotonic_now() - kill_at > seconds(10)) {
        std::fprintf(stderr, "reap timed out\n");
        return 1;
      }
      ::usleep(100);
    }
    r.detect_ms = to_ms(monotonic_now() - kill_at);
    std::printf("[detect]   SIGKILL -> reaped:           %9.3f ms\n",
                r.detect_ms);
  }

  // The outage backlog: accepted posts buffer in the shm ring.
  pump(kWhileDead);

  // [respawn] fork + journal replay + kRunning.
  {
    const Nanos start = monotonic_now();
    if (!rt.respawn_process(0)) {
      std::fprintf(stderr, "respawn failed\n");
      return 1;
    }
    r.respawn_ms = to_ms(monotonic_now() - start);
    std::printf("[respawn]  fork + replay + running:     %9.3f ms\n",
                r.respawn_ms);
  }

  // [catchup] drain the backlog the outage left behind.
  {
    const Nanos start = monotonic_now();
    if (!rt.quiesce(0, seconds(30))) {
      std::fprintf(stderr, "catch-up quiesce timed out\n");
      return 1;
    }
    r.catchup_ms = to_ms(monotonic_now() - start);
    std::printf("[catchup]  backlog drained:             %9.3f ms\n",
                r.catchup_ms);
  }

  const auto windows = rt.failover_windows();
  if (windows.size() == 1 && windows[0].end > windows[0].begin) {
    r.window_ms = to_ms(windows[0].end - windows[0].begin);
  }
  std::printf("[window]   recorded failover window:    %9.3f ms\n",
              r.window_ms);

  // [digest] the bit-identity gate, after more post-recovery traffic.
  pump(kPostRespawn);
  if (!rt.quiesce(0, seconds(30))) return 1;
  auto digest = rt.request_digest(0, seconds(10));
  if (!digest.has_value()) {
    std::fprintf(stderr, "digest: %s\n", digest.status().to_string().c_str());
    return 1;
  }
  r.digest_match = *digest == (*mirror)->book_digest();
  r.position_match =
      rt.control(0)->position.load() == (*mirror)->position();
  r.recoveries = rt.control(0)->recoveries.load();
  std::printf("[digest]   recovered == reference:      %9s\n",
              r.digest_match ? "yes" : "NO");
  std::printf("[position] recovered == reference:      %9s\n",
              r.position_match ? "yes" : "NO");
  rt.stop();

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_failover\",\n"
                 "  \"host\": {%s},\n"
                 "  \"steady_kevents_s\": %.1f,\n"
                 "  \"detect_ms\": %.3f,\n"
                 "  \"respawn_ms\": %.3f,\n"
                 "  \"catchup_ms\": %.3f,\n"
                 "  \"window_ms\": %.3f,\n"
                 "  \"recoveries\": %llu,\n"
                 "  \"recovered_digest_matches\": %s,\n"
                 "  \"recovered_position_matches\": %s\n"
                 "}\n",
                 bench::host_fields().c_str(), r.steady_kevents_s, r.detect_ms, r.respawn_ms, r.catchup_ms,
                 r.window_ms, static_cast<unsigned long long>(r.recoveries),
                 r.digest_match ? "true" : "false",
                 r.position_match ? "true" : "false");
    std::fclose(f);
    std::printf("\n[json] results -> %s\n", json_path.c_str());
  }

  for (int s = 0; s < options.num_shards; ++s) {
    ::unlink((dir + "/shard-" + std::to_string(s) + ".journal").c_str());
  }
  ::rmdir(dir.c_str());
  return (r.digest_match && r.position_match) ? 0 : 1;
}
