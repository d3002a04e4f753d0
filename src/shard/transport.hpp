// Zero-allocation cross-shard transport: one ShmMessagePool of
// ShardMessage cells + per-shard SPSC index rings, ALL resident in a
// single memfd-backed ShmSegment (DESIGN.md §12, §14).
//
// Data flow for a tick:
//   router:  acquire() a cell from the pool, fill it, post(shard, msg)
//            — pushes the cell's u32 index into that shard's INGRESS ring;
//   shard:   poll(shard) pops the index, reads the message in place,
//            release()s the cell back to the pool.
// Results flow the other way through the per-shard EGRESS rings with
// post_result()/poll_result().
//
// Steady state touches exactly three lock-free structures (pool free
// list, one ring, pool free list again) and never the heap; the segment,
// rings, and pool are all laid out at construction.  A full ring or an
// exhausted pool DROPS the message and counts it — real-time producers
// never block on a slow consumer.
//
// Segment layout (everything mutable lives in shared pages, so forked
// shard PROCESSES see one coherent transport — the crash-isolation
// substrate of shard::ProcessShardRuntime):
//
//   [common::SegmentHeader]   magic/layout/size/epoch + torn-write marker
//   [ShardControl × S]        per-shard heartbeat & progress words
//   [drop-counter line]       ingress/egress drop totals
//   [ShmMessagePool region]   header + message cells
//   [ingress ring 0][egress ring 0][ingress ring 1][egress ring 1]...
//
// Consumers that want to SLEEP between messages (worker processes, not
// the in-process polling runtimes) use the ring doorbells through
// wait_ingress()/drain(): cross-process futex waits with EINTR retry and
// a bounded absolute deadline — a stray signal (the supervisor's SIGTERM
// probe, a profiler) can never silently abort a drain loop.
#pragma once

#include <memory>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/shm.hpp"
#include "common/shm_pool.hpp"
#include "common/shm_ring.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "shard/message.hpp"

namespace rtseed::obs {
class MetricsRegistry;
class Counter;
}  // namespace rtseed::obs

namespace rtseed::shard {

using common::Nanos;
using common::usize;

/// Lifecycle of a shard worker, published through its ShardControl word.
enum class ShardState : common::u32 {
  kDown = 0,       ///< never started, or reaped
  kStarting = 1,   ///< forked, not yet serving
  kRecovering = 2, ///< replaying its journal
  kRunning = 3,    ///< serving ingress
  kDraining = 4,   ///< SIGTERM received, finishing in-flight work
  kExited = 5,     ///< clean shutdown (final snapshot written)
};

const char* shard_state_name(ShardState state);

/// One cache line of per-shard progress words in the shared segment —
/// the heartbeat protocol between a worker process and the parent-side
/// ShardSupervisor.  The worker stores with release; the parent loads
/// with acquire; nobody blocks on these.
struct alignas(common::kCacheLine) ShardControl {
  std::atomic<common::u64> heartbeat{0};    ///< bumps every worker loop
  std::atomic<common::u64> applied_seq{0};  ///< last journaled+applied seq
  std::atomic<common::u32> state{0};        ///< ShardState
  std::atomic<common::u32> pid{0};          ///< worker pid (parent-written)
  std::atomic<common::u64> book_digest{0};  ///< last published book digest
  std::atomic<common::i64> position{0};     ///< risk position, lots
  std::atomic<common::u64> deltas_applied{0};
  std::atomic<common::u64> recoveries{0};   ///< journal replays performed
  /// Digest handshake: the parent bumps request; the worker computes the
  /// digest (O(book) — so on demand, not per message), publishes it, and
  /// echoes the request into ack.
  std::atomic<common::u32> digest_request{0};
  std::atomic<common::u32> digest_ack{0};
};
static_assert(sizeof(ShardControl) == common::kCacheLine,
              "one line per shard: heartbeat polling never falsely shares");

struct TransportOptions {
  usize pool_capacity = 4096;  ///< in-flight message cells, all shards
  usize ring_capacity = 1024;  ///< slots per direction per shard (pow2)
  /// Ring the consumer doorbell on post() so sleeping worker processes
  /// wake without polling.  Off for in-process deployments: the polling
  /// fast path then never pays the notify fence.
  bool doorbell = false;
  /// Instance id stamped into the segment header; a reattach with a
  /// different epoch is rejected (stale-fd protection).
  common::u64 epoch = 1;
};

class ShardTransport {
 public:
  /// Layout schema stamped into the segment header; bump when the
  /// on-segment layout changes incompatibly.
  static constexpr common::u64 kLayoutVersion = 2;

  /// Creates the segment and formats every structure in it.
  static common::Expected<std::unique_ptr<ShardTransport>> create(
      int num_shards, const TransportOptions& options = {});

  /// Maps an existing transport segment by fd and validates the header:
  /// magic, layout version, size, epoch, and the torn-write marker all
  /// have to agree or the attach fails (satellite: reattach hygiene).
  /// `options` must match what the creator used — layout is a pure
  /// function of (num_shards, pool_capacity, ring_capacity).
  static common::Expected<std::unique_ptr<ShardTransport>> attach(
      int fd, int num_shards, const TransportOptions& options = {});

  /// Bytes one index ring of `capacity` slots needs (exposed for tests).
  static usize required_ring_bytes(usize capacity);
  /// Total segment bytes for a (num_shards, options) layout.
  static usize required_segment_bytes(int num_shards,
                                      const TransportOptions& options);

  int num_shards() const { return num_shards_; }
  /// The segment's memfd (pass to another process / keep for reattach
  /// tests); -1 under the anonymous-mapping fallback.
  int segment_fd() const { return segment_.fd(); }
  common::u64 epoch() const { return options_.epoch; }
  common::SegmentHeader* segment_header() { return header_; }

  ShardControl* control(int shard) {
    return &controls_[static_cast<usize>(shard)];
  }
  const ShardControl* control(int shard) const {
    return &controls_[static_cast<usize>(shard)];
  }

  /// Pool cell for the producer to fill; nullptr (and a count) when the
  /// pool is exhausted.  Lock-free.
  ShardMessage* acquire() { return pool_.acquire(); }

  /// Returns a cell without sending it (e.g. routing failed).
  void release(ShardMessage* msg) { pool_.release(msg); }

  /// Queues `msg` on `shard`'s ingress ring.  On a full ring the cell is
  /// released and the drop counted; false is returned.  The caller gives
  /// up ownership either way.  Wait-free.
  bool post(int shard, ShardMessage* msg) {
    return send(ingress_[static_cast<usize>(shard)], msg, ingress_drops_);
  }

  /// Pops the next ingress message for `shard`; nullptr when empty.  The
  /// consumer reads in place, then release()s.  Wait-free.
  ShardMessage* poll(int shard) {
    return receive(ingress_[static_cast<usize>(shard)]);
  }

  /// Write-ahead batch consumer: peek_ingress_n() exposes up to `max`
  /// (capped at kMaxBatch) front ingress messages, oldest first, WITHOUT
  /// consuming them; commit_ingress_n() consumes them, and release_n()
  /// then returns their cells.  A worker that journals between peek and
  /// commit can crash at any instruction without losing a message
  /// (DESIGN.md §14.3).
  usize peek_ingress_n(int shard, ShardMessage** out, usize max) {
    common::u32 indices[kMaxBatch];
    const usize n = ingress_[static_cast<usize>(shard)].try_peek_n(
        indices, max < kMaxBatch ? max : kMaxBatch);
    for (usize i = 0; i < n; ++i) out[i] = pool_.at(indices[i]);
    return n;
  }
  void commit_ingress_n(int shard, usize n) {
    ingress_[static_cast<usize>(shard)].commit_pop_n(n);
  }
  /// Returns `n` cells with one pool CAS.
  void release_n(ShardMessage* const* msgs, usize n) {
    pool_.release_n(msgs, n);
  }

  /// Blocks (doorbell futex, EINTR-retried) until `shard`'s ingress ring
  /// is non-empty or the absolute CLOCK_MONOTONIC deadline passes.
  /// Returns true when a message is available.
  bool wait_ingress(int shard, Nanos abs_deadline);

  /// Bounded-timeout drain: pops up to `max_messages` ingress messages,
  /// invoking `fn` on each and releasing the cell afterwards, parking on
  /// the doorbell while empty.  Returns the number drained.  Safe
  /// against signals: interrupted waits re-check and re-enter.
  usize drain(int shard, common::FunctionRef<void(ShardMessage&)> fn,
              usize max_messages, Nanos abs_deadline);

  /// Same pair on the egress (shard -> supervisor) direction.
  bool post_result(int shard, ShardMessage* msg) {
    return send(egress_[static_cast<usize>(shard)], msg, egress_drops_);
  }
  ShardMessage* poll_result(int shard) {
    return receive(egress_[static_cast<usize>(shard)]);
  }

  usize ingress_size_approx(int shard) const {
    return ingress_[static_cast<usize>(shard)].size_approx();
  }

  // Back-pressure counters (drop, never block).  They live in the shared
  // segment: a child's drops are visible to the parent's report.
  common::u64 ingress_drops() const {
    return ingress_drops_->load(std::memory_order_relaxed);
  }
  common::u64 egress_drops() const {
    return egress_drops_->load(std::memory_order_relaxed);
  }
  common::u64 pool_exhausted() const { return pool_.exhausted(); }
  usize in_flight_approx() const { return pool_.in_use_approx(); }

  /// Registers the transport's back-pressure counters with `registry`
  /// (setup path; satellite: drops were only visible in per-shard stats
  /// structs).  Call sync_metrics() to mirror current values — e.g. once
  /// per report or scrape.
  void register_metrics(obs::MetricsRegistry* registry);
  void sync_metrics();

 private:
  using IndexRing = common::ShmSpscRing<common::u32>;

  ShardTransport(int num_shards, const TransportOptions& options);

  /// Wires header/control/pool/ring views over `segment` (create or
  /// attach path; `format` decides which).
  common::Status map_layout(common::ShmSegment segment, bool format);

  bool send(IndexRing& ring, ShardMessage* msg,
            std::atomic<common::u64>* drops) {
    if (!ring.try_push(pool_.index_of(msg))) {
      pool_.release(msg);
      drops->fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (options_.doorbell && ring.notify_hint()) wake_ring(ring);
    return true;
  }

  ShardMessage* receive(IndexRing& ring) {
    common::u32 index;
    if (!ring.try_pop(&index)) return nullptr;
    return pool_.at(index);
  }

  static void wake_ring(IndexRing& ring);

  const int num_shards_;
  const TransportOptions options_;
  common::ShmSegment segment_;
  common::SegmentHeader* header_ = nullptr;
  ShardControl* controls_ = nullptr;
  std::atomic<common::u64>* ingress_drops_ = nullptr;
  std::atomic<common::u64>* egress_drops_ = nullptr;
  common::ShmMessagePool<ShardMessage> pool_;
  std::vector<IndexRing> ingress_;  ///< one per shard, router -> shard
  std::vector<IndexRing> egress_;   ///< one per shard, shard -> out

  obs::Counter* ingress_drops_metric_ = nullptr;
  obs::Counter* egress_drops_metric_ = nullptr;
  obs::Counter* pool_exhausted_metric_ = nullptr;
};

}  // namespace rtseed::shard
