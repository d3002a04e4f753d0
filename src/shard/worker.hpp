// ShardWorker — one shard's recoverable trading state machine
// (DESIGN.md §14.2).
//
// The worker owns a lob::BitmapBook and a lob::RiskEngine and applies
// batches of kFlow ShardMessages to them under the write-ahead
// discipline:
//
//   peek n → seq filter → journal append_deltas (one write) → apply in
//   order → commit n → release n → publish
//
// plus a periodic full snapshot (book image + risk POD) so replay cost
// stays bounded.  A snapshot is only ever taken at a batch boundary: one
// taken mid-batch would sit in the journal AFTER deltas it does not
// contain, and recovery (which replays only what follows the latest
// snapshot) would lose them.  Exactly-once across crashes comes from the
// per-shard monotonic message seq: apply_batch() skips any message whose
// seq is not greater than applied_seq(), so ring entries that were
// journaled before the crash (but not yet popped) are recognized and
// dropped on replay.
//
// Everything the message stream decides is a pure function of book
// content — cancel/replace victims come from BitmapBook::front_order(),
// fills update the risk engine from the taker's perspective, the mark
// follows the post-event mid.  Two workers fed the same seq-stream are
// therefore bit-identical (same digest, same position), whether one of
// them was SIGKILLed and recovered in between or not.  That equivalence
// is exactly what tests/shard/test_process_runtime.cpp asserts.
//
// Fork discipline: create() (which allocates the book, scratch buffers,
// and opens the journal) runs in the supervising PARENT before fork; the
// child only ever calls recover()/apply_batch()/snapshot_now()/
// publish(), which are allocation-free (tests/hotpath audits them).
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "lob/book.hpp"
#include "lob/risk.hpp"
#include "shard/journal.hpp"
#include "shard/message.hpp"
#include "shard/transport.hpp"

namespace rtseed::shard {

struct WorkerConfig {
  lob::BookConfig book;
  lob::RiskConfig risk;
  /// Journal file path; empty = unjournaled (an in-process reference
  /// worker, or a deployment that accepts state loss on crash).
  std::string journal_path;
  StateJournal::Options journal;
  /// Deltas between full snapshots (bounds replay length).
  u64 snapshot_every = 1024;
};

class ShardWorker {
 public:
  /// Allocates the book/risk/journal.  Parent-side, before fork.
  static common::Expected<std::unique_ptr<ShardWorker>> create(
      const WorkerConfig& config);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Replays the journal into the book/risk (latest snapshot + deltas
  /// after it).  Call once, before the first apply_batch().
  /// Allocation-free.
  common::Expected<StateJournal::RecoverResult> recover();

  /// Applies a batch under the write-ahead discipline: drops duplicates
  /// (seq <= the last applied seq — the exactly-once skip) and non-flow
  /// kinds, journals every remaining delta with one append, applies them
  /// in order, and takes a due snapshot at the batch's end.  Batches
  /// longer than kMaxBatch are served as consecutive batches.  Returns
  /// how many messages advanced state.
  usize apply_batch(const ShardMessage* const* msgs, usize n);

  /// One-element apply_batch: true when `msg` advanced state.
  bool apply(const ShardMessage& msg) {
    const ShardMessage* one = &msg;
    return apply_batch(&one, 1) == 1;
  }

  /// Publishes progress words for the parent-side supervisor: applied
  /// seq, deltas, position — and, when `with_digest`, the book digest
  /// (O(book size): only on request/exit, never per message).
  void publish(ShardControl* control, bool with_digest) const;

  u64 applied_seq() const { return applied_seq_; }
  u64 deltas_applied() const { return deltas_applied_; }
  u64 book_digest() const { return book_->digest(); }
  lob::Qty position() const { return risk_.position(); }
  const lob::BitmapBook& book() const { return *book_; }
  const lob::RiskEngine& risk() const { return risk_; }
  StateJournal* journal() { return journaled_ ? &journal_ : nullptr; }

  /// Forces a snapshot record now (clean-shutdown path).  Call between
  /// batches only.
  common::Status snapshot_now();

 private:
  explicit ShardWorker(const WorkerConfig& config);

  usize apply_chunk(const ShardMessage* const* msgs, usize n);

  void apply_flow(const ShardMessage& msg);

  WorkerConfig config_;
  std::unique_ptr<lob::BitmapBook> book_;
  lob::RiskEngine risk_;
  StateJournal journal_;
  bool journaled_ = false;
  u64 applied_seq_ = 0;
  u64 deltas_applied_ = 0;
  u64 deltas_since_snapshot_ = 0;
  std::unique_ptr<unsigned char[]> snapshot_buf_;
  usize snapshot_buf_bytes_ = 0;
};

}  // namespace rtseed::shard
