// Per-shard write-ahead state journal — the durability half of crash
// recovery (DESIGN.md §14.3).
//
// A journaled shard worker persists two record kinds to an append-only
// file:
//
//   kDelta     one ShardMessage, written BEFORE the message is applied
//              to the book (write-ahead: peek ring → append → apply →
//              commit ring).  A worker journals a whole drained batch of
//              deltas with one write(2) (append_deltas): the frames are
//              byte-identical to one-at-a-time appends, so a torn batch
//              is just a torn tail that recovers to a record prefix;
//   kSnapshot  a full (BitmapBook image + RiskEngine::Snapshot) pair,
//              written every snapshot_every deltas so replay cost stays
//              bounded.
//
// Every record carries an FNV-1a digest over its header fields and
// payload.  Recovery maps the file read-only, walks the frames in place,
// restores the LATEST digest-valid
// snapshot, replays the digest-valid deltas after it in order, and
// truncates whatever torn/truncated tail a mid-write crash left — a
// partial record is EXPECTED after SIGKILL, never an error.  Combined
// with the per-message seq (replayed messages with seq <= applied are
// skipped at the transport), recovery is exactly-once: the rebuilt book
// digest equals a never-crashed reference bit for bit.
//
// Process-crash durability only: records go through write(2) into the
// page cache, which survives the worker dying by any signal.  Machine-
// crash durability would need fdatasync per append (Options::sync_each_
// append) and is off by default — the supervisor, not the disk, is the
// failure domain here.
//
// Fork discipline: open() and the batch framing buffer allocation happen
// in the PARENT before fork; the child inherits the fd, frames into the
// preallocated buffer, appends with raw write(2) calls, and recovers
// through mmap(2) — no malloc after fork (the parent's other threads may
// hold the heap lock at fork time).
#pragma once

#include <memory>
#include <string>

#include "common/inplace_function.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "lob/risk.hpp"
#include "shard/message.hpp"

namespace rtseed::shard {

using common::usize;

class StateJournal {
 public:
  struct Options {
    /// Upper bound on one snapshot's book-image bytes; recovery stops
    /// trusting the file at a frame claiming a larger payload.
    usize max_book_image_bytes = 1 << 20;
    /// fdatasync after every append (machine-crash durability; slow).
    bool sync_each_append = false;
  };

  /// What recover() found and did.
  struct RecoverResult {
    u64 snapshot_seq = 0;    ///< seq of the restored snapshot (0 = none)
    u64 deltas_replayed = 0; ///< valid deltas delivered after the snapshot
    u64 last_seq = 0;        ///< highest seq made durable before the crash
    bool tail_truncated = false;  ///< a torn/partial tail record was cut
  };

  /// Restores state during recover(): the latest valid snapshot record.
  using SnapshotSink = common::FunctionRef<common::Status(
      u64 seq, const void* book_image, usize book_bytes,
      const lob::RiskEngine::Snapshot& risk)>;
  /// Applies one journaled delta during recover().
  using DeltaSink = common::FunctionRef<void(const ShardMessage& msg)>;

  StateJournal() = default;
  ~StateJournal();
  StateJournal(StateJournal&& other) noexcept { *this = std::move(other); }
  StateJournal& operator=(StateJournal&& other) noexcept;
  StateJournal(const StateJournal&) = delete;
  StateJournal& operator=(const StateJournal&) = delete;

  /// Opens (creating if absent) the journal at `path`.  Never truncates
  /// existing content — recover() decides what is valid.
  static common::Expected<StateJournal> open(const std::string& path,
                                             const Options& options);
  static common::Expected<StateJournal> open(const std::string& path) {
    return open(path, Options{});
  }

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Maps the whole file read-only, delivers the latest digest-valid
  /// snapshot to `on_snapshot` (if any) straight from the mapping, then
  /// every digest-valid delta after it (in write order) to `on_delta`;
  /// finally unmaps, truncates any torn tail, and positions the journal
  /// for appending.  Call once, before appending.
  common::Expected<RecoverResult> recover(SnapshotSink on_snapshot,
                                          DeltaSink on_delta);

  /// Appends `n` (<= kMaxBatch) write-ahead deltas, each framed under
  /// its own msg->seq, with one write(2).  Allocation-free.
  common::Status append_deltas(const ShardMessage* const* msgs, usize n);

  /// One-element append_deltas; `seq` must equal msg.seq.
  common::Status append_delta(u64 seq, const ShardMessage& msg);

  /// Appends a full state snapshot.  `book_image` must be at most
  /// Options::max_book_image_bytes.
  common::Status append_snapshot(u64 seq, const void* book_image,
                                 usize book_bytes,
                                 const lob::RiskEngine::Snapshot& risk);

  /// Chaos counter: appends that the kJournalTruncate injection point
  /// turned into torn half-writes (the journal poisons itself after one
  /// — a real crashed writer never writes again either).
  u64 torn_appends() const { return torn_appends_; }
  u64 appended_bytes() const { return static_cast<u64>(write_offset_); }

 private:
  std::string path_;
  Options options_;
  int fd_ = -1;
  usize write_offset_ = 0;
  std::unique_ptr<unsigned char[]> batch_buf_;  ///< kMaxBatch delta frames
  bool poisoned_ = false;  ///< a torn append happened; writes stop
  u64 torn_appends_ = 0;
};

}  // namespace rtseed::shard
