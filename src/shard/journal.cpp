#include "shard/journal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "fault/injector.hpp"

namespace rtseed::shard {

namespace {

constexpr u32 kRecordMagic = 0x524A4E4Cu;  // "RJNL"
constexpr u32 kKindDelta = 1;
constexpr u32 kKindSnapshot = 2;

/// 32-byte frame ahead of every payload.  The digest covers kind, seq,
/// payload size, and the payload bytes — a record is either completely
/// valid or completely ignored.
struct RecordHeader {
  u32 magic = 0;
  u32 kind = 0;
  u64 seq = 0;
  u32 payload_bytes = 0;
  u32 pad = 0;
  u64 digest = 0;
};
static_assert(sizeof(RecordHeader) == 32, "stable on-disk frame");

/// Snapshot payload = this prefix + the raw book image.
struct SnapshotPrefix {
  lob::RiskEngine::Snapshot risk;
  u64 book_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<SnapshotPrefix>);

u64 fnv1a_init() { return 0xCBF29CE484222325ULL; }
u64 fnv1a(u64 h, const void* data, usize bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (usize i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

u64 record_digest(const RecordHeader& header, const void* payload_a,
                  usize bytes_a, const void* payload_b, usize bytes_b) {
  u64 h = fnv1a_init();
  h = fnv1a(h, &header.kind, sizeof(header.kind));
  h = fnv1a(h, &header.seq, sizeof(header.seq));
  h = fnv1a(h, &header.payload_bytes, sizeof(header.payload_bytes));
  if (bytes_a > 0) h = fnv1a(h, payload_a, bytes_a);
  if (bytes_b > 0) h = fnv1a(h, payload_b, bytes_b);
  return h;
}

RecordHeader make_header(u32 kind, u64 seq, const void* payload_a,
                         usize bytes_a, const void* payload_b, usize bytes_b) {
  RecordHeader header;
  header.magic = kRecordMagic;
  header.kind = kind;
  header.seq = seq;
  header.payload_bytes = static_cast<u32>(bytes_a + bytes_b);
  header.digest = record_digest(header, payload_a, bytes_a, payload_b,
                                bytes_b);
  return header;
}

constexpr usize kDeltaFrameBytes = sizeof(RecordHeader) + sizeof(ShardMessage);

/// write(2) with EINTR retry; short writes continue from where they
/// stopped (regular-file writes are short only on ENOSPC-class errors).
bool write_fully(int fd, const void* data, usize bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  usize done = 0;
  while (done < bytes) {
    const ssize_t n = ::write(fd, p + done, bytes - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<usize>(n);
  }
  return true;
}

/// Walks the mapped file image [base, base + bytes): validates every
/// frame, then delivers the latest snapshot and the deltas after it.
/// `valid_end` receives the offset where validity ends.
common::Status scan_image(const unsigned char* base, usize bytes,
                          usize max_payload,
                          StateJournal::SnapshotSink on_snapshot,
                          StateJournal::DeltaSink on_delta,
                          StateJournal::RecoverResult* result,
                          usize* valid_end) {
  // Frames follow arbitrary-length snapshot images, so nothing in the
  // mapping is aligned: headers and messages are copied out, never cast.
  const auto header_at = [base](usize offset) {
    RecordHeader header;
    std::memcpy(&header, base + offset, sizeof(header));
    return header;
  };

  // Pass 1: walk the frames, digest-checking each, remembering the
  // offset of the newest valid snapshot and where validity ends.
  usize offset = 0;
  usize end = 0;
  usize snapshot_offset = 0;
  bool have_snapshot = false;
  while (offset + sizeof(RecordHeader) <= bytes) {
    const RecordHeader header = header_at(offset);
    if (header.magic != kRecordMagic) break;
    if (header.payload_bytes > max_payload) break;
    if (offset + sizeof(header) + header.payload_bytes > bytes) break;
    if (record_digest(header, base + offset + sizeof(header),
                      header.payload_bytes, nullptr, 0) != header.digest) {
      break;
    }
    if (header.kind == kKindSnapshot) {
      snapshot_offset = offset;
      have_snapshot = true;
    } else if (header.kind != kKindDelta) {
      break;  // unknown kind: stop trusting the file here
    }
    result->last_seq = header.seq;
    offset += sizeof(header) + header.payload_bytes;
    end = offset;
  }
  *valid_end = end;
  result->tail_truncated = end < bytes;

  // Pass 2: deliver the snapshot, then every delta after it.
  usize replay_offset = 0;
  if (have_snapshot) {
    const RecordHeader header = header_at(snapshot_offset);
    const unsigned char* payload = base + snapshot_offset + sizeof(header);
    if (header.payload_bytes < sizeof(SnapshotPrefix)) {
      return common::failed_precondition("journal: snapshot frame too small");
    }
    SnapshotPrefix prefix;
    std::memcpy(&prefix, payload, sizeof(prefix));
    if (sizeof(SnapshotPrefix) + prefix.book_bytes != header.payload_bytes) {
      return common::failed_precondition(
          "journal: snapshot prefix disagrees with frame size");
    }
    result->snapshot_seq = header.seq;
    if (auto st = on_snapshot(header.seq, payload + sizeof(SnapshotPrefix),
                              static_cast<usize>(prefix.book_bytes),
                              prefix.risk);
        !st) {
      return st;
    }
    replay_offset = snapshot_offset + sizeof(header) + header.payload_bytes;
  }
  while (replay_offset < end) {
    const RecordHeader header = header_at(replay_offset);
    if (header.kind == kKindDelta) {
      if (header.payload_bytes != sizeof(ShardMessage)) {
        return common::failed_precondition("journal: delta frame size");
      }
      ShardMessage msg;
      std::memcpy(&msg, base + replay_offset + sizeof(header), sizeof(msg));
      on_delta(msg);
      ++result->deltas_replayed;
    }
    replay_offset += sizeof(header) + header.payload_bytes;
  }
  return common::Status::ok();
}

}  // namespace

StateJournal::~StateJournal() {
  if (fd_ >= 0) ::close(fd_);
}

StateJournal& StateJournal::operator=(StateJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    options_ = other.options_;
    fd_ = std::exchange(other.fd_, -1);
    write_offset_ = other.write_offset_;
    batch_buf_ = std::move(other.batch_buf_);
    poisoned_ = other.poisoned_;
    torn_appends_ = other.torn_appends_;
  }
  return *this;
}

common::Expected<StateJournal> StateJournal::open(const std::string& path,
                                                  const Options& options) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return common::internal_error("journal open failed: " +
                                  std::string(std::strerror(errno)));
  }
  StateJournal journal;
  journal.path_ = path;
  journal.options_ = options;
  journal.fd_ = fd;
  journal.batch_buf_ =
      std::make_unique<unsigned char[]>(kMaxBatch * kDeltaFrameBytes);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  journal.write_offset_ = end > 0 ? static_cast<usize>(end) : 0;
  return journal;
}

common::Expected<StateJournal::RecoverResult> StateJournal::recover(
    SnapshotSink on_snapshot, DeltaSink on_delta) {
  if (!valid()) return common::failed_precondition("journal not open");
  RecoverResult result;

  const off_t end_off = ::lseek(fd_, 0, SEEK_END);
  const usize file_bytes = end_off > 0 ? static_cast<usize>(end_off) : 0;
  usize valid_end = 0;
  if (file_bytes > 0) {
    void* map = ::mmap(nullptr, file_bytes, PROT_READ,
                       MAP_PRIVATE | MAP_POPULATE, fd_, 0);
    if (map == MAP_FAILED) {
      return common::internal_error("journal: mmap failed: " +
                                    std::string(std::strerror(errno)));
    }
    const common::Status st = scan_image(
        static_cast<const unsigned char*>(map), file_bytes,
        sizeof(SnapshotPrefix) + options_.max_book_image_bytes, on_snapshot,
        on_delta, &result, &valid_end);
    // Unmap before any truncation: a mapped page past the new EOF would
    // SIGBUS on touch.
    ::munmap(map, file_bytes);
    if (!st) return st;
  }

  // Cut the torn tail so new appends start on a frame boundary.
  if (result.tail_truncated) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      return common::internal_error("journal: tail truncate failed");
    }
  }
  ::lseek(fd_, static_cast<off_t>(valid_end), SEEK_SET);
  write_offset_ = valid_end;
  return result;
}

common::Status StateJournal::append_deltas(const ShardMessage* const* msgs,
                                           usize n) {
  if (!valid()) return common::failed_precondition("journal not open");
  if (poisoned_) return common::internal_error("journal poisoned (torn)");
  if (n > kMaxBatch) {
    return common::invalid_argument("journal: batch exceeds kMaxBatch");
  }
  unsigned char* const buf = batch_buf_.get();
  unsigned char* p = buf;
  for (usize i = 0; i < n; ++i) {
    const ShardMessage& msg = *msgs[i];
    const RecordHeader header =
        make_header(kKindDelta, msg.seq, &msg, sizeof(msg), nullptr, 0);
    std::memcpy(p, &header, sizeof(header));
    p += sizeof(header);

    // Chaos: die mid-batch — the records before this one land whole,
    // this one gets its header and half its payload, and all further
    // writes are refused.  Recovery must treat the result exactly like a
    // SIGKILL that cut the batch's write(2) short.
    if (fault::try_fire(fault::InjectPoint::kJournalTruncate)) {
      poisoned_ = true;
      ++torn_appends_;
      std::memcpy(p, &msg, sizeof(msg) / 2);
      p += sizeof(msg) / 2;
      write_fully(fd_, buf, static_cast<usize>(p - buf));
      return common::internal_error("journal torn by injection");
    }
    std::memcpy(p, &msg, sizeof(msg));
    p += sizeof(msg);
  }
  const usize bytes = static_cast<usize>(p - buf);
  if (!write_fully(fd_, buf, bytes)) {
    return common::internal_error("journal append failed");
  }
  write_offset_ += bytes;
  if (options_.sync_each_append) ::fdatasync(fd_);
  return common::Status::ok();
}

common::Status StateJournal::append_delta(u64 seq, const ShardMessage& msg) {
  assert(seq == msg.seq);
  (void)seq;
  const ShardMessage* one = &msg;
  return append_deltas(&one, 1);
}

common::Status StateJournal::append_snapshot(
    u64 seq, const void* book_image, usize book_bytes,
    const lob::RiskEngine::Snapshot& risk) {
  if (!valid()) return common::failed_precondition("journal not open");
  if (poisoned_) return common::internal_error("journal poisoned (torn)");
  if (book_bytes > options_.max_book_image_bytes) {
    return common::invalid_argument("journal: book image exceeds option cap");
  }
  SnapshotPrefix prefix;
  prefix.risk = risk;
  prefix.book_bytes = book_bytes;
  const RecordHeader header = make_header(kKindSnapshot, seq, &prefix,
                                          sizeof(prefix), book_image,
                                          book_bytes);

  // Chaos: die mid-append — write the header and roughly half the
  // prefix, then refuse all further writes.  Recovery must treat the
  // result exactly like a SIGKILL between two write(2) calls.
  if (fault::try_fire(fault::InjectPoint::kJournalTruncate)) {
    poisoned_ = true;
    ++torn_appends_;
    write_fully(fd_, &header, sizeof(header));
    write_fully(fd_, &prefix, sizeof(prefix) / 2);
    return common::internal_error("journal torn by injection");
  }

  if (!write_fully(fd_, &header, sizeof(header)) ||
      !write_fully(fd_, &prefix, sizeof(prefix)) ||
      (book_bytes > 0 && !write_fully(fd_, book_image, book_bytes))) {
    return common::internal_error("journal append failed");
  }
  write_offset_ += sizeof(header) + sizeof(prefix) + book_bytes;
  if (options_.sync_each_append) ::fdatasync(fd_);
  return common::Status::ok();
}

}  // namespace rtseed::shard
