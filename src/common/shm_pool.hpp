// Fixed pool of message cells in shared memory — the allocation side of
// the shard transport, in-process and MULTI-PROCESS (DESIGN.md §12, §14).
//
// A tagged Treiber free list over cache-aligned cells, u32 index
// currency, ABA-safe head word.  The header and every cell live in
// caller-provided bytes — a ShmSegment mapped by the supervising parent
// and every forked shard worker.  A cell acquired in one process and
// released in another goes through the same lock-free head word, because
// that word is in the segment too; heap-backed cells could never offer
// that (they are copy-on-write after fork, so a child's release would be
// invisible to the parent).
//
// Like ShmSpscRing, this class is a VIEW: create() formats the bytes
// once (exactly one participant, before any attach()), attach() validates
// the embedded header and wires pointers.  All methods after that are
// lock-free and allocation-free.
#pragma once

#include <atomic>
#include <cassert>
#include <new>
#include <type_traits>

#include "common/cacheline.hpp"
#include "common/types.hpp"

namespace rtseed::common {

template <typename T>
class ShmMessagePool {
  static_assert(std::is_trivially_copyable_v<T>,
                "pooled shared-memory messages are raw bytes");

 public:
  using Index = u32;
  static constexpr Index kInvalidIndex = 0xFFFFFFFFu;
  static constexpr u64 kMagic = 0x52547368'6d506f6cULL;  // "RTshmPol"

  ShmMessagePool() = default;

  /// Bytes a segment must provide for `capacity` cells: header + cell
  /// array, each cache-line aligned.
  static usize required_bytes(usize capacity) {
    return sizeof(Header) + capacity * sizeof(Cell);
  }

  /// Formats a pool in `mem` (>= required_bytes, cache-line aligned).
  /// Exactly one participant calls this, before any attach().
  static ShmMessagePool create(void* mem, usize capacity) {
    assert(mem != nullptr);
    assert(capacity > 0 && capacity < kInvalidIndex);
    assert(reinterpret_cast<std::uintptr_t>(mem) % kCacheLine == 0);
    auto* header = new (mem) Header();
    header->capacity = capacity;
    header->element_size = sizeof(T);
    auto* cells = reinterpret_cast<Cell*>(static_cast<unsigned char*>(mem) +
                                          sizeof(Header));
    for (usize i = 0; i < capacity; ++i) {
      auto* cell = new (&cells[i]) Cell();
      cell->next.store(i + 1 < capacity ? static_cast<Index>(i + 1)
                                        : kInvalidIndex,
                       std::memory_order_relaxed);
    }
    header->head.store(pack(0, 0), std::memory_order_relaxed);
    header->magic.store(kMagic, std::memory_order_release);
    ShmMessagePool pool;
    pool.header_ = header;
    pool.cells_ = cells;
    return pool;
  }

  /// Views a pool previously create()d in (a mapping of) the same
  /// segment.  Invalid when the header does not match this T.
  static ShmMessagePool attach(void* mem) {
    ShmMessagePool pool;
    if (mem == nullptr) return pool;
    auto* header = static_cast<Header*>(mem);
    if (header->magic.load(std::memory_order_acquire) != kMagic ||
        header->element_size != sizeof(T)) {
      return pool;
    }
    pool.header_ = header;
    pool.cells_ = reinterpret_cast<Cell*>(static_cast<unsigned char*>(mem) +
                                          sizeof(Header));
    return pool;
  }

  bool valid() const { return header_ != nullptr; }
  usize capacity() const { return header_->capacity; }
  usize in_use_approx() const {
    return static_cast<usize>(header_->in_use.load(std::memory_order_relaxed));
  }
  u64 exhausted() const {
    return header_->exhausted.load(std::memory_order_relaxed);
  }

  /// Pops a free cell; nullptr (and an exhausted count) when empty.
  T* acquire() {
    const Index idx = pop_free();
    if (idx == kInvalidIndex) {
      header_->exhausted.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    header_->in_use.fetch_add(1, std::memory_order_relaxed);
    return &cells_[idx].value;
  }

  void release(T* msg) {
    assert(msg != nullptr);
    const Index idx = index_of(msg);
    push_chain(idx, idx);
    header_->in_use.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Returns `n` cells at once: links them into one chain and pushes
  /// the chain with a single CAS and a single in_use update, so a batch
  /// consumer pays the contended head word once per batch, not per cell.
  void release_n(T* const* msgs, usize n) {
    if (n == 0) return;
    const Index first = index_of(msgs[0]);
    Index last = first;
    for (usize i = 1; i < n; ++i) {
      const Index idx = index_of(msgs[i]);
      cells_[last].next.store(idx, std::memory_order_relaxed);
      last = idx;
    }
    push_chain(first, last);
    header_->in_use.fetch_sub(static_cast<i64>(n), std::memory_order_relaxed);
  }

  void release_index(Index idx) {
    assert(idx < header_->capacity);
    push_chain(idx, idx);
    header_->in_use.fetch_sub(1, std::memory_order_relaxed);
  }

  Index index_of(const T* msg) const {
    const auto* cell = reinterpret_cast<const Cell*>(
        reinterpret_cast<const unsigned char*>(msg) - offsetof(Cell, value));
    assert(cell >= cells_ && cell < cells_ + header_->capacity);
    return static_cast<Index>(cell - cells_);
  }

  T* at(Index idx) {
    assert(idx < header_->capacity);
    return &cells_[idx].value;
  }
  const T* at(Index idx) const {
    assert(idx < header_->capacity);
    return &cells_[idx].value;
  }

 private:
  struct alignas(kCacheLine) Cell {
    T value{};
    std::atomic<Index> next{kInvalidIndex};
  };

  struct Header {
    std::atomic<u64> magic{0};
    u64 capacity = 0;
    u64 element_size = 0;
    unsigned char pad0_[kCacheLine - 3 * sizeof(u64)];
    alignas(kCacheLine) std::atomic<u64> head{pack(0, kInvalidIndex)};
    alignas(kCacheLine) std::atomic<i64> in_use{0};
    std::atomic<u64> exhausted{0};
  };
  static_assert(sizeof(Header) == 3 * kCacheLine,
                "pool header = id line + head line + counter line");

  static constexpr u64 pack(u32 tag, Index idx) {
    return (static_cast<u64>(tag) << 32) | idx;
  }
  static Index index_part(u64 word) { return static_cast<Index>(word); }
  static u32 tag_part(u64 word) { return static_cast<u32>(word >> 32); }

  Index pop_free() {
    u64 head = header_->head.load(std::memory_order_acquire);
    for (;;) {
      const Index idx = index_part(head);
      if (idx == kInvalidIndex) return kInvalidIndex;
      const Index next = cells_[idx].next.load(std::memory_order_relaxed);
      if (header_->head.compare_exchange_weak(
              head, pack(tag_part(head) + 1, next), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return idx;
      }
    }
  }

  /// Pushes the pre-linked chain first -> ... -> last.  The release half
  /// of the CAS publishes the chain's inner links with it.
  void push_chain(Index first, Index last) {
    u64 head = header_->head.load(std::memory_order_relaxed);
    for (;;) {
      cells_[last].next.store(index_part(head), std::memory_order_relaxed);
      if (header_->head.compare_exchange_weak(
              head, pack(tag_part(head) + 1, first),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        return;
      }
    }
  }

  Header* header_ = nullptr;
  Cell* cells_ = nullptr;
};

}  // namespace rtseed::common
