// ShmMessagePool: the lock-free free list over cache-aligned cells in
// shared memory — exhaustion, reuse, alignment, index handles, and
// release_n (a chain of cells goes back with one CAS), with no cell lost
// or duplicated under concurrency.
#include "common/shm_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/shm.hpp"

namespace rtseed::common {
namespace {

struct Msg {
  u64 seq = 0;
  double payload[6] = {};
};

using Pool = ShmMessagePool<Msg>;

/// Acquires every cell: each must be available exactly once.
std::vector<Msg*> drain_all(Pool& pool) {
  std::vector<Msg*> all;
  for (usize i = 0; i < pool.capacity(); ++i) {
    Msg* m = pool.acquire();
    EXPECT_NE(m, nullptr) << "free list lost a cell at " << i;
    if (m == nullptr) break;
    all.push_back(m);
  }
  EXPECT_EQ(pool.acquire(), nullptr) << "free list grew a cell";
  EXPECT_EQ(std::set<Msg*>(all.begin(), all.end()).size(), all.size());
  return all;
}

/// A pool formatted in a fresh segment; the segment lives as long as the
/// pool view.
struct PoolInSegment {
  explicit PoolInSegment(usize capacity) {
    auto created = ShmSegment::create(Pool::required_bytes(capacity));
    EXPECT_TRUE(created.has_value());
    if (!created.has_value()) return;
    segment = std::move(*created);
    pool = Pool::create(segment.data(), capacity);
  }
  ShmSegment segment;
  Pool pool;
};

TEST(ShmMessagePool, ExhaustionReturnsNullAndCounts) {
  PoolInSegment fx(4);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  std::vector<Msg*> held;
  for (int i = 0; i < 4; ++i) {
    Msg* m = pool.acquire();
    ASSERT_NE(m, nullptr);
    held.push_back(m);
  }
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.exhausted(), 2u);
  // Releasing one makes exactly one acquire succeed again.
  pool.release(held.back());
  held.pop_back();
  EXPECT_NE(pool.acquire(), nullptr);
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.exhausted(), 3u);
}

TEST(ShmMessagePool, CellsAreDistinctAndReused) {
  PoolInSegment fx(16);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  std::vector<Msg*> held = drain_all(pool);
  const std::set<Msg*> first(held.begin(), held.end());
  ASSERT_EQ(first.size(), 16u);
  for (Msg* m : held) pool.release(m);
  // The same storage comes back — the pool never grows.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(first.count(pool.acquire()))
        << "reacquired cell outside the original block";
  }
}

TEST(ShmMessagePool, CellsAreCacheLineAligned) {
  PoolInSegment fx(8);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  std::vector<Msg*> held = drain_all(pool);
  std::sort(held.begin(), held.end());
  for (Msg* m : held) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m) % kCacheLine, 0u);
  }
  // Adjacent cells must not share a destructive-interference line.
  for (size_t i = 1; i < held.size(); ++i) {
    const auto gap = reinterpret_cast<std::uintptr_t>(held[i]) -
                     reinterpret_cast<std::uintptr_t>(held[i - 1]);
    EXPECT_GE(gap, static_cast<std::uintptr_t>(kCacheLine));
  }
}

TEST(ShmMessagePool, AcquireReleaseRoundTrip) {
  PoolInSegment fx(8);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  EXPECT_EQ(pool.capacity(), 8u);
  Msg* m = pool.acquire();
  ASSERT_NE(m, nullptr);
  m->seq = 42;
  EXPECT_EQ(pool.in_use_approx(), 1u);
  EXPECT_EQ(pool.at(pool.index_of(m)), m);
  pool.release(m);
  EXPECT_EQ(pool.in_use_approx(), 0u);
}

TEST(ShmMessagePool, IndexHandlesSurviveTheRing) {
  PoolInSegment fx(8);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  Msg* m = pool.acquire();
  ASSERT_NE(m, nullptr);
  m->seq = 7;
  const Pool::Index idx = pool.index_of(m);
  // ...the index crosses a ShmSpscRing<u32> here...
  EXPECT_EQ(pool.at(idx)->seq, 7u);
  pool.release_index(idx);
  EXPECT_EQ(pool.in_use_approx(), 0u);
}

TEST(ShmMessagePool, ConcurrentAcquireReleaseStress) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  PoolInSegment fx(kThreads * 2);
  Pool& pool = fx.pool;
  ASSERT_TRUE(pool.valid());
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &failed, t] {
      for (int i = 0; i < kRounds; ++i) {
        Msg* m = pool.acquire();
        if (m == nullptr) continue;  // transient exhaustion is legal
        const u64 tag = static_cast<u64>(t) << 32 | static_cast<u64>(i);
        m->seq = tag;
        if (m->seq != tag) failed.store(true);
        pool.release(m);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.in_use_approx(), 0u);
  // Every cell must still be acquirable — the free list survived the race.
  EXPECT_EQ(drain_all(pool).size(), pool.capacity());
}

TEST(ShmMessagePool, ReleaseNConservesCells) {
  constexpr usize kCap = 64;
  auto seg = ShmSegment::create(Pool::required_bytes(kCap));
  ASSERT_TRUE(seg.has_value());
  Pool pool = Pool::create(seg->data(), kCap);

  // Batches of every size, released in an order unrelated to acquisition
  // (odd cells first, then even), interleaved with single releases.
  for (usize batch = 1; batch <= kCap; batch += 9) {
    std::vector<Msg*> cells;
    for (usize i = 0; i < batch; ++i) {
      cells.push_back(pool.acquire());
      ASSERT_NE(cells.back(), nullptr) << "free list lost a cell";
    }
    EXPECT_EQ(pool.in_use_approx(), batch);
    std::vector<Msg*> order;
    for (usize i = 1; i < batch; i += 2) order.push_back(cells[i]);
    for (usize i = 0; i < batch; i += 2) order.push_back(cells[i]);
    Msg* single = order.back();
    order.pop_back();
    pool.release_n(order.data(), order.size());
    pool.release(single);
    EXPECT_EQ(pool.in_use_approx(), 0u);
  }
  pool.release_n(nullptr, 0);  // empty batch: a no-op
  EXPECT_EQ(pool.in_use_approx(), 0u);

  std::vector<Msg*> all = drain_all(pool);
  ASSERT_EQ(all.size(), kCap);
  pool.release_n(all.data(), all.size());
  EXPECT_EQ(pool.in_use_approx(), 0u);
  EXPECT_EQ(drain_all(pool).size(), kCap);
}

// Batch releasers race single acquirers on the head word.
TEST(ShmMessagePool, ConcurrentReleaseNStress) {
  constexpr usize kCap = 64;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  auto seg = ShmSegment::create(Pool::required_bytes(kCap));
  ASSERT_TRUE(seg.has_value());
  Pool pool = Pool::create(seg->data(), kCap);

  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &failed, t] {
      Msg* held[8];
      for (int round = 0; round < kRounds; ++round) {
        const usize want = 1 + static_cast<usize>(round + t) % 8;
        usize n = 0;
        while (n < want) {
          Msg* m = pool.acquire();
          if (m == nullptr) break;  // transient exhaustion is legal
          m->seq = static_cast<u64>(t) << 32 | static_cast<u64>(round);
          held[n++] = m;
        }
        for (usize i = 0; i < n; ++i) {
          if (held[i]->seq !=
              (static_cast<u64>(t) << 32 | static_cast<u64>(round))) {
            failed.store(true);  // another thread owns this cell too
          }
        }
        pool.release_n(held, n);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.in_use_approx(), 0u);
  EXPECT_EQ(drain_all(pool).size(), kCap);
}

}  // namespace
}  // namespace rtseed::common
