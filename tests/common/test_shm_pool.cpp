// ShmMessagePool::release_n: a chain of cells goes back to the free list
// with one CAS, and no cell is lost or duplicated on the way.
#include "common/shm_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

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
