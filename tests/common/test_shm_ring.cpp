#include "common/shm_ring.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/shm.hpp"

namespace rtseed::common {
namespace {

struct Tick {
  u32 symbol = 0;
  u32 seq = 0;
  double price = 0.0;
};

TEST(ShmSegment, CreateMapsZeroedPageRoundedMemory) {
  auto seg = ShmSegment::create(100);
  ASSERT_TRUE(seg.has_value()) << seg.status().to_string();
  EXPECT_GE(seg->size(), 100u);
  EXPECT_EQ(seg->size() % 4096, 0u);
  auto* bytes = static_cast<unsigned char*>(seg->data());
  for (usize i = 0; i < seg->size(); ++i) ASSERT_EQ(bytes[i], 0);
  bytes[0] = 0xAB;  // writable
}

TEST(ShmSegment, AttachSharesTheSamePages) {
  auto seg = ShmSegment::create(4096);
  ASSERT_TRUE(seg.has_value());
  if (seg->fd() < 0) GTEST_SKIP() << "no memfd on this kernel";
  auto view = ShmSegment::attach(seg->fd(), 4096);
  ASSERT_TRUE(view.has_value()) << view.status().to_string();
  static_cast<unsigned char*>(seg->data())[17] = 0x5C;
  EXPECT_EQ(static_cast<unsigned char*>(view->data())[17], 0x5C);
}

TEST(ShmSpscRing, RejectsMismatchedAttach) {
  auto seg = ShmSegment::create(ShmSpscRing<Tick>::required_bytes(8));
  ASSERT_TRUE(seg.has_value());
  // Never create()d: magic is zero.
  EXPECT_FALSE(ShmSpscRing<Tick>::attach(seg->data()).valid());
  auto ring = ShmSpscRing<Tick>::create(seg->data(), 8);
  EXPECT_TRUE(ring.valid());
  // Wrong element size must be rejected, right one accepted.
  EXPECT_FALSE(ShmSpscRing<u64>::attach(seg->data()).valid());
  EXPECT_TRUE(ShmSpscRing<Tick>::attach(seg->data()).valid());
}

TEST(ShmSpscRing, FifoOrderAndFullRejection) {
  auto seg = ShmSegment::create(ShmSpscRing<Tick>::required_bytes(4));
  ASSERT_TRUE(seg.has_value());
  auto ring = ShmSpscRing<Tick>::create(seg->data(), 4);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push({i, i, i * 1.5}));
  }
  EXPECT_FALSE(ring.try_push({99, 99, 0.0}));  // full: drop, never block
  for (u32 i = 0; i < 4; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->seq, i);
    EXPECT_DOUBLE_EQ(v->price, i * 1.5);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(ShmSpscRing, WrapsAroundManyTimes) {
  auto seg = ShmSegment::create(ShmSpscRing<Tick>::required_bytes(4));
  ASSERT_TRUE(seg.has_value());
  auto ring = ShmSpscRing<Tick>::create(seg->data(), 4);
  // 10k sequenced elements through a 4-slot ring: indices wrap the
  // capacity mask thousands of times and must never alias.
  u32 pushed = 0, popped = 0;
  while (popped < 10000) {
    while (pushed < 10000 && ring.try_push({0, pushed, 0.0})) ++pushed;
    Tick t;
    while (ring.try_pop(&t)) {
      ASSERT_EQ(t.seq, popped);
      ++popped;
    }
  }
  EXPECT_TRUE(ring.empty_approx());
}

// The batch consumer pair across the wrap point: the peek count never
// exceeds what is queued or `max`, elements come out oldest first, and a
// peek leaves the ring untouched until commit_pop_n consumes it.
TEST(ShmSpscRing, PeekNAndCommitNAcrossTheWrapPoint) {
  constexpr usize kCap = 8;
  auto seg = ShmSegment::create(ShmSpscRing<u32>::required_bytes(kCap));
  ASSERT_TRUE(seg.has_value());
  auto ring = ShmSpscRing<u32>::create(seg->data(), kCap);
  u32 pushed = 0;
  u32 popped = 0;
  u32 out[kCap + 4];
  EXPECT_EQ(ring.try_peek_n(out, kCap), 0u);  // empty
  // Offsets 0..kCap-1 put the tail at every slot, so batches straddle the
  // slot array's end in every possible way.
  for (usize round = 0; round < 4 * kCap; ++round) {
    const usize fill = 1 + round % kCap;
    while (pushed - popped < fill) ASSERT_TRUE(ring.try_push(pushed++));
    const usize queued = pushed - popped;
    for (usize max = 0; max <= kCap + 4; ++max) {
      const usize n = ring.try_peek_n(out, max);
      ASSERT_EQ(n, std::min(queued, max));
      for (usize i = 0; i < n; ++i) ASSERT_EQ(out[i], popped + i);
    }
    EXPECT_EQ(ring.size_approx(), queued);  // peeking consumed nothing
    const usize take = 1 + round % queued;
    ASSERT_EQ(ring.try_peek_n(out, take), take);
    ring.commit_pop_n(take);
    popped += static_cast<u32>(take);
    EXPECT_EQ(ring.size_approx(), pushed - popped);
  }
  // After commits the next element is the oldest unconsumed one.
  u32 v = 0;
  if (pushed != popped) {
    ASSERT_TRUE(ring.try_pop(&v));
    EXPECT_EQ(v, popped);
  }
}

TEST(ShmSpscRing, ConcurrentProducerConsumer) {
  constexpr u32 kCount = 200000;
  auto seg = ShmSegment::create(ShmSpscRing<u64>::required_bytes(256));
  ASSERT_TRUE(seg.has_value());
  auto ring = ShmSpscRing<u64>::create(seg->data(), 256);
  auto view = ShmSpscRing<u64>::attach(seg->data());
  ASSERT_TRUE(view.valid());

  std::atomic<bool> ok{true};
  std::thread consumer([&view, &ok] {
    u64 expect = 0;
    while (expect < kCount) {
      u64 v;
      if (view.try_pop(&v)) {
        if (v != expect) ok.store(false);
        ++expect;
      }
    }
  });
  for (u64 i = 0; i < kCount; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

// The cross-process smoke the transport exists for: child produces into a
// fork-inherited MAP_SHARED mapping, parent consumes.
TEST(ShmSpscRing, CrossProcessSmoke) {
  constexpr u32 kCount = 5000;
  auto seg = ShmSegment::create(ShmSpscRing<Tick>::required_bytes(64));
  ASSERT_TRUE(seg.has_value());
  auto ring = ShmSpscRing<Tick>::create(seg->data(), 64);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child = ShmSpscRing<Tick>::attach(seg->data());
    if (!child.valid()) ::_exit(2);
    for (u32 i = 0; i < kCount; ++i) {
      Tick t{i % 7, i, i * 0.25};
      while (!child.try_push(t)) {
        // Parent drains concurrently; spin until a slot frees.
      }
    }
    ::_exit(0);
  }

  u32 next = 0;
  while (next < kCount) {
    Tick t;
    if (ring.try_pop(&t)) {
      ASSERT_EQ(t.seq, next);
      ASSERT_EQ(t.symbol, next % 7);
      ++next;
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit status " << status;
}

}  // namespace
}  // namespace rtseed::common
