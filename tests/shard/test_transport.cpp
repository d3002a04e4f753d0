#include "shard/transport.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus_export.hpp"

namespace rtseed::shard {
namespace {

TEST(ShardTransport, RejectsDegenerateOptions) {
  EXPECT_FALSE(ShardTransport::create(0).has_value());
  TransportOptions bad;
  bad.ring_capacity = 3;  // not a power of two
  EXPECT_FALSE(ShardTransport::create(1, bad).has_value());
  bad.ring_capacity = 1;
  EXPECT_FALSE(ShardTransport::create(1, bad).has_value());
  bad.ring_capacity = 64;
  bad.pool_capacity = 0;
  EXPECT_FALSE(ShardTransport::create(1, bad).has_value());
}

TEST(ShardTransport, TickRoundTrip) {
  auto transport = ShardTransport::create(2);
  ASSERT_TRUE(transport.has_value()) << transport.status().to_string();
  auto& t = **transport;

  ShardMessage* msg = t.acquire();
  ASSERT_NE(msg, nullptr);
  msg->kind = MessageKind::kTick;
  msg->symbol = 7;
  msg->seq = 1;
  msg->body.tick.price = 1.25;
  ASSERT_TRUE(t.post(1, msg));

  EXPECT_EQ(t.poll(0), nullptr);  // wrong shard sees nothing
  ShardMessage* got = t.poll(1);
  ASSERT_EQ(got, msg);  // read in place: same cell, no copy
  EXPECT_EQ(got->kind, MessageKind::kTick);
  EXPECT_EQ(got->symbol, 7u);
  EXPECT_DOUBLE_EQ(got->body.tick.price, 1.25);
  t.release(got);
  EXPECT_EQ(t.in_flight_approx(), 0u);
}

TEST(ShardTransport, ResultRoundTrip) {
  auto transport = ShardTransport::create(1);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;
  ShardMessage* msg = t.acquire();
  ASSERT_NE(msg, nullptr);
  msg->kind = MessageKind::kJobResult;
  msg->body.result.job = 3;
  msg->body.result.signal = -0.5;
  ASSERT_TRUE(t.post_result(0, msg));
  ShardMessage* got = t.poll_result(0);
  ASSERT_EQ(got, msg);
  EXPECT_EQ(got->body.result.job, 3);
  t.release(got);
}

// The write-ahead batch pair: peek exposes the cells in place without
// consuming them, the count is capped at kMaxBatch, and commit + release
// return every cell.
TEST(ShardTransport, PeekCommitReleaseNRoundTrip) {
  TransportOptions options;
  options.ring_capacity = 256;
  options.pool_capacity = 256;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;
  constexpr usize kPosted = kMaxBatch + 10;
  std::vector<ShardMessage*> posted;
  for (usize i = 0; i < kPosted; ++i) {
    ShardMessage* msg = t.acquire();
    ASSERT_NE(msg, nullptr);
    msg->seq = i;
    ASSERT_TRUE(t.post(0, msg));
    posted.push_back(msg);
  }

  ShardMessage* batch[kMaxBatch];
  EXPECT_EQ(t.peek_ingress_n(0, batch, 3), 3u);
  EXPECT_EQ(t.ingress_size_approx(0), kPosted);  // peek consumed nothing
  usize next = 0;
  while (next < kPosted) {
    const usize n = t.peek_ingress_n(0, batch, 1000);
    ASSERT_EQ(n, std::min(kMaxBatch, kPosted - next));
    for (usize i = 0; i < n; ++i) {
      ASSERT_EQ(batch[i], posted[next + i]);  // in place, oldest first
    }
    t.commit_ingress_n(0, n);
    t.release_n(batch, n);
    next += n;
    EXPECT_EQ(t.in_flight_approx(), kPosted - next);
  }
  EXPECT_EQ(t.peek_ingress_n(0, batch, kMaxBatch), 0u);
  EXPECT_EQ(t.in_flight_approx(), 0u);
}

TEST(ShardTransport, FullRingDropsAndReleases) {
  TransportOptions options;
  options.ring_capacity = 4;
  options.pool_capacity = 16;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;

  for (int i = 0; i < 4; ++i) {
    ShardMessage* msg = t.acquire();
    ASSERT_NE(msg, nullptr);
    ASSERT_TRUE(t.post(0, msg));
  }
  ShardMessage* overflow = t.acquire();
  ASSERT_NE(overflow, nullptr);
  EXPECT_FALSE(t.post(0, overflow));  // dropped, not blocked
  EXPECT_EQ(t.ingress_drops(), 1u);
  // The dropped message's cell went straight back to the pool.
  EXPECT_EQ(t.in_flight_approx(), 4u);
}

TEST(ShardTransport, PoolExhaustionIsCounted) {
  TransportOptions options;
  options.pool_capacity = 2;
  options.ring_capacity = 8;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;
  EXPECT_NE(t.acquire(), nullptr);
  EXPECT_NE(t.acquire(), nullptr);
  EXPECT_EQ(t.acquire(), nullptr);
  EXPECT_EQ(t.pool_exhausted(), 1u);
}

TEST(ShardTransport, DropCountersExportThroughPrometheus) {
  TransportOptions options;
  options.pool_capacity = 4;
  options.ring_capacity = 2;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;

  // One ingress drop: fill the 2-slot ring, then one more.
  for (int i = 0; i < 2; ++i) {
    ShardMessage* msg = t.acquire();
    ASSERT_NE(msg, nullptr);
    ASSERT_TRUE(t.post(0, msg));
  }
  ShardMessage* overflow = t.acquire();
  ASSERT_NE(overflow, nullptr);
  EXPECT_FALSE(t.post(0, overflow));  // dropped, cell released
  // One pool exhaustion: the remaining 2 free cells, then one more.
  ASSERT_NE(t.acquire(), nullptr);
  ASSERT_NE(t.acquire(), nullptr);
  EXPECT_EQ(t.acquire(), nullptr);
  ASSERT_GE(t.ingress_drops(), 1u);
  ASSERT_GE(t.pool_exhausted(), 1u);

  obs::MetricsRegistry registry;
  t.register_metrics(&registry);
  t.sync_metrics();
  const std::string text = obs::render_prometheus(registry);
  EXPECT_NE(text.find("# TYPE rtseed_shard_ingress_drops_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtseed_shard_ingress_drops_total " +
                      std::to_string(t.ingress_drops())),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtseed_shard_pool_exhausted_total " +
                      std::to_string(t.pool_exhausted())),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtseed_shard_egress_drops_total 0"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Reattach hygiene: a second process (or a stale descriptor) mapping the
// segment must agree with the creator on layout, size, and epoch, and a
// torn-write marker blocks the attach until repaired.
// ---------------------------------------------------------------------------

TEST(ShardTransportAttach, RejectsEpochAndShapeMismatches) {
  TransportOptions options;
  options.epoch = 11;
  auto transport = ShardTransport::create(2, options);
  ASSERT_TRUE(transport.has_value());
  const int fd = (*transport)->segment_fd();
  if (fd < 0) GTEST_SKIP() << "anonymous-mapping fallback: no fd";

  // Matching everything attaches fine...
  auto same = ShardTransport::attach(fd, 2, options);
  EXPECT_TRUE(same.has_value()) << same.status().to_string();

  // ...but a stale epoch is refused,
  TransportOptions stale = options;
  stale.epoch = 10;
  EXPECT_FALSE(ShardTransport::attach(fd, 2, stale).has_value());
  // and so is a different layout shape (shard count or ring size).
  EXPECT_FALSE(ShardTransport::attach(fd, 3, options).has_value());
  TransportOptions bigger = options;
  bigger.ring_capacity *= 2;
  EXPECT_FALSE(ShardTransport::attach(fd, 2, bigger).has_value());
}

TEST(ShardTransportAttach, TornGenerationBlocksAttachUntilRepaired) {
  TransportOptions options;
  options.epoch = 12;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  const int fd = (*transport)->segment_fd();
  if (fd < 0) GTEST_SKIP() << "anonymous-mapping fallback: no fd";

  auto* header = (*transport)->segment_header();
  header->generation.fetch_add(1);  // writer died mid-mutation
  EXPECT_FALSE(ShardTransport::attach(fd, 1, options).has_value());

  ASSERT_TRUE(common::repair_torn_segment(header));
  auto repaired = ShardTransport::attach(fd, 1, options);
  EXPECT_TRUE(repaired.has_value()) << repaired.status().to_string();
  EXPECT_EQ(header->torn_repairs.load(), 1u);
}

TEST(ShardTransportAttach, ForkedChildAttachesAndMessagesFlowBack) {
  TransportOptions options;
  options.epoch = 13;
  options.pool_capacity = 16;
  options.ring_capacity = 8;
  auto transport = ShardTransport::create(1, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;
  if (t.segment_fd() < 0) {
    GTEST_SKIP() << "anonymous-mapping fallback: no fd";
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: re-map the same segment by fd (a DOUBLE attach — the
    // inherited parent mapping still exists) and echo one message.
    auto attached = ShardTransport::attach(t.segment_fd(), 1, options);
    if (!attached.has_value()) _exit(20);
    auto& child = **attached;
    ShardMessage* msg = nullptr;
    for (int spins = 0; spins < 100000000 && msg == nullptr; ++spins) {
      msg = child.poll(0);
    }
    if (msg == nullptr) _exit(21);
    const u64 seq = msg->seq;
    child.release(msg);
    ShardMessage* reply = child.acquire();
    if (reply == nullptr) _exit(22);
    reply->kind = MessageKind::kJobResult;
    reply->seq = seq + 1;
    if (!child.post_result(0, reply)) _exit(23);
    _exit(0);
  }

  ShardMessage* msg = t.acquire();
  ASSERT_NE(msg, nullptr);
  msg->kind = MessageKind::kTick;
  msg->seq = 41;
  ASSERT_TRUE(t.post(0, msg));

  ShardMessage* reply = nullptr;
  while (reply == nullptr) reply = t.poll_result(0);
  EXPECT_EQ(reply->seq, 42u);
  t.release(reply);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // Both attaches (the in-process one above died with its object, this
  // child's one) bumped the shared attach count.
  EXPECT_GE(t.segment_header()->attach_count.load(), 1u);
  EXPECT_EQ(t.in_flight_approx(), 0u);
}

// One router, one consumer per shard, everything concurrent: every tick
// posted must arrive exactly once at the right shard, and every cell
// must be back in the pool at the end.  (Runs under the tsan CI entry.)
TEST(ShardTransportStress, RouterFansOutToConcurrentConsumers) {
  constexpr int kShards = 2;
  constexpr u64 kPerShard = 50000;
  TransportOptions options;
  options.pool_capacity = 256;
  options.ring_capacity = 64;
  auto transport = ShardTransport::create(kShards, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;

  std::atomic<bool> failed{false};
  std::vector<std::thread> consumers;
  std::vector<u64> received(kShards, 0);
  for (int s = 0; s < kShards; ++s) {
    consumers.emplace_back([&, s] {
      u64 expect = 0;
      while (expect < kPerShard) {
        ShardMessage* msg = t.poll(s);
        if (msg == nullptr) continue;
        if (msg->symbol != static_cast<u32>(s) || msg->seq != expect) {
          failed.store(true);
        }
        ++expect;
        t.release(msg);
      }
      received[static_cast<usize>(s)] = expect;
    });
  }

  u64 next_seq[kShards] = {};
  u64 sent = 0;
  while (sent < kPerShard * kShards) {
    for (int s = 0; s < kShards; ++s) {
      if (next_seq[s] >= kPerShard) continue;
      ShardMessage* msg = t.acquire();
      if (msg == nullptr) continue;  // pool back-pressure: retry
      msg->kind = MessageKind::kTick;
      msg->symbol = static_cast<u32>(s);
      msg->seq = next_seq[s];
      // A full-ring drop releases the cell; the seq is re-sent, so the
      // consumer still sees a gapless sequence.
      if (t.post(s, msg)) {
        ++next_seq[s];
        ++sent;
      }
    }
  }
  for (auto& c : consumers) c.join();

  EXPECT_FALSE(failed.load());
  for (int s = 0; s < kShards; ++s) EXPECT_EQ(received[s], kPerShard);
  EXPECT_EQ(t.in_flight_approx(), 0u);
}

// One producer, one batch consumer per shard using the write-ahead
// pair (peek n → commit n → release n), everything concurrent: every
// message arrives exactly once, in order, and the chained releases race
// the producer's acquires on the pool head without losing a cell.  (Runs
// under the tsan CI entry.)
TEST(ShardTransportStress, BatchConsumersSeeEveryMessageOnceInOrder) {
  constexpr int kShards = 2;
  constexpr u64 kPerShard = 50000;
  TransportOptions options;
  options.pool_capacity = 256;
  options.ring_capacity = 128;
  auto transport = ShardTransport::create(kShards, options);
  ASSERT_TRUE(transport.has_value());
  auto& t = **transport;

  std::atomic<bool> failed{false};
  std::vector<std::thread> consumers;
  for (int s = 0; s < kShards; ++s) {
    consumers.emplace_back([&, s] {
      ShardMessage* batch[kMaxBatch];
      u64 expect = 0;
      while (expect < kPerShard) {
        const usize n = t.peek_ingress_n(s, batch, kMaxBatch);
        for (usize i = 0; i < n; ++i) {
          if (batch[i]->symbol != static_cast<u32>(s) ||
              batch[i]->seq != expect) {
            failed.store(true);
          }
          ++expect;
        }
        t.commit_ingress_n(s, n);
        t.release_n(batch, n);
      }
    });
  }

  u64 next_seq[kShards] = {};
  u64 sent = 0;
  while (sent < kPerShard * kShards) {
    for (int s = 0; s < kShards; ++s) {
      if (next_seq[s] >= kPerShard) continue;
      ShardMessage* msg = t.acquire();
      if (msg == nullptr) continue;  // pool back-pressure: retry
      msg->kind = MessageKind::kFlow;
      msg->symbol = static_cast<u32>(s);
      msg->seq = next_seq[s];
      if (t.post(s, msg)) {
        ++next_seq[s];
        ++sent;
      }
    }
  }
  for (auto& c : consumers) c.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(t.in_flight_approx(), 0u);
  // Every cell is back on the free list.
  const u64 exhausted = t.pool_exhausted();
  for (usize i = 0; i < options.pool_capacity; ++i) {
    ASSERT_NE(t.acquire(), nullptr) << "free list lost a cell at " << i;
  }
  EXPECT_EQ(t.pool_exhausted(), exhausted);
}

}  // namespace
}  // namespace rtseed::shard
