// Zero-allocation audit of a journaled shard worker's child-side path.
// A forked shard process must never malloc (another parent thread may
// have held the heap lock at fork time), so everything the child calls —
// recover(), apply_batch() with its write-ahead append and due
// snapshots, snapshot_now() — must run on what create() laid out in the
// parent.  Here create() runs first, then the audit counts every heap
// call the child's sequence makes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lob/flow.hpp"
#include "obs/hotpath_audit.hpp"
#include "shard/worker.hpp"

using namespace rtseed;
using common::usize;

namespace {

shard::WorkerConfig audit_config(const std::string& journal_path) {
  shard::WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 256;
  config.book.max_orders = 512;
  config.risk.max_order_qty = 0;
  config.snapshot_every = 100;  // due mid-batch: taken at the batch's end
  config.journal_path = journal_path;
  return config;
}

std::vector<shard::ShardMessage> flow(usize count,
                                      const lob::BookConfig& band) {
  lob::FlowGenerator gen(/*seed=*/17, band);
  std::vector<shard::ShardMessage> msgs(count);
  for (usize i = 0; i < count; ++i) {
    const lob::FlowEvent ev = gen.next();
    shard::ShardMessage& msg = msgs[i];
    msg.kind = shard::MessageKind::kFlow;
    msg.seq = i + 1;
    msg.body.flow.price_ticks = ev.price;
    msg.body.flow.qty = ev.qty;
    msg.body.flow.flow_kind = static_cast<common::u32>(ev.kind);
    msg.body.flow.side = static_cast<common::u32>(ev.side);
    msg.body.flow.pick = ev.pick;
  }
  return msgs;
}

/// Applies `msgs` in kMaxBatch batches.
void apply_all(shard::ShardWorker& worker,
               const std::vector<const shard::ShardMessage*>& msgs) {
  for (usize i = 0; i < msgs.size(); i += shard::kMaxBatch) {
    const usize n = std::min(shard::kMaxBatch, msgs.size() - i);
    worker.apply_batch(msgs.data() + i, n);
  }
}

std::vector<const shard::ShardMessage*> pointers(
    const std::vector<shard::ShardMessage>& msgs, usize first, usize last) {
  std::vector<const shard::ShardMessage*> out;
  for (usize i = first; i < last; ++i) out.push_back(&msgs[i]);
  return out;
}

TEST(ZeroAllocShard, JournaledWorkerChildPathAllocatesNothing) {
  char templ[] = "/tmp/rtseed_zero_alloc_shard_XXXXXX";
  ASSERT_NE(mkdtemp(templ), nullptr);
  const std::string dir = templ;
  const shard::WorkerConfig config = audit_config(dir + "/w.journal");

  // Inputs are built up front: the audit covers the worker, not the test.
  const auto msgs = flow(1050, config.book);
  const auto first_ptrs = pointers(msgs, 0, 450);
  const auto second_ptrs = pointers(msgs, 450, msgs.size());
  {
    // First incarnation leaves snapshots and a delta tail to replay.
    auto first = shard::ShardWorker::create(config);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE((*first)->recover().has_value());
    apply_all(**first, first_ptrs);
  }

  auto worker = shard::ShardWorker::create(config);  // parent side
  ASSERT_TRUE(worker.has_value());
  common::u64 snapshot_seq = 0;
  common::u64 replayed = 0;
  obs::HotpathAudit audit;
  {
    auto recovered = (*worker)->recover();
    if (recovered.has_value()) {
      snapshot_seq = recovered->snapshot_seq;
      replayed = recovered->deltas_replayed;
    }
    apply_all(**worker, second_ptrs);  // six due snapshots on the way
    (void)(*worker)->snapshot_now();
  }
  const auto allocs = audit.alloc_delta();

  EXPECT_GT(snapshot_seq, 0u) << "recovery restored no snapshot";
  EXPECT_GT(replayed, 0u) << "recovery replayed no delta";
  EXPECT_EQ((*worker)->applied_seq(), 1050u);
  EXPECT_EQ(allocs.alloc_calls, 0) << allocs.alloc_bytes << " bytes";

  ::unlink(config.journal_path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
