// Crash consistency at EVERY journal byte: a journal built from batched
// write-ahead appends (batches of 1, 7 and 64 deltas, with the due
// snapshots between them) is cut at every byte offset, and each cut must
// recover to exactly its last complete record — same seq, same book
// digest, same position as an unjournaled reference fed that prefix.  A
// SIGKILL can land anywhere in a batch's write(2); this is the proof that
// wherever it lands, recovery yields a record prefix.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "lob/flow.hpp"
#include "shard/worker.hpp"

namespace rtseed::shard {
namespace {

/// One delta frame on disk: 32-byte header + the raw message.
constexpr usize kDeltaFrame = 32 + sizeof(ShardMessage);

WorkerConfig tiny_config() {
  WorkerConfig config;
  config.book.min_tick = 1;
  config.book.num_levels = 128;
  config.book.max_orders = 64;  // small snapshots keep the file short
  config.risk.max_order_qty = 0;
  config.snapshot_every = 8;
  return config;
}

std::vector<ShardMessage> flow_stream(u64 seed, usize count,
                                      const lob::BookConfig& band) {
  lob::FlowGenerator gen(seed, band);
  std::vector<ShardMessage> msgs(count);
  for (usize i = 0; i < count; ++i) {
    const lob::FlowEvent ev = gen.next();
    ShardMessage& msg = msgs[i];
    msg.kind = MessageKind::kFlow;
    msg.symbol = 1;
    msg.seq = i + 1;
    msg.body.flow.price_ticks = ev.price;
    msg.body.flow.qty = ev.qty;
    msg.body.flow.flow_kind = static_cast<u32>(ev.kind);
    msg.body.flow.side = static_cast<u32>(ev.side);
    msg.body.flow.pick = ev.pick;
  }
  return msgs;
}

struct BookState {
  u64 digest = 0;
  lob::Qty position = 0;
};

/// State of an unjournaled worker after each prefix: [m] = after m msgs.
std::vector<BookState> reference_states(const WorkerConfig& config,
                                        const std::vector<ShardMessage>& msgs) {
  WorkerConfig plain = config;
  plain.journal_path.clear();
  auto worker = ShardWorker::create(plain);
  EXPECT_TRUE(worker.has_value());
  std::vector<BookState> states{{(*worker)->book_digest(),
                                 (*worker)->position()}};
  for (const ShardMessage& msg : msgs) {
    (*worker)->apply(msg);
    states.push_back({(*worker)->book_digest(), (*worker)->position()});
  }
  return states;
}

std::vector<const ShardMessage*> pointers(const std::vector<ShardMessage>& msgs,
                                          usize first, usize count) {
  std::vector<const ShardMessage*> out;
  for (usize i = first; i < first + count; ++i) out.push_back(&msgs[i]);
  return out;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const unsigned char* data,
                usize bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

usize file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<usize>(st.st_size) : 0;
}

/// Injector config whose first kJournalTruncate fire is evaluation `k`
/// (0-based): deterministic per seed, so search the seeds for one.
fault::InjectorConfig tear_at(usize k) {
  for (u64 seed = 1;; ++seed) {
    fault::InjectorConfig config;
    config.seed = seed;
    config.with_rate(fault::InjectPoint::kJournalTruncate, 0.5);
    config.max_fires_per_point = 1;
    auto probe = std::make_unique<fault::Injector>(config);
    usize first = 0;
    while (!probe->fire(fault::InjectPoint::kJournalTruncate)) ++first;
    if (first == k) return config;
  }
}

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char templ[] = "/tmp/rtseed_crash_XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    dir_ = templ;
  }
  void TearDown() override {
    ::unlink(path("full").c_str());
    ::unlink(path("cut").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string path(const char* name) const {
    return dir_ + "/" + name + ".journal";
  }
  std::string dir_;
};

TEST_F(CrashConsistencyTest, EveryByteOffsetRecoversToTheLastCompleteRecord) {
  WorkerConfig config = tiny_config();
  config.journal_path = path("full");
  const usize kBatches[] = {1, 7, 64, 7, 1, 7};
  usize total = 0;
  for (usize size : kBatches) total += size;
  const std::vector<ShardMessage> msgs = flow_stream(7, total, config.book);

  // Where each complete record ends, and the seq it makes durable.
  struct RecordEnd {
    usize end = 0;
    u64 seq = 0;
  };
  std::vector<RecordEnd> records;
  std::vector<u64> snapshot_seqs;
  {
    auto worker = ShardWorker::create(config);
    ASSERT_TRUE(worker.has_value());
    ASSERT_TRUE((*worker)->recover().has_value());
    usize next = 0;
    for (usize size : kBatches) {
      const usize before = (*worker)->journal()->appended_bytes();
      const auto batch = pointers(msgs, next, size);
      ASSERT_EQ((*worker)->apply_batch(batch.data(), size), size);
      for (usize i = 0; i < size; ++i) {
        records.push_back({before + (i + 1) * kDeltaFrame, msgs[next + i].seq});
      }
      next += size;
      // A due snapshot follows the batch's deltas, never sits among them.
      const usize after = (*worker)->journal()->appended_bytes();
      if (after > records.back().end) {
        records.push_back({after, msgs[next - 1].seq});
        snapshot_seqs.push_back(msgs[next - 1].seq);
      }
    }
  }
  // snapshot_every = 8: due after 1+7, after the 64-batch, after 7+1.
  EXPECT_EQ(snapshot_seqs, (std::vector<u64>{8, 72, 80}));

  const std::vector<unsigned char> full = read_file(config.journal_path);
  ASSERT_EQ(full.size(), records.back().end);
  const std::vector<BookState> ref = reference_states(config, msgs);

  WorkerConfig cut_config = config;
  cut_config.journal_path = path("cut");
  usize complete = 0;  // records wholly inside the cut
  for (usize cut = 0; cut <= full.size(); ++cut) {
    while (complete < records.size() && records[complete].end <= cut) {
      ++complete;
    }
    const usize record_end = complete > 0 ? records[complete - 1].end : 0;
    const u64 seq = complete > 0 ? records[complete - 1].seq : 0;
    write_file(cut_config.journal_path, full.data(), cut);

    auto worker = ShardWorker::create(cut_config);
    ASSERT_TRUE(worker.has_value());
    auto result = (*worker)->recover();
    ASSERT_TRUE(result.has_value()) << "cut " << cut << ": "
                                    << result.status().to_string();
    ASSERT_EQ(result->last_seq, seq) << "cut " << cut;
    ASSERT_EQ(result->tail_truncated, cut != record_end) << "cut " << cut;
    ASSERT_EQ((*worker)->applied_seq(), seq) << "cut " << cut;
    ASSERT_EQ((*worker)->book_digest(), ref[seq].digest) << "cut " << cut;
    ASSERT_EQ((*worker)->position(), ref[seq].position) << "cut " << cut;
    ASSERT_EQ(file_size(cut_config.journal_path), record_end)
        << "cut " << cut << ": torn tail not cut back to a frame boundary";
  }
}

// The injected tear inside one batch: fired at record k of an 8-delta
// batch, exactly the records before it survive.
TEST_F(CrashConsistencyTest, TornBatchKeepsExactlyTheRecordsBeforeTheTear) {
  constexpr usize kBefore = 5;
  constexpr usize kBatch = 8;
  WorkerConfig config = tiny_config();
  config.snapshot_every = 1 << 20;  // the tear must land on a delta
  config.journal_path = path("full");
  const std::vector<ShardMessage> msgs =
      flow_stream(11, kBefore + kBatch, config.book);
  const std::vector<BookState> ref = reference_states(config, msgs);

  for (usize k = 0; k < kBatch; ++k) {
    ::unlink(config.journal_path.c_str());
    const fault::InjectorConfig chaos = tear_at(k);
    {
      auto worker = ShardWorker::create(config);
      ASSERT_TRUE(worker.has_value());
      ASSERT_TRUE((*worker)->recover().has_value());
      const auto first = pointers(msgs, 0, kBefore);
      ASSERT_EQ((*worker)->apply_batch(first.data(), kBefore), kBefore);
      fault::ScopedInjector injector(chaos);
      const auto torn = pointers(msgs, kBefore, kBatch);
      (*worker)->apply_batch(torn.data(), kBatch);
      EXPECT_EQ((*worker)->journal()->torn_appends(), 1u) << "k " << k;
      EXPECT_EQ(injector.injector().evaluated(
                    fault::InjectPoint::kJournalTruncate),
                k + 1)
          << "the tear stops the batch at record " << k;
    }
    auto worker = ShardWorker::create(config);
    ASSERT_TRUE(worker.has_value());
    auto result = (*worker)->recover();
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    EXPECT_TRUE(result->tail_truncated) << "k " << k;
    EXPECT_EQ(result->last_seq, kBefore + k) << "k " << k;
    EXPECT_EQ((*worker)->book_digest(), ref[kBefore + k].digest) << "k " << k;
    EXPECT_EQ((*worker)->position(), ref[kBefore + k].position) << "k " << k;
    EXPECT_EQ(file_size(config.journal_path), (kBefore + k) * kDeltaFrame);
  }
}

}  // namespace
}  // namespace rtseed::shard
