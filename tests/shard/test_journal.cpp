// StateJournal: append/recover round trips, snapshot-bounded replay,
// torn-tail truncation, and the kJournalTruncate chaos point.
#include "shard/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/injector.hpp"

namespace rtseed::shard {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char templ[] = "/tmp/rtseed_journal_XXXXXX";
    ASSERT_NE(mkdtemp(templ), nullptr);
    dir_ = templ;
    path_ = dir_ + "/shard-0.journal";
  }
  void TearDown() override {
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  static ShardMessage flow_msg(u64 seq) {
    ShardMessage msg{};
    msg.kind = MessageKind::kFlow;
    msg.symbol = 42;
    msg.seq = seq;
    msg.body.flow.price_ticks = static_cast<i64>(100 + seq);
    msg.body.flow.qty = 7;
    return msg;
  }

  struct Recovered {
    u64 snapshot_seq = 0;
    std::vector<u64> book_bytes_seen;
    std::vector<u64> delta_seqs;
  };

  static common::Expected<StateJournal::RecoverResult> run_recover(
      StateJournal& journal, Recovered& out) {
    return journal.recover(
        [&](u64 seq, const void* /*image*/, usize bytes,
            const lob::RiskEngine::Snapshot& /*risk*/) {
          out.snapshot_seq = seq;
          out.book_bytes_seen.push_back(bytes);
          return common::Status::ok();
        },
        [&](const ShardMessage& msg) { out.delta_seqs.push_back(msg.seq); });
  }

  std::string dir_;
  std::string path_;
};

TEST_F(JournalTest, RecoversAppendedDeltasInOrder) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
    for (u64 seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(journal->append_delta(seq, flow_msg(seq)).is_ok());
    }
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->snapshot_seq, 0u);
  EXPECT_EQ(result->deltas_replayed, 5u);
  EXPECT_EQ(result->last_seq, 5u);
  EXPECT_FALSE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1, 2, 3, 4, 5}));
}

TEST_F(JournalTest, SnapshotBoundsReplayToDeltasAfterIt) {
  const unsigned char image[64] = {1, 2, 3};
  lob::RiskEngine::Snapshot risk{};
  risk.position = -3;
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    for (u64 seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal->append_delta(seq, flow_msg(seq)).is_ok());
    }
    ASSERT_TRUE(
        journal->append_snapshot(3, image, sizeof(image), risk).is_ok());
    for (u64 seq = 4; seq <= 6; ++seq) {
      ASSERT_TRUE(journal->append_delta(seq, flow_msg(seq)).is_ok());
    }
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->snapshot_seq, 3u);
  EXPECT_EQ(result->deltas_replayed, 3u);  // only 4, 5, 6 replay
  EXPECT_EQ(result->last_seq, 6u);
  EXPECT_EQ(got.snapshot_seq, 3u);
  EXPECT_EQ(got.book_bytes_seen, (std::vector<u64>{sizeof(image)}));
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{4, 5, 6}));
}

TEST_F(JournalTest, LatestOfSeveralSnapshotsWins) {
  const unsigned char image[16] = {};
  lob::RiskEngine::Snapshot risk{};
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_delta(1, flow_msg(1)).is_ok());
    ASSERT_TRUE(
        journal->append_snapshot(1, image, sizeof(image), risk).is_ok());
    ASSERT_TRUE(journal->append_delta(2, flow_msg(2)).is_ok());
    ASSERT_TRUE(
        journal->append_snapshot(2, image, sizeof(image), risk).is_ok());
    ASSERT_TRUE(journal->append_delta(3, flow_msg(3)).is_ok());
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->snapshot_seq, 2u);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{3}));
}

TEST_F(JournalTest, TornTailIsDetectedTruncatedAndAppendableAgain) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    for (u64 seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal->append_delta(seq, flow_msg(seq)).is_ok());
    }
  }
  {
    // Simulate a crash mid-append: garbage half-record at the tail.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char garbage[13] = "RJNL-partial";
    out.write(garbage, sizeof(garbage));
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1, 2, 3}));

  // The tail was cut on a frame boundary: appending and re-recovering
  // yields a clean 4-delta stream.
  ASSERT_TRUE(journal->append_delta(4, flow_msg(4)).is_ok());
  auto reopened = StateJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  Recovered again;
  auto second = run_recover(*reopened, again);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->tail_truncated);
  EXPECT_EQ(again.delta_seqs, (std::vector<u64>{1, 2, 3, 4}));
}

TEST_F(JournalTest, CorruptedPayloadByteInvalidatesTheRecord) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_delta(1, flow_msg(1)).is_ok());
    ASSERT_TRUE(journal->append_delta(2, flow_msg(2)).is_ok());
  }
  {
    // Flip one byte inside the SECOND record's payload: its digest no
    // longer matches, so recovery must stop after record 1.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32 + static_cast<long>(sizeof(ShardMessage)) + 32 + 8);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0xFF);
    f.write(&byte, 1);
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1}));
}

TEST_F(JournalTest, InjectedTruncationPoisonsAndRecoversClean) {
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_delta(1, flow_msg(1)).is_ok());

    fault::InjectorConfig chaos;
    chaos.with_rate(fault::InjectPoint::kJournalTruncate, 1.0);
    chaos.max_fires_per_point = 1;
    fault::ScopedInjector injector(chaos);
    // This append dies mid-record and poisons the journal, exactly like
    // a SIGKILL between two write(2) calls.
    EXPECT_FALSE(journal->append_delta(2, flow_msg(2)).is_ok());
    EXPECT_EQ(journal->torn_appends(), 1u);
    EXPECT_FALSE(journal->append_delta(3, flow_msg(3)).is_ok());
  }
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->tail_truncated);  // the half-written record
  EXPECT_EQ(got.delta_seqs, (std::vector<u64>{1}));
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in), {});
}

// The on-disk delta frame, framed independently of the journal: a 32-byte
// header {magic "RJNL", kind 1, seq, payload bytes, pad, FNV-1a over
// kind‖seq‖payload_bytes‖payload} followed by the raw message.  Batched
// appends must keep writing exactly this, so journals written before and
// after batching recover alike.
TEST_F(JournalTest, BatchedDeltaFramesKeepTheOnDiskFormat) {
  std::vector<ShardMessage> msgs;
  for (u64 seq = 1; seq <= 7; ++seq) msgs.push_back(flow_msg(seq));
  std::vector<const ShardMessage*> ptrs;
  for (const ShardMessage& m : msgs) ptrs.push_back(&m);
  {
    auto journal = StateJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->append_deltas(ptrs.data(), 3).is_ok());
    ASSERT_TRUE(journal->append_deltas(ptrs.data() + 3, 4).is_ok());
  }

  std::vector<unsigned char> expected;
  const auto put = [&expected](const void* p, usize n) {
    const auto* b = static_cast<const unsigned char*>(p);
    expected.insert(expected.end(), b, b + n);
  };
  const auto fnv = [](u64 h, const void* p, usize n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (usize i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
    return h;
  };
  for (const ShardMessage& m : msgs) {
    const u32 magic = 0x524A4E4Cu, kind = 1, bytes = sizeof(ShardMessage),
              pad = 0;
    u64 digest = 0xCBF29CE484222325ULL;
    digest = fnv(digest, &kind, sizeof(kind));
    digest = fnv(digest, &m.seq, sizeof(m.seq));
    digest = fnv(digest, &bytes, sizeof(bytes));
    digest = fnv(digest, &m, sizeof(m));
    put(&magic, 4);
    put(&kind, 4);
    put(&m.seq, 8);
    put(&bytes, 4);
    put(&pad, 4);
    put(&digest, 8);
    put(&m, sizeof(m));
  }
  EXPECT_EQ(file_bytes(path_), expected);
}

TEST_F(JournalTest, OneBatchEqualsSingleAppendsAndRecovers) {
  const std::string singles = dir_ + "/singles.journal";
  std::vector<ShardMessage> msgs;
  for (u64 seq = 1; seq <= kMaxBatch; ++seq) msgs.push_back(flow_msg(seq));
  std::vector<const ShardMessage*> ptrs;
  for (const ShardMessage& m : msgs) ptrs.push_back(&m);
  {
    auto batched = StateJournal::open(path_);
    auto single = StateJournal::open(singles);
    ASSERT_TRUE(batched.has_value() && single.has_value());
    ASSERT_TRUE(batched->append_deltas(ptrs.data(), ptrs.size()).is_ok());
    for (const ShardMessage& m : msgs) {
      ASSERT_TRUE(single->append_delta(m.seq, m).is_ok());
    }
    EXPECT_EQ(batched->appended_bytes(), single->appended_bytes());
    // A batch past the framing buffer is refused whole, not half-written.
    std::vector<const ShardMessage*> too_many(kMaxBatch + 1, &msgs[0]);
    EXPECT_FALSE(
        batched->append_deltas(too_many.data(), too_many.size()).is_ok());
  }
  EXPECT_EQ(file_bytes(path_), file_bytes(singles));
  ::unlink(singles.c_str());

  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->tail_truncated);
  EXPECT_EQ(result->last_seq, kMaxBatch);
  EXPECT_EQ(got.delta_seqs.size(), kMaxBatch);
}

TEST_F(JournalTest, EmptyFileRecoversToNothing) {
  auto journal = StateJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  Recovered got;
  auto result = run_recover(*journal, got);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->last_seq, 0u);
  EXPECT_FALSE(result->tail_truncated);
  EXPECT_TRUE(got.delta_seqs.empty());
  EXPECT_TRUE(got.book_bytes_seen.empty());
}

}  // namespace
}  // namespace rtseed::shard
