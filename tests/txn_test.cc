// Tests for the transaction manager: atomic commit, read-your-own-writes,
// isolation-level semantics (including classic anomalies: lost update,
// write skew), index maintenance, WAL emission and encoding.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "txn/timestamp.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace hattrick {
namespace {

Schema AccountSchema() {
  return Schema({{"id", DataType::kInt64}, {"balance", DataType::kInt64}});
}

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = catalog_.CreateTable("accounts", AccountSchema());
    index_ = catalog_.CreateIndex("accounts_pk", "accounts", {0}, true);
    tm_ = std::make_unique<TxnManager>(&catalog_, &oracle_, nullptr);
    // Seed two accounts at load time.
    for (int64_t id : {1, 2}) {
      const Rid rid = table_->Insert(Row{id, int64_t{100}}, 1, nullptr);
      index_->tree->Insert(index_->KeyFor(Row{id, int64_t{100}}, rid), rid,
                           nullptr);
    }
    oracle_.ResetTo(1);
  }

  Row ReadCommitted(Rid rid) {
    Row row;
    EXPECT_TRUE(table_->ReadLatest(rid, &row, nullptr));
    return row;
  }

  Catalog catalog_;
  RowTable* table_ = nullptr;
  IndexInfo* index_ = nullptr;
  TimestampOracle oracle_;
  std::unique_ptr<TxnManager> tm_;
};

TEST_F(TxnTest, ReadOnlyCommitConsumesNoTimestamp) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &row, nullptr).ok());
  const Ts before = oracle_.last_committed();
  StatusOr<CommitResult> result = tm_->Commit(&txn, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->lsn, 0u);
  EXPECT_EQ(oracle_.last_committed(), before);
}

// Regression: next_lsn_ used to be a plain uint64_t that Commit advanced
// under the commit latch while freshness probes read it from other
// threads with no synchronization at all — a data race surfaced by the
// thread-safety annotation pass. It is atomic now; this test drives a
// committer and a concurrent probe and checks the probe only ever sees
// monotonically non-decreasing values (TSan flags the race on
// regression).
TEST_F(TxnTest, NextLsnReadableWhileCommitting) {
  constexpr int kCommits = 200;
  std::atomic<bool> done{false};
  std::thread prober([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t lsn = tm_->next_lsn();
      EXPECT_GE(lsn, last);
      last = lsn;
    }
  });
  for (int i = 0; i < kCommits; ++i) {
    Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
    tm_->BufferInsert(&txn, 0, Row{int64_t{100 + i}, int64_t{1}});
    ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  }
  done.store(true, std::memory_order_release);
  prober.join();
  EXPECT_EQ(tm_->next_lsn(), 1u + kCommits);
}

TEST_F(TxnTest, InsertVisibleAfterCommitOnly) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferInsert(&txn, 0, Row{int64_t{3}, int64_t{50}});
  EXPECT_EQ(table_->NumSlots(), 2u);  // nothing installed yet
  ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  EXPECT_EQ(table_->NumSlots(), 3u);
  EXPECT_EQ(ReadCommitted(2)[1].AsInt(), 50);
}

TEST_F(TxnTest, AbortDiscardsEverything) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferInsert(&txn, 0, Row{int64_t{3}, int64_t{50}});
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &row, nullptr).ok());
  tm_->BufferUpdate(&txn, 0, 0, row, Row{int64_t{1}, int64_t{0}});
  tm_->Abort(&txn);
  EXPECT_EQ(table_->NumSlots(), 2u);
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 100);
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &row, nullptr).ok());
  tm_->BufferUpdate(&txn, 0, 0, row, Row{int64_t{1}, int64_t{77}});
  Row reread;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &reread, nullptr).ok());
  EXPECT_EQ(reread[1].AsInt(), 77);
}

TEST_F(TxnTest, SnapshotReadsIgnoreLaterCommits) {
  Transaction reader = tm_->Begin(IsolationLevel::kSnapshot);

  Transaction writer = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&writer, 0, 0, &row, nullptr).ok());
  tm_->BufferUpdate(&writer, 0, 0, row, Row{int64_t{1}, int64_t{55}});
  ASSERT_TRUE(tm_->Commit(&writer, nullptr).ok());

  Row seen;
  ASSERT_TRUE(tm_->Read(&reader, 0, 0, &seen, nullptr).ok());
  EXPECT_EQ(seen[1].AsInt(), 100);  // pre-commit snapshot
}

TEST_F(TxnTest, ReadCommittedSeesLatest) {
  Transaction reader = tm_->Begin(IsolationLevel::kReadCommitted);

  Transaction writer = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&writer, 0, 0, &row, nullptr).ok());
  tm_->BufferUpdate(&writer, 0, 0, row, Row{int64_t{1}, int64_t{55}});
  ASSERT_TRUE(tm_->Commit(&writer, nullptr).ok());

  Row seen;
  ASSERT_TRUE(tm_->Read(&reader, 0, 0, &seen, nullptr).ok());
  EXPECT_EQ(seen[1].AsInt(), 55);
}

TEST_F(TxnTest, LostUpdatePreventedUnderSnapshotIsolation) {
  // Two concurrent increments of the same balance: first-updater-wins
  // forces the second to abort instead of silently losing an update.
  Transaction t1 = tm_->Begin(IsolationLevel::kSnapshot);
  Transaction t2 = tm_->Begin(IsolationLevel::kSnapshot);
  Row r1;
  Row r2;
  ASSERT_TRUE(tm_->Read(&t1, 0, 0, &r1, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t2, 0, 0, &r2, nullptr).ok());
  tm_->BufferUpdate(&t1, 0, 0, r1, Row{int64_t{1}, int64_t{110}});
  tm_->BufferUpdate(&t2, 0, 0, r2, Row{int64_t{1}, int64_t{120}});
  ASSERT_TRUE(tm_->Commit(&t1, nullptr).ok());
  WorkMeter meter;
  StatusOr<CommitResult> second = tm_->Commit(&t2, &meter);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
  EXPECT_EQ(meter.conflict_waits, 1u);
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 110);
}

TEST_F(TxnTest, LostUpdatePreventedUnderReadCommitted) {
  // Regression for a real bug: read committed used to skip write-write
  // validation entirely, so two overlapping read-modify-write Payments
  // would both commit and one increment silently vanished (final
  // balance 120 instead of 110+10). First-updater-wins now applies at
  // every isolation level: the second committer aborts and must retry
  // against the new base.
  Transaction t1 = tm_->Begin(IsolationLevel::kReadCommitted);
  Transaction t2 = tm_->Begin(IsolationLevel::kReadCommitted);
  Row r1;
  Row r2;
  ASSERT_TRUE(tm_->Read(&t1, 0, 0, &r1, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t2, 0, 0, &r2, nullptr).ok());
  tm_->BufferUpdate(&t1, 0, 0, r1, Row{int64_t{1}, int64_t{110}});
  tm_->BufferUpdate(&t2, 0, 0, r2, Row{int64_t{1}, int64_t{120}});
  ASSERT_TRUE(tm_->Commit(&t1, nullptr).ok());
  StatusOr<CommitResult> second = tm_->Commit(&t2, nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 110);

  // The retry (fresh read of the committed 110) succeeds and keeps both
  // increments, as RunWithRetries would.
  Transaction retry = tm_->Begin(IsolationLevel::kReadCommitted);
  Row r3;
  ASSERT_TRUE(tm_->Read(&retry, 0, 0, &r3, nullptr).ok());
  EXPECT_EQ(r3[1].AsInt(), 110);
  tm_->BufferUpdate(&retry, 0, 0, r3, Row{int64_t{1}, int64_t{130}});
  ASSERT_TRUE(tm_->Commit(&retry, nullptr).ok());
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 130);
}

TEST_F(TxnTest, OverlappingDeltasCommitWithoutConflict) {
  // The same overlap expressed as commutative deltas: both commit, both
  // increments survive — the tentpole behavior that flattens the
  // hot-supplier knee.
  Transaction t1 = tm_->Begin(IsolationLevel::kReadCommitted);
  Transaction t2 = tm_->Begin(IsolationLevel::kReadCommitted);
  Row r1;
  Row r2;
  ASSERT_TRUE(tm_->Read(&t1, 0, 0, &r1, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t2, 0, 0, &r2, nullptr).ok());
  tm_->BufferDelta(&t1, 0, 0, 1, Value(int64_t{10}));
  tm_->BufferDelta(&t2, 0, 0, 1, Value(int64_t{20}));
  ASSERT_TRUE(tm_->Commit(&t1, nullptr).ok());
  ASSERT_TRUE(tm_->Commit(&t2, nullptr).ok());
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 130);
}

TEST_F(TxnTest, DeltaFoldsIntoOwnReads) {
  // RYOW over buffered deltas: a read after BufferDelta sees the
  // incremented value without any version being installed yet.
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &row, nullptr).ok());
  tm_->BufferDelta(&txn, 0, 0, 1, Value(int64_t{5}));
  tm_->BufferDelta(&txn, 0, 0, 1, Value(int64_t{7}));
  Row reread;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &reread, nullptr).ok());
  EXPECT_EQ(reread[1].AsInt(), 112);
  ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 112);
}

TEST_F(TxnTest, DeltaBelowSnapshotInvisibleAboveVisible) {
  // A delta committed after a snapshot was taken stays invisible to that
  // snapshot but visible to later ones.
  Transaction reader = tm_->Begin(IsolationLevel::kSnapshot);
  Transaction writer = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferDelta(&writer, 0, 0, 1, Value(int64_t{11}));
  ASSERT_TRUE(tm_->Commit(&writer, nullptr).ok());
  Row old_view;
  ASSERT_TRUE(tm_->Read(&reader, 0, 0, &old_view, nullptr).ok());
  EXPECT_EQ(old_view[1].AsInt(), 100);
  Transaction fresh = tm_->Begin(IsolationLevel::kSnapshot);
  Row new_view;
  ASSERT_TRUE(tm_->Read(&fresh, 0, 0, &new_view, nullptr).ok());
  EXPECT_EQ(new_view[1].AsInt(), 111);
}

TEST_F(TxnTest, DeltaConflictsWithPendingFullUpdate) {
  // A full update committing concurrently must still exclude deltas in
  // flight the other way: delta-vs-committed-full is fine (the fold
  // layers the delta on top), but the full writer that committed AFTER
  // the delta's read sees first-updater-wins as usual.
  Transaction full = tm_->Begin(IsolationLevel::kSnapshot);
  Row r;
  ASSERT_TRUE(tm_->Read(&full, 0, 0, &r, nullptr).ok());
  tm_->BufferUpdate(&full, 0, 0, r, Row{int64_t{1}, int64_t{500}});

  Transaction delta = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferDelta(&delta, 0, 0, 1, Value(int64_t{3}));
  ASSERT_TRUE(tm_->Commit(&delta, nullptr).ok());

  // The full update's base is now stale: aborts rather than losing the
  // delta increment.
  StatusOr<CommitResult> second = tm_->Commit(&full, nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
  EXPECT_EQ(ReadCommitted(0)[1].AsInt(), 103);
}

TEST_F(TxnTest, ProvisionalInsertVisibleToOwnReads) {
  // RYOW over buffered inserts: BufferInsert returns a provisional rid
  // that Read resolves from the write buffer until commit assigns the
  // real slot.
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  const Rid prid = tm_->BufferInsert(&txn, 0, Row{int64_t{3}, int64_t{42}});
  EXPECT_GE(prid, kProvisionalRidBase);
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, prid, &row, nullptr).ok());
  EXPECT_EQ(row[1].AsInt(), 42);

  // Updates and deltas against the provisional rid collapse into the
  // buffered insert.
  tm_->BufferDelta(&txn, 0, prid, 1, Value(int64_t{8}));
  ASSERT_TRUE(tm_->Read(&txn, 0, prid, &row, nullptr).ok());
  EXPECT_EQ(row[1].AsInt(), 50);

  ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  EXPECT_EQ(ReadCommitted(2)[1].AsInt(), 50);
}

TEST_F(TxnTest, IndexLookupSeesBufferedInserts) {
  // RYOW through the secondary access path: an IndexLookup inside the
  // inserting transaction visits the provisional row; after commit the
  // real rid takes over; other transactions never see the provisional
  // row.
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferInsert(&txn, 0, Row{int64_t{3}, int64_t{42}});
  size_t visits = 0;
  Rid seen_rid = 0;
  tm_->IndexLookup(&txn, *index_, {Value(int64_t{3})},
                   [&](Rid rid, const Row& row) {
                     ++visits;
                     seen_rid = rid;
                     EXPECT_EQ(row[1].AsInt(), 42);
                     return true;
                   },
                   nullptr);
  EXPECT_EQ(visits, 1u);
  EXPECT_GE(seen_rid, kProvisionalRidBase);

  Transaction other = tm_->Begin(IsolationLevel::kSnapshot);
  size_t other_visits = 0;
  tm_->IndexLookup(&other, *index_, {Value(int64_t{3})},
                   [&](Rid, const Row&) {
                     ++other_visits;
                     return true;
                   },
                   nullptr);
  EXPECT_EQ(other_visits, 0u);

  ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  Transaction after = tm_->Begin(IsolationLevel::kSnapshot);
  size_t after_visits = 0;
  tm_->IndexLookup(&after, *index_, {Value(int64_t{3})},
                   [&](Rid rid, const Row& row) {
                     ++after_visits;
                     EXPECT_LT(rid, kProvisionalRidBase);
                     EXPECT_EQ(row[1].AsInt(), 42);
                     return true;
                   },
                   nullptr);
  EXPECT_EQ(after_visits, 1u);
}

TEST_F(TxnTest, RetryBackoffIsDeterministicAndCapped) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    const double a = TxnManager::RetryBackoffSeconds(3, 17, attempt);
    const double b = TxnManager::RetryBackoffSeconds(3, 17, attempt);
    EXPECT_EQ(a, b) << "backoff must be a pure function of its inputs";
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, 10e-3);
  }
  // Different (client, txn) pairs jitter apart.
  EXPECT_NE(TxnManager::RetryBackoffSeconds(1, 1, 0),
            TxnManager::RetryBackoffSeconds(2, 1, 0));
}

TEST_F(TxnTest, RunWithRetriesSleepsAndReportsBackoff) {
  // An always-aborting body: every retry is charged the deterministic
  // schedule, the sum is reported to the caller, and the loop really
  // sleeps at least that long.
  int attempts = 0;
  double backoff = 0;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<CommitResult> result = tm_->RunWithRetries(
      IsolationLevel::kSnapshot, 7, 9,
      [&](Transaction*) { return Status::Aborted("induced"); }, nullptr,
      /*max_retries=*/4, &attempts, &backoff);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(attempts, 5);
  double expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected += TxnManager::RetryBackoffSeconds(7, 9, i);
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_EQ(backoff, expected);  // same terms, same order: bit-equal
  EXPECT_GE(elapsed.count(), expected);
  EXPECT_NEAR(tm_->backoff_seconds(), expected, 4e-9);  // 1 ns per retry
}

TEST_F(TxnTest, WriteSkewAllowedUnderSnapshotIsolation) {
  // The classic SI anomaly: each txn reads both accounts, writes the
  // other one. Disjoint write sets -> both commit under SI.
  Transaction t1 = tm_->Begin(IsolationLevel::kSnapshot);
  Transaction t2 = tm_->Begin(IsolationLevel::kSnapshot);
  Row a1;
  Row b1;
  ASSERT_TRUE(tm_->Read(&t1, 0, 0, &a1, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t1, 0, 1, &b1, nullptr).ok());
  Row a2;
  Row b2;
  ASSERT_TRUE(tm_->Read(&t2, 0, 0, &a2, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t2, 0, 1, &b2, nullptr).ok());
  tm_->BufferUpdate(&t1, 0, 0, a1, Row{int64_t{1}, int64_t{0}});
  tm_->BufferUpdate(&t2, 0, 1, b2, Row{int64_t{2}, int64_t{0}});
  EXPECT_TRUE(tm_->Commit(&t1, nullptr).ok());
  EXPECT_TRUE(tm_->Commit(&t2, nullptr).ok());  // anomaly permitted
}

TEST_F(TxnTest, WriteSkewRejectedUnderSerializable) {
  Transaction t1 = tm_->Begin(IsolationLevel::kSerializable);
  Transaction t2 = tm_->Begin(IsolationLevel::kSerializable);
  Row a1;
  Row b1;
  ASSERT_TRUE(tm_->Read(&t1, 0, 0, &a1, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t1, 0, 1, &b1, nullptr).ok());
  Row a2;
  Row b2;
  ASSERT_TRUE(tm_->Read(&t2, 0, 0, &a2, nullptr).ok());
  ASSERT_TRUE(tm_->Read(&t2, 0, 1, &b2, nullptr).ok());
  tm_->BufferUpdate(&t1, 0, 0, a1, Row{int64_t{1}, int64_t{0}});
  tm_->BufferUpdate(&t2, 0, 1, b2, Row{int64_t{2}, int64_t{0}});
  EXPECT_TRUE(tm_->Commit(&t1, nullptr).ok());
  // t2's read of account 1 is stale -> OCC read validation aborts it.
  StatusOr<CommitResult> second = tm_->Commit(&t2, nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
}

TEST_F(TxnTest, IndexMaintainedOnInsert) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  tm_->BufferInsert(&txn, 0, Row{int64_t{42}, int64_t{1}});
  ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());

  Transaction reader = tm_->Begin(IsolationLevel::kSnapshot);
  size_t hits = tm_->IndexLookup(&reader, *index_, {Value(int64_t{42})},
                                 [](Rid, const Row&) { return true; },
                                 nullptr);
  EXPECT_EQ(hits, 1u);
}

TEST_F(TxnTest, IndexLookupFiltersStaleEntries) {
  // Update an indexed column: the old index entry remains but the
  // re-check filters it.
  Catalog catalog;
  RowTable* table = catalog.CreateTable("t", AccountSchema());
  IndexInfo* by_balance = catalog.CreateIndex("bal", "t", {1}, false);
  TimestampOracle oracle;
  TxnManager tm(&catalog, &oracle, nullptr);
  const Rid rid = table->Insert(Row{int64_t{1}, int64_t{100}}, 1, nullptr);
  by_balance->tree->Insert(
      by_balance->KeyFor(Row{int64_t{1}, int64_t{100}}, rid), rid, nullptr);
  oracle.ResetTo(1);

  Transaction writer = tm.Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm.Read(&writer, 0, rid, &row, nullptr).ok());
  tm.BufferUpdate(&writer, 0, rid, row, Row{int64_t{1}, int64_t{200}});
  ASSERT_TRUE(tm.Commit(&writer, nullptr).ok());

  Transaction reader = tm.Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(tm.IndexLookup(&reader, *by_balance, {Value(int64_t{100})},
                           [](Rid, const Row&) { return true; }, nullptr),
            0u);
  EXPECT_EQ(tm.IndexLookup(&reader, *by_balance, {Value(int64_t{200})},
                           [](Rid, const Row&) { return true; }, nullptr),
            1u);
}

TEST_F(TxnTest, WalEmittedToSinkInCommitOrder) {
  struct CapturingSink : WalSink {
    std::vector<WalRecord> records;
    void OnCommit(const WalRecord& record) override {
      records.push_back(record);
    }
  } sink;
  tm_->set_sink(&sink);

  for (int i = 0; i < 3; ++i) {
    Transaction txn = tm_->Begin(IsolationLevel::kSnapshot, /*client_id=*/7,
                                 /*txn_num=*/static_cast<uint64_t>(i + 1));
    tm_->BufferInsert(&txn, 0, Row{int64_t{10 + i}, int64_t{0}});
    ASSERT_TRUE(tm_->Commit(&txn, nullptr).ok());
  }
  ASSERT_EQ(sink.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.records[i].lsn, i + 1);
    EXPECT_EQ(sink.records[i].client_id, 7u);
    EXPECT_EQ(sink.records[i].txn_num, i + 1);
    ASSERT_EQ(sink.records[i].ops.size(), 1u);
    EXPECT_EQ(sink.records[i].ops[0].kind, WalOp::Kind::kInsert);
  }
  EXPECT_LT(sink.records[0].commit_ts, sink.records[2].commit_ts);
}

TEST_F(TxnTest, CommitReportsWriteKeys) {
  Transaction txn = tm_->Begin(IsolationLevel::kSnapshot);
  Row row;
  ASSERT_TRUE(tm_->Read(&txn, 0, 0, &row, nullptr).ok());
  tm_->BufferUpdate(&txn, 0, 0, row, Row{int64_t{1}, int64_t{1}});
  tm_->BufferInsert(&txn, 0, Row{int64_t{5}, int64_t{5}});
  StatusOr<CommitResult> result = tm_->Commit(&txn, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->write_keys.size(), 2u);
  EXPECT_EQ(result->write_keys[0], PackRowKey(0, 0));
  EXPECT_EQ(result->write_keys[1], PackRowKey(0, 2));
}

TEST_F(TxnTest, RunWithRetriesRetriesAbortedBodies) {
  int calls = 0;
  int attempts = 0;
  StatusOr<CommitResult> result = tm_->RunWithRetries(
      IsolationLevel::kSnapshot, 1, 1,
      [&](Transaction* txn) -> Status {
        ++calls;
        if (calls < 3) return Status::Aborted("try again");
        tm_->BufferInsert(txn, 0, Row{int64_t{9}, int64_t{9}});
        return Status::OK();
      },
      nullptr, /*max_retries=*/5, &attempts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
}

TEST_F(TxnTest, RunWithRetriesGivesUpAfterMax) {
  int attempts = 0;
  StatusOr<CommitResult> result = tm_->RunWithRetries(
      IsolationLevel::kSnapshot, 1, 1,
      [&](Transaction*) { return Status::Aborted("always"); }, nullptr,
      /*max_retries=*/3, &attempts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(attempts, 4);  // 1 + 3 retries
}

TEST_F(TxnTest, RunWithRetriesPropagatesNonAbortErrors) {
  StatusOr<CommitResult> result = tm_->RunWithRetries(
      IsolationLevel::kSnapshot, 1, 1,
      [&](Transaction*) { return Status::NotFound("no row"); }, nullptr, 5,
      nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------------------------
// WAL encoding
// --------------------------------------------------------------------------

TEST(WalTest, EncodeDecodeRoundTrip) {
  WalRecord record;
  record.lsn = 42;
  record.commit_ts = 1234;
  record.client_id = 3;
  record.txn_num = 99;
  record.ops.push_back(WalOp{WalOp::Kind::kInsert, 1, 17, 0,
                             Row{int64_t{-5}, 2.75, std::string("hello")}});
  record.ops.push_back(
      WalOp{WalOp::Kind::kUpdate, 2, 0, 0, Row{std::string("")}});

  StatusOr<WalRecord> decoded = WalRecord::Decode(record.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(WalTest, DeltaOpRoundTripsWithColumn) {
  // kDelta carries its target column on the wire; insert/update records
  // stay byte-identical to the pre-delta format.
  WalRecord record;
  record.lsn = 7;
  record.commit_ts = 11;
  record.ops.push_back(WalOp{WalOp::Kind::kDelta, 4, 9, 3, Row{2.5}});
  record.ops.push_back(
      WalOp{WalOp::Kind::kDelta, 4, 9, 1, Row{int64_t{1}}});
  StatusOr<WalRecord> decoded = WalRecord::Decode(record.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
  EXPECT_EQ(decoded->ops[0].column, 3u);
  EXPECT_EQ(decoded->ops[1].column, 1u);

  WalRecord legacy;
  legacy.lsn = 7;
  legacy.ops.push_back(
      WalOp{WalOp::Kind::kUpdate, 1, 2, 0, Row{int64_t{5}}});
  WalRecord same = legacy;
  same.ops[0].column = 9;  // non-delta ops never encode the column
  EXPECT_EQ(legacy.Encode(), same.Encode());
}

TEST(WalTest, DecodeRejectsTruncated) {
  WalRecord record;
  record.lsn = 1;
  record.ops.push_back(
      WalOp{WalOp::Kind::kInsert, 0, 0, 0, Row{std::string("payload")}});
  const std::string bytes = record.Encode();
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() - 3}) {
    StatusOr<WalRecord> decoded = WalRecord::Decode(bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(WalTest, DecodeRejectsUnknownOpKind) {
  // Every downstream Kind dispatch (replica apply, delta feed, merge,
  // commit publish) is an exhaustive switch, so an out-of-range kind
  // byte must be rejected at decode time instead of aliasing to one of
  // the known kinds.
  WalRecord record;
  record.lsn = 9;
  record.ops.push_back(
      WalOp{WalOp::Kind::kInsert, 1, 2, 0, Row{int64_t{7}}});
  std::string bytes = record.Encode();
  // The first op's kind byte sits right after the fixed 32-byte header
  // (lsn + commit_ts + client_id + txn_num + op count).
  const size_t kind_pos = 32;
  ASSERT_EQ(static_cast<uint8_t>(bytes[kind_pos]),
            static_cast<uint8_t>(WalOp::Kind::kInsert));
  for (uint8_t bad : {uint8_t{3}, uint8_t{0xff}}) {
    bytes[kind_pos] = static_cast<char>(bad);
    StatusOr<WalRecord> decoded = WalRecord::Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << "kind byte " << int{bad};
    EXPECT_NE(decoded.status().message().find("unknown WAL op kind"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(WalTest, DecodeRejectsTrailingGarbage) {
  WalRecord record;
  record.lsn = 1;
  EXPECT_FALSE(WalRecord::Decode(record.Encode() + "x").ok());
}

TEST(WalTest, EmptyRecordRoundTrips) {
  WalRecord record;
  record.lsn = 7;
  StatusOr<WalRecord> decoded = WalRecord::Decode(record.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

// --------------------------------------------------------------------------
// Timestamp oracle
// --------------------------------------------------------------------------

TEST(TimestampOracleTest, AllocateMonotone) {
  TimestampOracle oracle;
  const Ts a = oracle.Allocate();
  const Ts b = oracle.Allocate();
  EXPECT_LT(a, b);
}

TEST(TimestampOracleTest, ResetTo) {
  TimestampOracle oracle;
  oracle.Allocate();
  oracle.Allocate();
  oracle.ResetTo(1);
  EXPECT_EQ(oracle.last_committed(), 1u);
  EXPECT_EQ(oracle.Allocate(), 2u);
}

}  // namespace
}  // namespace hattrick
