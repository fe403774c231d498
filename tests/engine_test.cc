// Engine conformance suite: the same behavioural contract exercised
// against all three HTAP designs (shared, isolated, hybrid) via a
// parameterized factory, plus design-specific tests (replication modes,
// delta merge).

#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"

namespace hattrick {
namespace {

DatabaseSpec SmallSpec() {
  DatabaseSpec spec;
  spec.tables.push_back(
      {"items", Schema({{"id", DataType::kInt64},
                        {"name", DataType::kString},
                        {"qty", DataType::kInt64}})});
  spec.indexes.push_back({"items_pk", "items", {0}, true});
  return spec;
}

std::vector<Row> SeedRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(Row{int64_t{i}, "item" + std::to_string(i),
                       int64_t{10}});
  }
  return rows;
}

using EngineFactory = std::function<std::unique_ptr<HtapEngine>()>;

struct EngineCase {
  std::string name;
  EngineFactory factory;
};

class EngineConformanceTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  void SetUp() override {
    engine_ = GetParam().factory();
    ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
    ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
    ASSERT_TRUE(engine_->FinishLoad().ok());
  }

  /// Commits qty+1 on row `rid`; returns the outcome.
  TxnOutcome IncrementQty(Rid rid, uint32_t client = 1,
                          uint64_t txn_num = 1) {
    WorkMeter meter;
    return engine_->ExecuteTransaction(
        [rid](TxnContext* txn, WorkMeter* m) -> Status {
          Row row;
          HATTRICK_RETURN_IF_ERROR(txn->Read(0, rid, &row, m));
          Row updated = row;
          updated[2] = Value(row[2].AsInt() + 1);
          txn->BufferUpdate(0, rid, row, std::move(updated));
          return Status::OK();
        },
        client, txn_num, &meter);
  }

  /// Sums the qty column through the engine's analytical path, draining
  /// any maintenance backlog first so the result is up to date.
  int64_t AnalyticalQtySum() {
    WorkMeter meter;
    while (engine_->MaintenanceStep(&meter)) {
    }
    AnalyticsSession session = engine_->BeginAnalytics(&meter);
    ScanSpec spec;
    spec.table = "items";
    spec.projection = {2};
    OperatorPtr scan = session.source->Scan(spec);
    ExecContext ctx{&meter};
    scan->Open(&ctx);
    Row row;
    int64_t sum = 0;
    while (scan->Next(&ctx, &row)) sum += row[0].AsInt();
    return sum;
  }

  std::unique_ptr<HtapEngine> engine_;
};

TEST_P(EngineConformanceTest, LoadedDataVisibleToAnalytics) {
  EXPECT_EQ(AnalyticalQtySum(), 500);
}

TEST_P(EngineConformanceTest, CommittedTransactionVisibleToAnalytics) {
  ASSERT_TRUE(IncrementQty(0).status.ok());
  EXPECT_EQ(AnalyticalQtySum(), 501);
}

TEST_P(EngineConformanceTest, InsertsReachAnalytics) {
  WorkMeter meter;
  TxnOutcome outcome = engine_->ExecuteTransaction(
      [](TxnContext* txn, WorkMeter*) {
        txn->BufferInsert(0,
                         Row{int64_t{1000}, std::string("new"),
                             int64_t{7}});
        return Status::OK();
      },
      1, 1, &meter);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(AnalyticalQtySum(), 507);
}

TEST_P(EngineConformanceTest, TxnOutcomeCarriesWriteKeys) {
  TxnOutcome outcome = IncrementQty(3);
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_EQ(outcome.write_keys.size(), 1u);
  EXPECT_EQ(outcome.write_keys[0], PackRowKey(0, 3));
}

TEST_P(EngineConformanceTest, FailingBodyChangesNothing) {
  WorkMeter meter;
  TxnOutcome outcome = engine_->ExecuteTransaction(
      [](TxnContext* txn, WorkMeter*) {
        txn->BufferInsert(0,
                         Row{int64_t{1}, std::string("x"), int64_t{1}});
        return Status::NotFound("simulated failure");
      },
      1, 1, &meter);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(AnalyticalQtySum(), 500);
}

TEST_P(EngineConformanceTest, ResetRestoresInitialState) {
  ASSERT_TRUE(IncrementQty(0).status.ok());
  ASSERT_TRUE(IncrementQty(1).status.ok());
  ASSERT_TRUE(engine_->Reset().ok());
  EXPECT_EQ(AnalyticalQtySum(), 500);
  // Indexes were rebuilt: transactional point access still works.
  ASSERT_TRUE(IncrementQty(5).status.ok());
  EXPECT_EQ(AnalyticalQtySum(), 501);
}

TEST_P(EngineConformanceTest, ResetIsRepeatable) {
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(IncrementQty(0).status.ok());
    ASSERT_TRUE(engine_->Reset().ok());
    EXPECT_EQ(AnalyticalQtySum(), 500) << "round " << round;
  }
}

TEST_P(EngineConformanceTest, AnalyticsSnapshotIsStable) {
  // A session opened before a commit must not observe that commit.
  WorkMeter meter;
  while (engine_->MaintenanceStep(&meter)) {
  }
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  ASSERT_TRUE(IncrementQty(0).status.ok());
  ScanSpec spec;
  spec.table = "items";
  spec.projection = {2};
  OperatorPtr scan = session.source->Scan(spec);
  ExecContext ctx{&meter};
  scan->Open(&ctx);
  Row row;
  int64_t sum = 0;
  while (scan->Next(&ctx, &row)) sum += row[0].AsInt();
  session.guard.reset();
  EXPECT_EQ(sum, 500);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest,
    ::testing::Values(
        EngineCase{"shared",
                   [] {
                     return std::unique_ptr<HtapEngine>(
                         std::make_unique<SharedEngine>());
                   }},
        EngineCase{"isolated",
                   [] {
                     IsolatedEngineConfig config;
                     config.mode = ReplicationMode::kSyncShip;
                     return std::unique_ptr<HtapEngine>(
                         std::make_unique<IsolatedEngine>(config));
                   }},
        EngineCase{"hybrid",
                   [] {
                     return std::unique_ptr<HtapEngine>(
                         std::make_unique<HybridEngine>());
                   }},
        EngineCase{"hybrid_bitmap_unfolded",
                   [] {
                     // Versioned column store at the default watermark:
                     // the suite's few commits stay pending versions.
                     HybridEngineConfig config;
                     config.merge_mode = MergeMode::kBitmap;
                     return std::unique_ptr<HtapEngine>(
                         std::make_unique<HybridEngine>(config));
                   }},
        EngineCase{"hybrid_bitmap",
                   [] {
                     // Versioned column store with a tiny watermark so
                     // the conformance suite also exercises background
                     // folds.
                     HybridEngineConfig config;
                     config.merge_mode = MergeMode::kBitmap;
                     config.fold_watermark = 4;
                     return std::unique_ptr<HtapEngine>(
                         std::make_unique<HybridEngine>(config));
                   }}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

// --------------------------------------------------------------------------
// Design-specific behaviour.
// --------------------------------------------------------------------------

class IsolatedEngineTest : public ::testing::Test {
 protected:
  void Load(ReplicationMode mode) {
    IsolatedEngineConfig config;
    config.mode = mode;
    engine_ = std::make_unique<IsolatedEngine>(config);
    ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
    ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
    ASSERT_TRUE(engine_->FinishLoad().ok());
  }

  TxnOutcome Insert(int64_t id) {
    WorkMeter meter;
    return engine_->ExecuteTransaction(
        [id](TxnContext* txn, WorkMeter*) {
          txn->BufferInsert(0,
                           Row{id, std::string("n"), int64_t{1}});
          return Status::OK();
        },
        1, 1, &meter);
  }

  std::unique_ptr<IsolatedEngine> engine_;
};

TEST_F(IsolatedEngineTest, OnModeRequestsShipWait) {
  Load(ReplicationMode::kSyncShip);
  TxnOutcome outcome = Insert(100);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.wait.kind, CommitWait::Kind::kShipDelay);
  EXPECT_GT(outcome.wait.bytes, 0u);
}

TEST_F(IsolatedEngineTest, RemoteApplyModeRequestsApplyWait) {
  Load(ReplicationMode::kRemoteApply);
  TxnOutcome outcome = Insert(100);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.wait.kind, CommitWait::Kind::kReplicaApplied);
  EXPECT_EQ(outcome.wait.lsn, outcome.lsn);
  EXPECT_FALSE(engine_->IsApplied(outcome.lsn));
  WorkMeter meter;
  ASSERT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_TRUE(engine_->IsApplied(outcome.lsn));
}

TEST_F(IsolatedEngineTest, AsyncModeNoWait) {
  Load(ReplicationMode::kAsync);
  TxnOutcome outcome = Insert(100);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.wait.kind, CommitWait::Kind::kNone);
}

TEST_F(IsolatedEngineTest, StandbyAnalyticsLagUntilReplay) {
  Load(ReplicationMode::kSyncShip);
  ASSERT_TRUE(Insert(100).status.ok());
  EXPECT_EQ(engine_->ReplicationLag(), 1u);

  // Before replay: standby analytics do not see the insert.
  WorkMeter meter;
  AnalyticsSession stale = engine_->BeginAnalytics(&meter);
  ScanSpec spec;
  spec.table = "items";
  spec.projection = {0};
  {
    OperatorPtr scan = stale.source->Scan(spec);
    ExecContext ctx{&meter};
    scan->Open(&ctx);
    Row row;
    size_t rows = 0;
    while (scan->Next(&ctx, &row)) ++rows;
    EXPECT_EQ(rows, 50u);
  }

  ASSERT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_EQ(engine_->ReplicationLag(), 0u);
  AnalyticsSession fresh = engine_->BeginAnalytics(&meter);
  OperatorPtr scan = fresh.source->Scan(spec);
  ExecContext ctx{&meter};
  scan->Open(&ctx);
  Row row;
  size_t rows = 0;
  while (scan->Next(&ctx, &row)) ++rows;
  EXPECT_EQ(rows, 51u);
}

TEST_F(IsolatedEngineTest, ReadOnlyTxnHasNoReplicationWait) {
  Load(ReplicationMode::kRemoteApply);
  WorkMeter meter;
  TxnOutcome outcome = engine_->ExecuteTransaction(
      [](TxnContext* txn, WorkMeter* m) {
        Row row;
        return txn->Read(0, 0, &row, m);
      },
      1, 1, &meter);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.wait.kind, CommitWait::Kind::kNone);
}

TEST_F(IsolatedEngineTest, MultiReplicaRoundRobinAndConvergence) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  config.num_replicas = 3;
  engine_ = std::make_unique<IsolatedEngine>(config);
  ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
  ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
  ASSERT_TRUE(engine_->FinishLoad().ok());
  ASSERT_TRUE(Insert(100).status.ok());

  // One record shipped to each standby; lag reported as the max.
  EXPECT_EQ(engine_->ReplicationLag(), 1u);
  WorkMeter meter;
  // Draining requires one apply per standby.
  EXPECT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_EQ(engine_->ReplicationLag(), 1u);  // one standby still behind
  EXPECT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_EQ(engine_->ReplicationLag(), 0u);
  EXPECT_FALSE(engine_->MaintenanceStep(&meter));

  // All standbys converged: three consecutive sessions (round-robin hits
  // each standby once) all see the insert.
  for (int i = 0; i < 3; ++i) {
    AnalyticsSession session = engine_->BeginAnalytics(&meter);
    ScanSpec spec;
    spec.table = "items";
    spec.projection = {0};
    OperatorPtr scan = session.source->Scan(spec);
    ExecContext ctx{&meter};
    scan->Open(&ctx);
    Row row;
    size_t rows = 0;
    while (scan->Next(&ctx, &row)) ++rows;
    EXPECT_EQ(rows, 51u) << "standby " << i;
  }
}

TEST_F(IsolatedEngineTest, MultiReplicaRemoteApplyWaitsForAll) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kRemoteApply;
  config.num_replicas = 2;
  engine_ = std::make_unique<IsolatedEngine>(config);
  ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
  ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
  ASSERT_TRUE(engine_->FinishLoad().ok());
  const TxnOutcome outcome = Insert(200);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.wait.kind, CommitWait::Kind::kReplicaApplied);
  WorkMeter meter;
  ASSERT_TRUE(engine_->MaintenanceStep(&meter));  // first standby only
  EXPECT_FALSE(engine_->IsApplied(outcome.lsn));
  ASSERT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_TRUE(engine_->IsApplied(outcome.lsn));
}

TEST_F(IsolatedEngineTest, MultiReplicaReset) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  config.num_replicas = 2;
  engine_ = std::make_unique<IsolatedEngine>(config);
  ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
  ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
  ASSERT_TRUE(engine_->FinishLoad().ok());
  ASSERT_TRUE(Insert(300).status.ok());
  ASSERT_TRUE(engine_->Reset().ok());
  EXPECT_EQ(engine_->ReplicationLag(), 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(engine_->replica(i)->catalog()->GetTable("items")->NumSlots(),
              50u);
  }
  // Works again after reset.
  EXPECT_TRUE(Insert(301).status.ok());
}

class HybridEngineTest : public ::testing::Test {
 protected:
  // These tests assert the eager merge-before-read protocol itself, so
  // the mode is named even though it is the default.
  void SetUp() override {
    HybridEngineConfig config;
    config.merge_mode = MergeMode::kEager;
    engine_ = std::make_unique<HybridEngine>(config);
    ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
    ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
    ASSERT_TRUE(engine_->FinishLoad().ok());
  }

  std::unique_ptr<HybridEngine> engine_;
};

TEST_F(HybridEngineTest, CommitsQueueAsDelta) {
  WorkMeter meter;
  ASSERT_TRUE(engine_
                  ->ExecuteTransaction(
                      [](TxnContext* txn, WorkMeter*) {
                        txn->BufferInsert(0,
                                         Row{int64_t{99},
                                             std::string("d"),
                                             int64_t{1}});
                        return Status::OK();
                      },
                      1, 1, &meter)
                  .status.ok());
  EXPECT_EQ(engine_->PendingDelta(), 1u);
  // Opening analytics merges the delta ("merge the tail before query").
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  EXPECT_EQ(engine_->PendingDelta(), 0u);
  EXPECT_GT(meter.merged_rows, 0u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 51u);
}

TEST_F(HybridEngineTest, MergeAppliesUpdatesInPlace) {
  WorkMeter meter;
  ASSERT_TRUE(engine_
                  ->ExecuteTransaction(
                      [](TxnContext* txn, WorkMeter* m) {
                        Row row;
                        HATTRICK_RETURN_IF_ERROR(
                            txn->Read(0, 7, &row, m));
                        Row updated = row;
                        updated[2] = Value(int64_t{777});
                        txn->BufferUpdate(0, 7, row,
                                         std::move(updated));
                        return Status::OK();
                      },
                      1, 1, &meter)
                  .status.ok());
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  EXPECT_EQ(engine_->column_table("items")->GetInt(2, 7), 777);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 50u);
}

TEST_F(HybridEngineTest, SystemXAndTidbConfigs) {
  EXPECT_EQ(SystemXConfig().isolation, IsolationLevel::kSerializable);
  EXPECT_EQ(TidbConfig().isolation, IsolationLevel::kSnapshot);
  EXPECT_EQ(SystemXConfig().name, "System-X");
  EXPECT_EQ(TidbConfig().name, "TiDB");
}

TEST_F(HybridEngineTest, ResetClearsDeltaAndColumnGrowth) {
  WorkMeter meter;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine_
                    ->ExecuteTransaction(
                        [i](TxnContext* txn, WorkMeter*) {
                          txn->BufferInsert(0,
                              Row{int64_t{100 + i}, std::string("d"),
                                  int64_t{1}});
                          return Status::OK();
                        },
                        1, 1, &meter)
                    .status.ok());
  }
  AnalyticsSession session = engine_->BeginAnalytics(&meter);  // merge
  session.guard.reset();
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 55u);
  ASSERT_TRUE(engine_->Reset().ok());
  EXPECT_EQ(engine_->PendingDelta(), 0u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 50u);
}

// --------------------------------------------------------------------------
// Bitmap merge mode: CSN-stamped versions instead of merge-before-read.
// --------------------------------------------------------------------------

class HybridBitmapEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HybridEngineConfig config;
    config.merge_mode = MergeMode::kBitmap;
    config.fold_watermark = 4;
    engine_ = std::make_unique<HybridEngine>(config);
    ASSERT_TRUE(engine_->Create(SmallSpec()).ok());
    ASSERT_TRUE(engine_->BulkLoad("items", SeedRows()).ok());
    ASSERT_TRUE(engine_->FinishLoad().ok());
  }

  TxnOutcome InsertItem(int64_t id) {
    WorkMeter meter;
    return engine_->ExecuteTransaction(
        [id](TxnContext* txn, WorkMeter*) {
          txn->BufferInsert(0,
                           Row{id, std::string("new"), int64_t{1}});
          return Status::OK();
        },
        1, 1, &meter);
  }

  TxnOutcome SetQty(Rid rid, int64_t qty) {
    WorkMeter meter;
    return engine_->ExecuteTransaction(
        [rid, qty](TxnContext* txn, WorkMeter* m) -> Status {
          Row row;
          HATTRICK_RETURN_IF_ERROR(txn->Read(0, rid, &row, m));
          Row updated = row;
          updated[2] = Value(qty);
          txn->BufferUpdate(0, rid, row, std::move(updated));
          return Status::OK();
        },
        1, 1, &meter);
  }

  /// Scans qty over an open session; rows seen and the qty sum.
  std::pair<size_t, int64_t> ScanQty(const AnalyticsSession& session,
                                     WorkMeter* meter) {
    ScanSpec spec;
    spec.table = "items";
    spec.projection = {2};
    OperatorPtr scan = session.source->Scan(spec);
    ExecContext ctx{meter};
    scan->Open(&ctx);
    Row row;
    size_t rows = 0;
    int64_t sum = 0;
    while (scan->Next(&ctx, &row)) {
      ++rows;
      sum += row[0].AsInt();
    }
    return {rows, sum};
  }

  std::unique_ptr<HybridEngine> engine_;
};

TEST_F(HybridBitmapEngineTest, CommitVisibleWithoutFold) {
  ASSERT_TRUE(InsertItem(99).status.ok());
  EXPECT_EQ(engine_->PendingDelta(), 1u);
  WorkMeter meter;
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  // No merge happened — the base is untouched and the version pending —
  // yet the scan reads the committed insert through the snapshot.
  EXPECT_EQ(engine_->PendingDelta(), 1u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 50u);
  const auto [rows, sum] = ScanQty(session, &meter);
  EXPECT_EQ(rows, 51u);
  EXPECT_EQ(sum, 501);
  EXPECT_GT(meter.version_hops, 0u);
  EXPECT_EQ(meter.merged_rows, 0u);
}

TEST_F(HybridBitmapEngineTest, UpdateVisibleThroughOverride) {
  ASSERT_TRUE(SetQty(7, 777).status.ok());
  WorkMeter meter;
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  // The base cell still holds the stale value; the session reads the
  // override.
  EXPECT_EQ(engine_->column_table("items")->GetInt(2, 7), 10);
  const auto [rows, sum] = ScanQty(session, &meter);
  EXPECT_EQ(rows, 50u);
  EXPECT_EQ(sum, 500 - 10 + 777);
}

TEST_F(HybridBitmapEngineTest, WatermarkTriggersBackgroundFold) {
  WorkMeter meter;
  ASSERT_TRUE(InsertItem(100).status.ok());
  // Below the watermark: nothing for the maintenance pump to do.
  EXPECT_EQ(engine_->MaintenancePending(), 0u);
  EXPECT_FALSE(engine_->MaintenanceStep(&meter));
  for (int i = 1; i < 4; ++i) {
    ASSERT_TRUE(InsertItem(100 + i).status.ok());
  }
  EXPECT_GE(engine_->MaintenancePending(), 4u);
  EXPECT_TRUE(engine_->MaintenanceStep(&meter));
  EXPECT_GT(meter.merged_rows, 0u);
  EXPECT_EQ(engine_->PendingDelta(), 0u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 54u);
}

TEST_F(HybridBitmapEngineTest, FoldAllAppliesVersionsToBase) {
  ASSERT_TRUE(SetQty(3, 42).status.ok());
  ASSERT_TRUE(InsertItem(200).status.ok());
  WorkMeter meter;
  engine_->FoldAll(&meter);
  EXPECT_EQ(engine_->PendingDelta(), 0u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 51u);
  EXPECT_EQ(engine_->column_table("items")->GetInt(2, 3), 42);
}

TEST_F(HybridBitmapEngineTest, SessionSnapshotIgnoresLaterCommits) {
  ASSERT_TRUE(InsertItem(300).status.ok());
  WorkMeter meter;
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  // Commits after the snapshot CSN — including updates to a row the
  // snapshot already overrides — must not change what the session sees,
  // even on repeated scans.
  ASSERT_TRUE(InsertItem(301).status.ok());
  ASSERT_TRUE(SetQty(5, 999).status.ok());
  const auto first = ScanQty(session, &meter);
  EXPECT_EQ(first.first, 51u);
  EXPECT_EQ(first.second, 501);
  const auto again = ScanQty(session, &meter);
  EXPECT_EQ(again.first, first.first);
  EXPECT_EQ(again.second, first.second);
}

TEST_F(HybridBitmapEngineTest, ResetClearsVersions) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(InsertItem(400 + i).status.ok());
  }
  EXPECT_EQ(engine_->PendingDelta(), 3u);
  ASSERT_TRUE(engine_->Reset().ok());
  EXPECT_EQ(engine_->PendingDelta(), 0u);
  EXPECT_EQ(engine_->column_table("items")->num_rows(), 50u);
  WorkMeter meter;
  AnalyticsSession session = engine_->BeginAnalytics(&meter);
  const auto [rows, sum] = ScanQty(session, &meter);
  EXPECT_EQ(rows, 50u);
  EXPECT_EQ(sum, 500);
}

}  // namespace
}  // namespace hattrick
