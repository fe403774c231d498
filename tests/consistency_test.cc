// Cross-representation consistency properties: after a random committed
// HATtrick workload, every engine's analytical view must agree with its
// transactional row store — the hybrid's column copy, the isolated
// engine's drained standby, and vacuumed stores must all answer queries
// identically. Also covers engine-level Vacuum(), quiesced and under
// load, and a randomized concurrency stress: T-client threads mutate
// while dop=4 analytics run, and every analytical snapshot must be
// transactionally consistent (no torn FRESHNESS reads, exact
// S_YTD/HISTORY balance).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "exec/expression.h"
#include "exec/operator.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

DatagenConfig SmallConfig(uint64_t seed) {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1500;
  config.seed = seed;
  config.num_freshness_tables = 4;
  return config;
}

/// Runs `n` random HATtrick transactions against `engine`.
void RunRandomWorkload(HtapEngine* engine, WorkloadContext* context,
                       uint64_t seed, int n) {
  const EngineHandles handles =
      EngineHandles::Resolve(*engine->primary_catalog(), 4);
  Rng rng(seed);
  uint64_t txn_num = 0;
  for (int i = 0; i < n; ++i) {
    const TxnParams params = GenerateTxnParams(context, &rng);
    ++txn_num;
    WorkMeter meter;
    const TxnOutcome outcome = engine->ExecuteTransaction(
        MakeTxnBody(params, handles, /*client=*/1 + (i % 4), txn_num),
        1 + (i % 4), txn_num, &meter);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
}

/// Checksums of all 13 queries through the engine's analytical path
/// (maintenance drained first).
std::vector<double> AllQueryChecksums(HtapEngine* engine) {
  WorkMeter meter;
  while (engine->MaintenanceStep(&meter)) {
  }
  std::vector<double> checksums;
  for (int qid = 0; qid < kNumQueries; ++qid) {
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    checksums.push_back(RunQuery(qid, *session.source, 4, &ctx).checksum);
  }
  return checksums;
}

class ConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

// The hybrid cases run under both merge modes: eager merges the delta into
// the column copy, bitmap serves it as pending versions.
class HybridConsistencyTest
    : public ::testing::TestWithParam<SeedAndMergeMode> {
 protected:
  static uint64_t Seed() { return std::get<0>(GetParam()); }
  static HybridEngineConfig Config() {
    return WithMergeMode({}, std::get<1>(GetParam()));
  }
};

TEST_P(HybridConsistencyTest, HybridColumnCopyMatchesRowStore) {
  const Dataset dataset = GenerateDataset(SmallConfig(Seed()));
  HybridEngine engine(Config());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, Seed() * 13, 300);

  WorkMeter meter;
  // Force full visibility into the columnar base: merges the delta
  // queue in eager mode, folds every version in bitmap mode.
  engine.FoldAll(&meter);

  // Every table: the column copy equals the newest row-store contents.
  Catalog* catalog = engine.primary_catalog();
  for (TableId id = 0; id < catalog->num_tables(); ++id) {
    RowTable* rows = catalog->GetTable(id);
    const ColumnTable* columns =
        engine.column_table(catalog->table_name(id));
    ASSERT_EQ(rows->NumSlots(), columns->num_rows())
        << catalog->table_name(id);
    for (Rid rid = 0; rid < rows->NumSlots(); rid += 7) {
      Row row_version;
      ASSERT_TRUE(rows->ReadLatest(rid, &row_version, nullptr));
      EXPECT_EQ(row_version, columns->GetRow(rid))
          << catalog->table_name(id) << " rid " << rid;
    }
  }
}

TEST_P(ConsistencyTest, IsolatedStandbyConvergesToPrimary) {
  const Dataset dataset = GenerateDataset(SmallConfig(GetParam()));
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, GetParam() * 17, 300);

  WorkMeter meter;
  while (engine.MaintenanceStep(&meter)) {
  }
  EXPECT_EQ(engine.ReplicationLag(), 0u);

  Catalog* primary = engine.primary_catalog();
  Catalog* standby = engine.replica()->catalog();
  for (TableId id = 0; id < primary->num_tables(); ++id) {
    RowTable* p = primary->GetTable(id);
    RowTable* s = standby->GetTable(id);
    ASSERT_EQ(p->NumSlots(), s->NumSlots()) << primary->table_name(id);
    for (Rid rid = 0; rid < p->NumSlots(); rid += 5) {
      Row pr;
      Row sr;
      ASSERT_TRUE(p->ReadLatest(rid, &pr, nullptr));
      ASSERT_TRUE(s->ReadLatest(rid, &sr, nullptr));
      EXPECT_EQ(pr, sr) << primary->table_name(id) << " rid " << rid;
    }
  }
}

TEST_P(HybridConsistencyTest, SharedAndHybridAgreeOnAllQueries) {
  const Dataset dataset = GenerateDataset(SmallConfig(Seed()));
  SharedEngine shared;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &shared).ok());
  HybridEngine hybrid(Config());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &hybrid).ok());

  // Identical committed histories on both engines.
  WorkloadContext shared_context(dataset);
  WorkloadContext hybrid_context(dataset);
  RunRandomWorkload(&shared, &shared_context, Seed() * 19, 200);
  RunRandomWorkload(&hybrid, &hybrid_context, Seed() * 19, 200);

  const std::vector<double> a = AllQueryChecksums(&shared);
  const std::vector<double> b = AllQueryChecksums(&hybrid);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_NEAR(a[qid], b[qid], std::abs(a[qid]) * 1e-9 + 1e-6)
        << QueryName(qid);
  }
}

TEST_P(ConsistencyTest, VacuumPreservesQueryResults) {
  const Dataset dataset = GenerateDataset(SmallConfig(GetParam()));
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, GetParam() * 23, 400);

  const std::vector<double> before = AllQueryChecksums(&engine);
  // Updates (payments, freshness bumps) must have produced garbage.
  const size_t dropped = engine.Vacuum();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(engine.Vacuum(), 0u);  // idempotent once clean
  const std::vector<double> after = AllQueryChecksums(&engine);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_DOUBLE_EQ(before[qid], after[qid]) << QueryName(qid);
  }
  // Transactions still work post-vacuum.
  RunRandomWorkload(&engine, &context, GetParam() * 29, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyTest,
                         ::testing::Values(1001, 2002, 3003));

// ---------------------------------------------------------------------------
// Randomized concurrency stress: writers mutate while dop=4 analytics run.
// ---------------------------------------------------------------------------

/// SUM(column) over `table` through the analytical source, in exact
/// fixed-point units (SUMs accumulate in DECIMAL(.,4) fixed point, so the
/// quantized value is an exact function of the snapshot's row set).
int64_t SumFixed(const DataSource& source, const std::string& table,
                 size_t column) {
  ScanSpec spec;
  spec.table = table;
  spec.projection = {column};
  OperatorPtr plan =
      MakeHashAggregate(source.Scan(spec), {},
                        {AggSpec{AggSpec::Kind::kSum, Col(0)}});
  WorkMeter meter;
  ExecContext ctx{&meter};
  const std::vector<Row> rows = Collect(plan.get(), &ctx);
  EXPECT_EQ(rows.size(), 1u) << table;
  return QuantizeSumValue(rows.at(0).at(0).AsDouble());
}

/// Reads FRESHNESS_client through the analytical source. A torn read
/// would show up as a missing row or a value never written.
int64_t FreshnessValue(const DataSource& source, uint32_t client) {
  ScanSpec spec;
  spec.table = FreshnessTableName(client);
  spec.projection = {fresh::kTxnNum};
  WorkMeter meter;
  ExecContext ctx{&meter};
  OperatorPtr plan = source.Scan(spec);
  const std::vector<Row> rows = Collect(plan.get(), &ctx);
  EXPECT_EQ(rows.size(), 1u) << spec.table;
  return rows.empty() ? -1 : rows.at(0).at(0).AsInt();
}

/// The randomized stress harness (ISSUE satellite): `kClients` writer
/// threads each run `kTxnsPerClient` random HATtrick transactions while
/// the main thread repeatedly opens analytical sessions and, on every
/// snapshot, asserts
///   (a) SUM(S_YTD) - SUM(HISTORY.amount) stays at its initial value —
///       Payment updates both atomically, so any imbalance is a torn
///       snapshot (exact fixed-point arithmetic, no tolerance);
///   (b) each FRESHNESS_j value is monotone across snapshots and never
///       exceeds what client j has issued — a torn or time-travelling
///       freshness read fails the bounds;
///   (c) a dop=4 dynamic-morsel SSB query returns bit-identical rows to
///       the serial plan on the same snapshot, with worker threads racing
///       the writers.
void StressParallelSnapshots(HtapEngine* engine, const Dataset& dataset,
                             uint64_t seed) {
  WorkloadContext context(dataset);
  const EngineHandles handles =
      EngineHandles::Resolve(*engine->primary_catalog(), 4);

  WorkMeter meter;
  int64_t base_balance;
  {
    AnalyticsSession s0 = engine->BeginAnalytics(&meter);
    base_balance = SumFixed(*s0.source, kSupplier, supp::kYtd) -
                   SumFixed(*s0.source, kHistory, hist::kAmount);
  }

  constexpr int kClients = 4;
  constexpr uint64_t kTxnsPerClient = 150;
  std::atomic<int> running{kClients};
  std::atomic<int> failures{0};
  std::array<std::atomic<uint64_t>, kClients> issued{};
  std::vector<std::thread> writers;
  writers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    writers.emplace_back([&, c] {
      Rng rng(seed * 101 + static_cast<uint64_t>(c));
      for (uint64_t txn_num = 1; txn_num <= kTxnsPerClient; ++txn_num) {
        const TxnParams params = GenerateTxnParams(&context, &rng);
        issued[c].store(txn_num, std::memory_order_release);
        WorkMeter m;
        const TxnOutcome outcome = engine->ExecuteTransaction(
            MakeTxnBody(params, handles, static_cast<uint32_t>(c) + 1,
                        txn_num),
            static_cast<uint32_t>(c) + 1, txn_num, &m);
        if (!outcome.status.ok()) failures.fetch_add(1);
      }
      running.fetch_sub(1);
    });
  }

  std::array<int64_t, kClients> last_fresh{};
  int qid = 0;
  int iterations = 0;
  // Keep snapshotting while the writers run, plus a few quiescent rounds.
  while (running.load() > 0 || iterations < 3) {
    AnalyticsSession session = engine->BeginAnalytics(&meter);

    const int64_t ytd = SumFixed(*session.source, kSupplier, supp::kYtd);
    const int64_t hist = SumFixed(*session.source, kHistory, hist::kAmount);
    EXPECT_EQ(ytd - hist, base_balance)
        << "torn snapshot: supplier YTD and payment history disagree";

    for (int c = 0; c < kClients; ++c) {
      const int64_t seen =
          FreshnessValue(*session.source, static_cast<uint32_t>(c) + 1);
      // `issued` is loaded after the snapshot was taken, so it bounds
      // every transaction the snapshot could possibly contain.
      const int64_t hi = static_cast<int64_t>(
          issued[c].load(std::memory_order_acquire));
      EXPECT_GE(seen, last_fresh[c]) << "freshness went backwards";
      EXPECT_LE(seen, hi) << "freshness read a value never committed";
      last_fresh[c] = seen;
    }

    ExecContext serial_ctx{&meter};
    OperatorPtr serial_plan = BuildQueryPlan(qid, *session.source);
    const std::vector<Row> serial = Collect(serial_plan.get(), &serial_ctx);
    ExecContext par_ctx{&meter};
    par_ctx.dop = 4;
    par_ctx.dynamic_morsels = true;
    par_ctx.session_pin = session.guard;
    OperatorPtr par_plan = BuildParallelQueryPlan(qid, *session.source,
                                                 /*dop=*/4,
                                                 /*dynamic_morsels=*/true);
    const std::vector<Row> parallel = Collect(par_plan.get(), &par_ctx);
    EXPECT_EQ(serial, parallel) << QueryName(qid) << " under writers";

    qid = (qid + 1) % kNumQueries;
    ++iterations;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: all committed work must be visible exactly once.
  AnalyticsSession fin = engine->BeginAnalytics(&meter);
  EXPECT_EQ(SumFixed(*fin.source, kSupplier, supp::kYtd) -
                SumFixed(*fin.source, kHistory, hist::kAmount),
            base_balance);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(FreshnessValue(*fin.source, static_cast<uint32_t>(c) + 1),
              static_cast<int64_t>(kTxnsPerClient));
  }
}

/// ~15k lineorders: enough extent for several morsels per dop=4 worker.
DatagenConfig StressConfig(uint64_t seed) {
  DatagenConfig config = SmallConfig(seed);
  config.scale_factor = 10.0;
  return config;
}

TEST_P(HybridConsistencyTest,
       HybridSnapshotsConsistentUnderConcurrentWriters) {
  const Dataset dataset = GenerateDataset(StressConfig(Seed()));
  HybridEngine engine(Config());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  StressParallelSnapshots(&engine, dataset, Seed() * 7);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HybridConsistencyTest,
    ::testing::Combine(::testing::Values(1001, 2002, 3003),
                       ::testing::ValuesIn(kMergeModes)),
    SeedAndMergeModeName);

TEST_P(ConsistencyTest, HybridBitmapSnapshotsConsistentUnderBackgroundFold) {
  // Bitmap merge mode under maximum contention: writer threads append
  // versions, analytics snapshot and scan through visibility bitmaps,
  // and a background thread (the threaded driver's applier, replicated
  // here) keeps folding versions into the base — the GC whose
  // reallocations the session pins must fence off.
  const Dataset dataset = GenerateDataset(StressConfig(GetParam()));
  HybridEngineConfig config;
  config.merge_mode = MergeMode::kBitmap;
  config.fold_watermark = 256;  // low enough for many folds per run
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());

  std::atomic<bool> stop{false};
  std::thread folder([&] {
    WorkMeter m;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!engine.MaintenanceStep(&m)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  StressParallelSnapshots(&engine, dataset, GetParam() * 7);
  stop.store(true);
  folder.join();

  // Fully folded, the columnar base must equal the row store exactly.
  WorkMeter meter;
  engine.FoldAll(&meter);
  EXPECT_EQ(engine.PendingDelta(), 0u);
  Catalog* catalog = engine.primary_catalog();
  for (TableId id = 0; id < catalog->num_tables(); ++id) {
    RowTable* rows = catalog->GetTable(id);
    const ColumnTable* columns =
        engine.column_table(catalog->table_name(id));
    ASSERT_EQ(rows->NumSlots(), columns->num_rows())
        << catalog->table_name(id);
    for (Rid rid = 0; rid < rows->NumSlots(); rid += 11) {
      Row row_version;
      ASSERT_TRUE(rows->ReadLatest(rid, &row_version, nullptr));
      EXPECT_EQ(row_version, columns->GetRow(rid))
          << catalog->table_name(id) << " rid " << rid;
    }
  }
}

TEST_P(ConsistencyTest, SharedSnapshotsConsistentUnderConcurrentWriters) {
  const Dataset dataset = GenerateDataset(StressConfig(GetParam()));
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  StressParallelSnapshots(&engine, dataset, GetParam() * 11);
}

// ---------------------------------------------------------------------------
// Vacuum under load: engine-level Vacuum() reclaims the primary's and the
// standby's chains under each table's exclusive latch while T-clients
// commit, the applier replays and an A-client scans.
// ---------------------------------------------------------------------------

/// A committed transaction of the concurrent run, replayable on a twin.
struct CommittedTxn {
  Ts commit_ts = 0;
  uint32_t client = 0;
  uint64_t txn_num = 0;
  TxnParams params;
};

TEST_P(ConsistencyTest, IsolatedVacuumUnderLoadMatchesUnvacuumedTwin) {
  const Dataset dataset = GenerateDataset(SmallConfig(GetParam()));
  IsolatedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  const EngineHandles handles =
      EngineHandles::Resolve(*engine.primary_catalog(), 4);

  WorkMeter meter;
  int64_t base_balance;
  {
    AnalyticsSession s0 = engine.BeginAnalytics(&meter);
    base_balance = SumFixed(*s0.source, kSupplier, supp::kYtd) -
                   SumFixed(*s0.source, kHistory, hist::kAmount);
  }

  constexpr int kClients = 3;
  constexpr uint64_t kTxnsPerClient = 80;
  std::atomic<int> running{kClients};
  // T-clients start once the vacuum loop and the A-client run.
  std::atomic<int> started{0};
  std::atomic<int> failures{0};
  std::array<std::vector<CommittedTxn>, kClients> history;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const uint32_t client = static_cast<uint32_t>(c) + 1;
      Rng rng(GetParam() * 31 + static_cast<uint64_t>(c));
      while (started.load() < 2) std::this_thread::yield();
      for (uint64_t txn_num = 1; txn_num <= kTxnsPerClient; ++txn_num) {
        const TxnParams params = GenerateTxnParams(&context, &rng);
        WorkMeter m;
        const TxnOutcome outcome = engine.ExecuteTransaction(
            MakeTxnBody(params, handles, client, txn_num), client, txn_num,
            &m);
        if (!outcome.status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        history[c].push_back({outcome.commit_ts, client, txn_num, params});
      }
      running.fetch_sub(1);
    });
  }
  // The applier: replays the primary's WAL into the standby.
  threads.emplace_back([&] {
    WorkMeter m;
    while (running.load() > 0) {
      if (!engine.MaintenanceStep(&m)) std::this_thread::yield();
    }
  });
  // Vacuum, over and over, on both the primary and the standby.
  std::atomic<size_t> vacuumed{0};
  threads.emplace_back([&] {
    started.fetch_add(1);
    do {
      vacuumed.fetch_add(engine.Vacuum());
      std::this_thread::yield();
    } while (running.load() > 0);
  });
  // The A-client. It reads only rows that never get a second full
  // version (SSB tables and HISTORY; Payments add deltas), so a Vacuum
  // horizon past its snapshot leaves everything it reaches in place;
  // the FRESHNESS rows, rewritten by every transaction, are what Vacuum
  // reclaims.
  int qid = 0;
  started.fetch_add(1);
  do {
    AnalyticsSession session = engine.BeginAnalytics(&meter);
    EXPECT_EQ(SumFixed(*session.source, kSupplier, supp::kYtd) -
                  SumFixed(*session.source, kHistory, hist::kAmount),
              base_balance)
        << "torn snapshot under Vacuum";
    ExecContext ctx{&meter};
    RunQuery(qid, *session.source, 4, &ctx);
    qid = (qid + 1) % kNumQueries;
  } while (running.load() > 0);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: drain the standby, reclaim the rest, reconcile.
  while (engine.MaintenanceStep(&meter)) {
  }
  vacuumed.fetch_add(engine.Vacuum());
  EXPECT_GT(vacuumed.load(), 0u);
  EXPECT_EQ(engine.Vacuum(), 0u);  // idempotent once clean
  {
    AnalyticsSession fin = engine.BeginAnalytics(&meter);
    EXPECT_EQ(SumFixed(*fin.source, kSupplier, supp::kYtd) -
                  SumFixed(*fin.source, kHistory, hist::kAmount),
              base_balance);
  }

  // The twin replays the same committed transactions in commit order and
  // never vacuums; every query must answer bit for bit the same.
  std::vector<CommittedTxn> order;
  for (const std::vector<CommittedTxn>& h : history) {
    order.insert(order.end(), h.begin(), h.end());
  }
  std::sort(order.begin(), order.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              return a.commit_ts < b.commit_ts;
            });
  IsolatedEngine twin;
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kAllIndexes, &twin).ok());
  const EngineHandles twin_handles =
      EngineHandles::Resolve(*twin.primary_catalog(), 4);
  for (const CommittedTxn& txn : order) {
    WorkMeter m;
    const TxnOutcome outcome = twin.ExecuteTransaction(
        MakeTxnBody(txn.params, twin_handles, txn.client, txn.txn_num),
        txn.client, txn.txn_num, &m);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  const std::vector<double> vacuumed_answers = AllQueryChecksums(&engine);
  const std::vector<double> twin_answers = AllQueryChecksums(&twin);
  for (int q = 0; q < kNumQueries; ++q) {
    EXPECT_EQ(vacuumed_answers[q], twin_answers[q]) << QueryName(q);
  }
}

}  // namespace
}  // namespace hattrick
