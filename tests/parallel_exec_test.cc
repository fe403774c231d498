// Golden equivalence suite for morsel-driven parallel execution: the 13
// SSB queries must return BIT-IDENTICAL results at dop=1 and dop=4 on
// every engine (row-store, replicated row-store, columnar), under both
// morsel schedules. Also covers MorselSet partitioning, the session-pin
// guard lifetime across worker threads, and determinism of the
// simulator's multi-core charging.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/session_pin.h"
#include "engine/shared_engine.h"
#include "exec/morsel.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "shard/shard_router.h"
#include "shard/sharded_engine.h"
#include "sim/core_pool.h"
#include "sim/simulation.h"
#include "storage/column_table.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

// Note the fixed dataset seed: how many of the selective SSB queries
// find matching dimension rows is a property of the generated dimension
// attributes, so the dataset stays pinned while the test parameter seeds
// the randomized mutation workload run on top of it.
DatagenConfig SmallConfig(uint64_t seed = 501) {
  DatagenConfig config;
  // SF10 at 6000 rows/SF: ~60k lineorders (several morsels per worker at
  // dop=4) and dimension tables rich enough (20 suppliers / 300 customers
  // / 8000 parts) that 11 of the 13 SSB queries return non-empty groups —
  // dimension cardinalities scale with scale_factor * lineorders_per_sf,
  // so SF1 would leave only 2 suppliers and every join query empty.
  config.scale_factor = 10.0;
  config.lineorders_per_sf = 6000;
  config.seed = seed;
  config.num_freshness_tables = 4;
  return config;
}

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

/// Runs query `qid` at the given dop within one analytical session and
/// returns the full result rows (sorted group order, so EXPECT_EQ on the
/// vectors is a bit-identity check including every double).
std::vector<Row> RunAt(const DataSource& source, int qid, int dop,
                       bool dynamic_morsels) {
  OperatorPtr plan =
      dop > 1 ? BuildParallelQueryPlan(qid, source, dop, dynamic_morsels)
              : BuildQueryPlan(qid, source);
  WorkMeter meter;
  ExecContext ctx{&meter};
  ctx.dop = dop;
  ctx.dynamic_morsels = dynamic_morsels;
  return Collect(plan.get(), &ctx);
}

/// The headline assertion: on one snapshot, all 13 queries agree exactly
/// between dop=1, dop=4/static and dop=4/dynamic.
void ExpectDopEquivalence(const DataSource& source) {
  int non_empty = 0;
  for (int qid = 0; qid < kNumQueries; ++qid) {
    const std::vector<Row> serial = RunAt(source, qid, 1, false);
    const std::vector<Row> par_static = RunAt(source, qid, 4, false);
    const std::vector<Row> par_dynamic = RunAt(source, qid, 4, true);
    EXPECT_EQ(serial, par_static) << QueryName(qid) << " static morsels";
    EXPECT_EQ(serial, par_dynamic) << QueryName(qid) << " dynamic morsels";
    if (!serial.empty()) ++non_empty;
  }
  // The most selective queries (city-level Q3.3/Q3.4) may find nothing on
  // the small test dataset, but the suite must not silently compare
  // all-empty results (9-11 of 13 are non-empty across the test seeds).
  EXPECT_GE(non_empty, 9);
}

/// Runs query `qid` in an explicit execution mode: `vectorized` selects
/// batch vs row-at-a-time (oracle) execution, `batch_rows` the vector
/// width. Work charges land in `meter`.
std::vector<Row> RunMode(const DataSource& source, int qid, int dop,
                         bool vectorized, size_t batch_rows,
                         WorkMeter* meter) {
  OperatorPtr plan =
      dop > 1
          ? BuildParallelQueryPlan(qid, source, dop, /*dynamic_morsels=*/false)
          : BuildQueryPlan(qid, source);
  ExecContext ctx{meter};
  ctx.dop = dop;
  ctx.vectorized = vectorized;
  ctx.batch_rows = batch_rows;
  return Collect(plan.get(), &ctx);
}

/// The vectorization invariant at engine level: on one snapshot, every
/// query returns bit-identical rows AND charges a bit-identical WorkMeter
/// in batch mode — at any batch size, degenerate 1 included — as the
/// row-at-a-time oracle, both serial and at dop=4 (worker meters merge in
/// shard order, so parallel totals are schedule-independent too).
/// Then scans every column of every table of `catalog` through `source`
/// the same way: unlike the queries, these scans read the columns that
/// transactions update (balances, freshness counters), so a batch run
/// that reads a base row in place of its pending version shows up.
/// Returns the oracle's serial work over all 13 queries, so a caller can
/// check which access paths its source reached.
WorkMeter ExpectBatchMatchesRowOracle(const DataSource& source,
                                      const Catalog& catalog) {
  WorkMeter serial_work;
  for (const int dop : {1, 4}) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      WorkMeter oracle_meter;
      const std::vector<Row> oracle = RunMode(
          source, qid, dop, /*vectorized=*/false, 1, &oracle_meter);
      if (dop == 1) serial_work += oracle_meter;
      for (const size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
        SCOPED_TRACE(std::string(QueryName(qid)) + " dop=" +
                     std::to_string(dop) + " batch_rows=" +
                     std::to_string(batch_rows));
        WorkMeter meter;
        const std::vector<Row> got =
            RunMode(source, qid, dop, /*vectorized=*/true, batch_rows, &meter);
        EXPECT_EQ(oracle, got);
        EXPECT_EQ(oracle_meter.rows_read, meter.rows_read);
        EXPECT_EQ(oracle_meter.column_values, meter.column_values);
        EXPECT_EQ(oracle_meter.output_rows, meter.output_rows);
        EXPECT_EQ(oracle_meter.hash_probes, meter.hash_probes);
        EXPECT_EQ(oracle_meter.index_nodes, meter.index_nodes);
        EXPECT_EQ(oracle_meter.version_hops, meter.version_hops);
        EXPECT_EQ(oracle_meter.Total(), meter.Total());
      }
    }
  }
  for (TableId id = 0; id < catalog.num_tables(); ++id) {
    ScanSpec spec;
    spec.table = catalog.table_name(id);
    for (size_t c = 0; c < catalog.GetTable(id)->schema().num_columns();
         ++c) {
      spec.projection.push_back(c);
    }
    WorkMeter oracle_meter;
    ExecContext row_ctx{&oracle_meter};
    row_ctx.vectorized = false;
    OperatorPtr row_scan = source.Scan(spec);
    const std::vector<Row> oracle = Collect(row_scan.get(), &row_ctx);
    for (const size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE(spec.table + " batch_rows=" + std::to_string(batch_rows));
      WorkMeter meter;
      ExecContext ctx{&meter};
      ctx.batch_rows = batch_rows;
      OperatorPtr scan = source.Scan(spec);
      EXPECT_EQ(oracle, Collect(scan.get(), &ctx));
      EXPECT_EQ(oracle_meter.Total(), meter.Total());
    }
  }
  return serial_work;
}

class ParallelExecTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelExecTest, SharedEngineDopEquivalence) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, GetParam() * 31, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ExpectDopEquivalence(*session.source);
}

TEST_P(ParallelExecTest, IsolatedEngineDopEquivalence) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, GetParam() * 37, 200);

  WorkMeter meter;
  while (engine.MaintenanceStep(&meter)) {
  }
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ExpectDopEquivalence(*session.source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelExecTest,
                         ::testing::Values(501, 502, 503));

// The hybrid cases run under both merge modes: eager merges the delta
// before the scan, bitmap scans through the pending versions.
class HybridParallelExecTest
    : public ::testing::TestWithParam<SeedAndMergeMode> {
 protected:
  static uint64_t Seed() { return std::get<0>(GetParam()); }
  static HybridEngineConfig Config() {
    return WithMergeMode({}, std::get<1>(GetParam()));
  }
};

TEST_P(HybridParallelExecTest, HybridEngineDopEquivalence) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  HybridEngine engine(Config());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, Seed() * 41, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ExpectDopEquivalence(*session.source);
}

TEST_P(HybridParallelExecTest, RunQueryMatchesAcrossDop) {
  // End-to-end through RunQuery (checksum + freshness), the path the
  // drivers use.
  const Dataset dataset = GenerateDataset(SmallConfig(Seed()));
  HybridEngine engine(Config());
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, Seed() * 43, 150);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    ExecContext serial_ctx{&meter};
    const QueryResult serial = RunQuery(qid, *session.source, 4, &serial_ctx);
    ExecContext par_ctx{&meter};
    par_ctx.dop = 4;
    par_ctx.dynamic_morsels = true;
    par_ctx.session_pin = session.guard;
    const QueryResult parallel = RunQuery(qid, *session.source, 4, &par_ctx);
    EXPECT_EQ(serial.rows, parallel.rows) << QueryName(qid);
    EXPECT_EQ(serial.checksum, parallel.checksum) << QueryName(qid);
    EXPECT_EQ(serial.freshness, parallel.freshness) << QueryName(qid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HybridParallelExecTest,
    ::testing::Combine(::testing::Values(501, 502, 503),
                       ::testing::ValuesIn(kMergeModes)),
    SeedAndMergeModeName);

// ---------------------------------------------------------------------------
// Vectorized batch execution vs the row oracle, over every DataSource kind
// a query can reach: the row heap with index range scans (shared), the
// row heap of a standby (isolated), merged columns (hybrid, eager),
// columns with pending versions (hybrid, bitmap) and the sharded
// scatter/gather view. One seed per source: the sweep is 13 queries x 2
// dops x 3 batch sizes, so a single mutated snapshot per source keeps the
// suite's runtime bounded.
// ---------------------------------------------------------------------------

TEST(BatchExecEquivalenceTest, SharedEngineBatchMatchesRowOracle) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, 501 * 31, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  const WorkMeter work =
      ExpectBatchMatchesRowOracle(*session.source, *engine.primary_catalog());
  EXPECT_GT(work.index_nodes, 0u);  // some plan ran an index range scan
}

TEST(BatchExecEquivalenceTest, IsolatedEngineBatchMatchesRowOracle) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, 502 * 37, 200);

  WorkMeter meter;
  while (engine.MaintenanceStep(&meter)) {
  }
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ExpectBatchMatchesRowOracle(*session.source, *engine.primary_catalog());
}

TEST(BatchExecEquivalenceTest, HybridEngineBatchMatchesRowOracle) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  HybridEngine engine(WithMergeMode({}, MergeMode::kEager));
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, 503 * 41, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ASSERT_EQ(engine.PendingDelta(), 0u);  // merged before the scan
  ExpectBatchMatchesRowOracle(*session.source, *engine.primary_catalog());
}

TEST(BatchExecEquivalenceTest, HybridBitmapPendingVersionsMatchRowOracle) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  HybridEngine engine(WithMergeMode({}, MergeMode::kBitmap));
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, 504 * 41, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  // Nothing folded: the snapshot reads the committed versions through
  // its override and insert rows.
  ASSERT_GT(engine.PendingDelta(), 0u);
  ExpectBatchMatchesRowOracle(*session.source, *engine.primary_catalog());
}

TEST(BatchExecEquivalenceTest, ShardedScatterGatherMatchesRowOracle) {
  const Dataset dataset = GenerateDataset(SmallConfig());
  ShardedEngineConfig config;
  config.shards = 3;
  config.plan = MakeSsbShardPlan(SmallConfig().num_freshness_tables);
  config.node = WithMergeMode(TidbConfig(), MergeMode::kBitmap);
  ShardedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  RunRandomWorkload(&engine, &context, 505 * 41, 200);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);
  ExpectBatchMatchesRowOracle(*session.source, *engine.primary_catalog());
}

// ---------------------------------------------------------------------------
// MorselSet partitioning.
// ---------------------------------------------------------------------------

TEST(MorselSetTest, StaticAssignmentCoversExtentDisjointly) {
  MorselSet morsels(/*extent=*/10000, /*num_workers=*/4, /*dynamic=*/false,
                    /*morsel_rows=*/1024);
  std::vector<int> covered(10000, 0);
  for (uint32_t w = 0; w < 4; ++w) {
    MorselSet::ClaimState state;
    size_t begin;
    size_t end;
    while (morsels.Claim(w, &state, &begin, &end)) {
      ASSERT_LT(begin, end);
      ASSERT_LE(end, 10000u);
      EXPECT_EQ(begin % 1024, 0u);  // block-aligned
      for (size_t r = begin; r < end; ++r) ++covered[r];
    }
  }
  for (size_t r = 0; r < covered.size(); ++r) {
    EXPECT_EQ(covered[r], 1) << "row " << r;
  }
}

TEST(MorselSetTest, DynamicClaimingCoversExtentDisjointly) {
  MorselSet morsels(/*extent=*/50000, /*num_workers=*/4, /*dynamic=*/true);
  std::vector<std::atomic<int>> covered(50000);
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      MorselSet::ClaimState state;
      size_t begin;
      size_t end;
      while (morsels.Claim(w, &state, &begin, &end)) {
        for (size_t r = begin; r < end; ++r) {
          covered[r].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t r = 0; r < covered.size(); ++r) {
    ASSERT_EQ(covered[r].load(), 1) << "row " << r;
  }
}

TEST(MorselSetTest, MorselRowsAlignWithColumnBlocks) {
  // The bit-identity of zone-map metering at any dop depends on morsels
  // never splitting a column block.
  EXPECT_EQ(MorselSet::kMorselAlignRows, ColumnTable::kBlockRows);
  EXPECT_EQ(MorselSet::kDefaultMorselRows % ColumnTable::kBlockRows, 0u);
  for (const size_t extent : {0u, 100u, 1500u, 6000u, 20000u, 1000000u}) {
    for (const uint32_t workers : {1u, 2u, 4u, 16u}) {
      const size_t rows = MorselSet::PickMorselRows(extent, workers);
      EXPECT_GE(rows, MorselSet::kMorselAlignRows);
      EXPECT_LE(rows, MorselSet::kDefaultMorselRows);
      EXPECT_EQ(rows % MorselSet::kMorselAlignRows, 0u)
          << extent << "/" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Session-pin guard lifetime (AnalyticsSession::guard contract).
// ---------------------------------------------------------------------------

TEST(SessionPinLatchTest, ExclusiveWaitsForPinReleasedOnOtherThread) {
  SessionPinLatch latch;
  std::shared_ptr<void> pin = latch.AcquirePin();
  std::atomic<bool> released{false};
  std::atomic<bool> exclusive_ran{false};

  // Worker inherits the pin (as a morsel worker inherits the session
  // guard) and releases it from its own thread.
  std::thread worker([&, pin]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    released.store(true);
    pin.reset();  // last release happens HERE, off the acquiring thread
  });
  pin.reset();  // the session itself lets go first

  latch.WithExclusive([&] {
    EXPECT_TRUE(released.load()) << "exclusive ran while a pin was held";
    exclusive_ran.store(true);
  });
  EXPECT_TRUE(exclusive_ran.load());
  worker.join();
}

TEST(SessionPinLatchTest, PinWaitsForExclusive) {
  SessionPinLatch latch;
  std::atomic<bool> in_exclusive{false};
  std::thread writer([&] {
    latch.WithExclusive([&] {
      in_exclusive.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      in_exclusive.store(false);
    });
  });
  while (!in_exclusive.load()) std::this_thread::yield();
  std::shared_ptr<void> pin = latch.AcquirePin();
  EXPECT_FALSE(in_exclusive.load());  // pin could not start mid-exclusive
  pin.reset();
  writer.join();
}

TEST(GuardLifetimeTest, HybridMergeBlocksUntilWorkerDropsGuard) {
  // Regression for the AnalyticsSession::guard contract: a worker thread
  // that outlives the issuing session must keep the hybrid engine's
  // column store pinned — a delta merge (triggered by the next
  // BeginAnalytics) may only proceed once the worker releases its copy.
  const Dataset dataset = GenerateDataset(SmallConfig(99));
  // Pinned to eager mode: the scenario under test is the merge inside
  // BeginAnalytics waiting on the worker's pin.
  HybridEngineConfig config;
  config.merge_mode = MergeMode::kEager;
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);

  WorkMeter meter;
  AnalyticsSession session = engine.BeginAnalytics(&meter);

  std::atomic<bool> worker_released{false};
  std::thread worker([guard = session.guard, &worker_released]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    worker_released.store(true);
    guard.reset();
  });
  // The session ends while the worker still runs — the exact scenario a
  // shared_mutex guard would make undefined behaviour.
  session.guard.reset();
  session.source.reset();

  // Commit a transaction so the next BeginAnalytics has a delta to merge.
  RunRandomWorkload(&engine, &context, 7, 5);
  ASSERT_GT(engine.PendingDelta(), 0u);

  AnalyticsSession next = engine.BeginAnalytics(&meter);
  // BeginAnalytics merges the delta, which must have waited for the
  // worker's pin.
  EXPECT_TRUE(worker_released.load());
  EXPECT_EQ(engine.PendingDelta(), 0u);
  EXPECT_NE(next.source, nullptr);
  worker.join();
}

// ---------------------------------------------------------------------------
// Simulator determinism at dop > 1.
// ---------------------------------------------------------------------------

std::string FormatMetrics(const RunMetrics& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "tps=%.17g qps=%.17g committed=%llu aborts=%llu failed=%llu "
      "queries=%llu txn_p50=%.17g txn_p99=%.17g q_p50=%.17g q_p99=%.17g "
      "fresh_p99=%.17g",
      m.t_throughput, m.a_throughput,
      static_cast<unsigned long long>(m.committed),
      static_cast<unsigned long long>(m.aborts),
      static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.queries),
      m.txn_latency.empty() ? 0.0 : m.txn_latency.Percentile(0.5),
      m.txn_latency.empty() ? 0.0 : m.txn_latency.Percentile(0.99),
      m.query_latency.empty() ? 0.0 : m.query_latency.Percentile(0.5),
      m.query_latency.empty() ? 0.0 : m.query_latency.Percentile(0.99),
      m.freshness.empty() ? 0.0 : m.freshness.Percentile(0.99));
  return buf;
}

TEST(ParallelSimTest, IdenticalSeedsGiveIdenticalReportsAtDop4) {
  const Dataset dataset = GenerateDataset(SmallConfig(77));
  for (const MergeMode mode : kMergeModes) {
    SCOPED_TRACE(MergeModeName(mode));
    HybridEngine engine(WithMergeMode({}, mode));
    ASSERT_TRUE(
        LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
    WorkloadContext context(dataset);
    SimDriver driver(&engine, &context, HybridSimSetup());

    WorkloadConfig config;
    config.t_clients = 2;
    config.a_clients = 2;
    config.warmup_seconds = 0.05;
    config.measure_seconds = 0.3;
    config.seed = 21;
    config.dop = 4;

    const std::string first = FormatMetrics(driver.Run(config));
    const std::string second = FormatMetrics(driver.Run(config));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("queries="), std::string::npos);
  }
}

TEST(ParallelSimTest, SubmitParallelFinishesFasterOnIdleCores) {
  // dop=4 on an idle 8-core pool: the same demand completes in 1/4 the
  // virtual time of a serial submission.
  Simulation sim;
  CorePool pool(&sim, "test", 8.0);
  double serial_done = -1;
  double parallel_done = -1;
  pool.Submit(1.0, [&] { serial_done = sim.Now(); });
  sim.RunToCompletion();
  const double serial_elapsed = serial_done;

  Simulation sim2;
  CorePool pool2(&sim2, "test", 8.0);
  pool2.SubmitParallel(1.0, 4, [&] { parallel_done = sim2.Now(); });
  sim2.RunToCompletion();

  ASSERT_GT(serial_elapsed, 0);
  ASSERT_GT(parallel_done, 0);
  EXPECT_NEAR(parallel_done, serial_elapsed / 4.0, 1e-9);
}

}  // namespace
}  // namespace hattrick
