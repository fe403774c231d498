// Differential tests for the EXPLAIN ANALYZE plan-profiling layer
// (obs/plan_profile.h + exec/op_profiler.h): across all 13 queries, all
// three engine designs, row vs batch execution, and serial vs parallel
// plans, the profile's root rows_out must equal the query's result rows,
// and turning profiling on must not change results or metered work.
// Row-store index scans batch natively: at any batch width their
// batches must cut the row-mode output without changing any other
// profile field or meter.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/key_encoding.h"
#include "common/rng.h"
#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "obs/plan_profile.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatagenConfig config;
    config.scale_factor = 1.0;
    config.lineorders_per_sf = 2000;
    config.seed = 11;
    config.num_freshness_tables = 4;
    dataset_ = new Dataset(GenerateDataset(config));

    shared_ = new SharedEngine();
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, shared_).ok());
    for (const MergeMode mode : kMergeModes) {
      HybridEngine*& hybrid = hybrid_[static_cast<int>(mode)];
      hybrid = new HybridEngine(WithMergeMode({}, mode));
      ASSERT_TRUE(
          LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, hybrid).ok());
    }
    isolated_ = new IsolatedEngine();
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, isolated_)
            .ok());
  }

  static void TearDownTestSuite() {
    delete shared_;
    for (HybridEngine*& hybrid : hybrid_) {
      delete hybrid;
      hybrid = nullptr;
    }
    delete isolated_;
    delete dataset_;
    shared_ = nullptr;
    isolated_ = nullptr;
    dataset_ = nullptr;
  }

  struct ProfiledRun {
    QueryResult result;
    obs::PlanProfile profile;
    uint64_t work = 0;
  };

  static ProfiledRun Run(HtapEngine* engine, int qid, bool vectorized,
                         int dop, bool profiled = true) {
    ProfiledRun out;
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx;
    ctx.meter = &meter;
    ctx.dop = dop;
    ctx.vectorized = vectorized;
    ctx.session_pin = session.guard;
    if (profiled) ctx.profile = &out.profile;
    out.result = RunQuery(qid, *session.source, 4, &ctx);
    out.work = meter.Total();
    return out;
  }

  static size_t CountRoots(const obs::PlanProfile& profile) {
    size_t roots = 0;
    for (size_t i = 0; i < profile.size(); ++i) {
      if (profile.node(i).parent < 0) ++roots;
    }
    return roots;
  }

  static uint64_t RootRows(const obs::PlanProfile& profile) {
    uint64_t rows = 0;
    for (size_t i = 0; i < profile.size(); ++i) {
      if (profile.node(i).parent < 0) rows += profile.node(i).rows_out;
    }
    return rows;
  }

  static Dataset* dataset_;
  static SharedEngine* shared_;
  static HybridEngine* hybrid_[2];  // indexed by MergeMode
  static IsolatedEngine* isolated_;
};

Dataset* ProfileTest::dataset_ = nullptr;
SharedEngine* ProfileTest::shared_ = nullptr;
HybridEngine* ProfileTest::hybrid_[2] = {};
IsolatedEngine* ProfileTest::isolated_ = nullptr;

// The acceptance matrix: 13 queries x 3 designs (the hybrid in both
// merge modes) x {row,batch}
// x dop {1,4}. The profile must record exactly one root (the freshness
// read-back is deliberately excluded) whose rows_out equals the result's
// row count, for exactly one execution.
TEST_F(ProfileTest, RootRowsMatchResultRowsAcrossTheFullMatrix) {
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_},
      {"hybrid", hybrid_[static_cast<int>(MergeMode::kEager)]},
      {"hybrid-bitmap", hybrid_[static_cast<int>(MergeMode::kBitmap)]},
      {"isolated", isolated_}};
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      for (bool vectorized : {false, true}) {
        for (int dop : {1, 4}) {
          const ProfiledRun run = Run(e.engine, qid, vectorized, dop);
          const std::string where =
              std::string(e.label) + "/" + QueryName(qid) +
              (vectorized ? "/batch" : "/row") + "/dop=" +
              std::to_string(dop);
          ASSERT_FALSE(run.profile.empty()) << where;
          EXPECT_EQ(run.profile.executions(), 1u) << where;
          EXPECT_EQ(CountRoots(run.profile), 1u) << where;
          EXPECT_EQ(RootRows(run.profile), run.result.rows) << where;
        }
      }
    }
  }
}

// Row and batch mode execute the same plan shape at the same dop; the
// per-node logical row counts (and the metered work) must agree, only
// calls/batches differ.
TEST_F(ProfileTest, RowAndBatchModesAgreePerNodeRowsAndWork) {
  for (int qid = 0; qid < kNumQueries; ++qid) {
    const ProfiledRun row = Run(shared_, qid, /*vectorized=*/false, 1);
    const ProfiledRun batch = Run(shared_, qid, /*vectorized=*/true, 1);
    EXPECT_EQ(row.result.rows, batch.result.rows) << QueryName(qid);
    EXPECT_EQ(row.work, batch.work) << QueryName(qid);
    ASSERT_EQ(row.profile.size(), batch.profile.size()) << QueryName(qid);
    for (size_t i = 0; i < row.profile.size(); ++i) {
      const obs::PlanProfileNode& r = row.profile.node(i);
      const obs::PlanProfileNode& b = batch.profile.node(i);
      EXPECT_EQ(r.name, b.name) << QueryName(qid) << " node " << i;
      EXPECT_EQ(r.parent, b.parent) << QueryName(qid) << " node " << i;
      EXPECT_EQ(r.rows_out, b.rows_out)
          << QueryName(qid) << " node " << i << " (" << r.name << ")";
    }
  }
}

// Profiling must be a pure observer: same results (rows, checksum,
// freshness vector) and the same work-meter total with it on or off.
TEST_F(ProfileTest, ProfilingOnOffIsBitIdentical) {
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", shared_},
      {"hybrid", hybrid_[static_cast<int>(MergeMode::kEager)]},
      {"hybrid-bitmap", hybrid_[static_cast<int>(MergeMode::kBitmap)]},
      {"isolated", isolated_}};
  for (const auto& e : engines) {
    for (int qid = 0; qid < kNumQueries; ++qid) {
      for (int dop : {1, 4}) {
        const ProfiledRun off =
            Run(e.engine, qid, /*vectorized=*/true, dop, /*profiled=*/false);
        const ProfiledRun on =
            Run(e.engine, qid, /*vectorized=*/true, dop, /*profiled=*/true);
        const std::string where = std::string(e.label) + "/" +
                                  QueryName(qid) + "/dop=" +
                                  std::to_string(dop);
        EXPECT_TRUE(off.profile.empty()) << where;
        EXPECT_EQ(off.result.rows, on.result.rows) << where;
        EXPECT_DOUBLE_EQ(off.result.checksum, on.result.checksum) << where;
        EXPECT_EQ(off.result.freshness, on.result.freshness) << where;
        EXPECT_EQ(off.work, on.work) << where;
      }
    }
  }
}

// A parallel plan routes shard work through the gather-merge exchange;
// the shard profiles are summed element-wise and grafted under it, so
// the tree still has one root and the exchange node reports its shards.
TEST_F(ProfileTest, ParallelPlanGraftsShardProfilesUnderGatherMerge) {
  const ProfiledRun serial = Run(shared_, /*qid=*/3, /*vectorized=*/true, 1);
  const ProfiledRun parallel =
      Run(shared_, /*qid=*/3, /*vectorized=*/true, 4);

  EXPECT_EQ(serial.result.rows, parallel.result.rows);
  EXPECT_EQ(CountRoots(parallel.profile), 1u);
  bool found_exchange = false;
  for (size_t i = 0; i < parallel.profile.size(); ++i) {
    const obs::PlanProfileNode& node = parallel.profile.node(i);
    if (node.name == "GatherMerge") {
      found_exchange = true;
      EXPECT_NE(node.detail.find("shards=4"), std::string::npos);
      EXPECT_FALSE(node.children.empty());
      EXPECT_EQ(node.rows_out, parallel.result.rows);
    }
  }
  EXPECT_TRUE(found_exchange);
  // The serial plan has no exchange node.
  for (size_t i = 0; i < serial.profile.size(); ++i) {
    EXPECT_NE(serial.profile.node(i).name, "GatherMerge");
  }
}

// Column scans on the hybrid engine fill the zone-map and
// bitmap-snapshot lane counters; every evaluated row is attributed to
// exactly one lane.
TEST_F(ProfileTest, ColumnScanReportsBlocksAndSnapshotLanes) {
  for (HybridEngine* hybrid : hybrid_) {
    const ProfiledRun run = Run(hybrid, /*qid=*/0, /*vectorized=*/true, 1);
    bool found_scan = false;
    for (size_t i = 0; i < run.profile.size(); ++i) {
      const obs::PlanProfileNode& node = run.profile.node(i);
      if (node.name != "ColumnScan") continue;
      found_scan = true;
      EXPECT_GT(node.blocks_scanned + node.blocks_pruned, 0u) << node.detail;
      EXPECT_GT(node.rows_clean + node.rows_override + node.rows_insert, 0u)
          << node.detail;
    }
    EXPECT_TRUE(found_scan);
  }
}

// The row-store Q1 flight reads LINEORDER through the orderdate index,
// whose NextBatch visits candidates natively. Sessions opened before a
// burst of new orders leave index entries whose rows the snapshot cannot
// see, and Q1's discount/quantity residual rejects most visible ones. At
// batch widths 1, 7 and 1024 the results, every meter and every profile
// field must equal the row-mode run, apart from the batch counters: the
// IndexScan's calls/batches (one per batch, each full but the last) and
// every node's `batches` (row mode produces none).
TEST(IndexScanBatchParityTest, Q1MatchesRowModeAtEveryBatchWidth) {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 2000;
  config.seed = 23;
  config.num_freshness_tables = 1;
  const Dataset dataset = GenerateDataset(config);
  SharedEngine shared;
  IsolatedEngine isolated;
  struct { const char* label; HtapEngine* engine; } engines[] = {
      {"shared", &shared}, {"isolated", &isolated}};
  for (const auto& e : engines) {
    ASSERT_TRUE(
        LoadDataset(dataset, PhysicalSchema::kAllIndexes, e.engine).ok());
    WorkMeter session_meter;
    AnalyticsSession session = e.engine->BeginAnalytics(&session_meter);
    // New orders committed (and, on the standby, replayed) after the
    // session's snapshot: index entries the snapshot cannot see.
    WorkloadContext workload(dataset);
    const EngineHandles handles =
        EngineHandles::Resolve(*e.engine->primary_catalog(), 1);
    Rng rng(5);
    for (uint64_t txn = 1; txn <= 400; ++txn) {
      const TxnParams params = GenerateTxnParams(&workload, &rng);
      WorkMeter meter;
      e.engine->ExecuteTransaction(MakeTxnBody(params, handles, 1, txn), 1,
                                   txn, &meter);
    }
    WorkMeter replay;
    while (e.engine->MaintenanceStep(&replay)) {
    }
    // Q1.1's range (1993) holds index entries beyond the loaded rows.
    size_t loaded_1993 = 0;
    for (const Row& row : dataset.lineorder) {
      const int64_t date = row[lo::kOrderDate].AsInt();
      if (date >= 19930101 && date <= 19931231) ++loaded_1993;
    }
    size_t indexed_1993 = 0;
    std::string lo_key;
    std::string hi_key;
    key::EncodeInt64(19930101, &lo_key);
    key::EncodeInt64(19931232, &hi_key);
    e.engine->primary_catalog()->GetIndex("lineorder_orderdate")->tree
        ->ScanRange(lo_key, hi_key,
                    [&](const std::string&, uint64_t) {
                      ++indexed_1993;
                      return true;
                    },
                    nullptr);
    ASSERT_GT(indexed_1993, loaded_1993) << e.label;

    for (int qid = 0; qid < 3; ++qid) {
      const auto run = [&](bool vectorized, size_t batch_rows,
                           obs::PlanProfile* profile, WorkMeter* meter) {
        ExecContext ctx;
        ctx.meter = meter;
        ctx.vectorized = vectorized;
        ctx.batch_rows = batch_rows;
        ctx.profile = profile;
        return RunQuery(qid, *session.source, 1, &ctx);
      };
      obs::PlanProfile row_profile;
      WorkMeter row_meter;
      const QueryResult row =
          run(/*vectorized=*/false, kDefaultBatchRows, &row_profile,
              &row_meter);
      for (const size_t width : {size_t{1}, size_t{7}, size_t{1024}}) {
        const std::string where = std::string(e.label) + "/" +
                                  QueryName(qid) + "/batch=" +
                                  std::to_string(width);
        obs::PlanProfile profile;
        WorkMeter meter;
        const QueryResult batch = run(/*vectorized=*/true, width, &profile,
                                      &meter);
        EXPECT_EQ(batch.rows, row.rows) << where;
        EXPECT_EQ(batch.checksum, row.checksum) << where;
        EXPECT_EQ(batch.freshness, row.freshness) << where;
        EXPECT_EQ(meter.ToString(), row_meter.ToString()) << where;
        ASSERT_EQ(profile.size(), row_profile.size()) << where;
        bool found_index_scan = false;
        for (size_t i = 0; i < profile.size(); ++i) {
          const obs::PlanProfileNode& r = row_profile.node(i);
          const obs::PlanProfileNode& b = profile.node(i);
          const std::string node = where + " node " + r.name;
          EXPECT_EQ(b.name, r.name) << node;
          EXPECT_EQ(b.detail, r.detail) << node;
          EXPECT_EQ(b.parent, r.parent) << node;
          EXPECT_EQ(b.children, r.children) << node;
          EXPECT_EQ(b.opens, r.opens) << node;
          EXPECT_EQ(b.rows_out, r.rows_out) << node;
          EXPECT_EQ(b.phys_rows, r.phys_rows) << node;
          EXPECT_EQ(b.blocks_scanned, r.blocks_scanned) << node;
          EXPECT_EQ(b.blocks_pruned, r.blocks_pruned) << node;
          EXPECT_EQ(b.rows_clean, r.rows_clean) << node;
          EXPECT_EQ(b.rows_override, r.rows_override) << node;
          EXPECT_EQ(b.rows_insert, r.rows_insert) << node;
          EXPECT_EQ(b.work_units, r.work_units) << node;
          EXPECT_EQ(b.open_seconds, r.open_seconds) << node;
          EXPECT_EQ(b.next_seconds, r.next_seconds) << node;
          EXPECT_EQ(b.first_ts, r.first_ts) << node;
          EXPECT_EQ(b.last_ts, r.last_ts) << node;
          EXPECT_EQ(b.has_ts, r.has_ts) << node;
          if (r.name != "IndexScan") {
            EXPECT_EQ(b.calls, r.calls) << node;
            continue;
          }
          found_index_scan = true;
          const uint64_t full_batches = (r.rows_out + width - 1) / width;
          EXPECT_EQ(b.batches, full_batches) << node;
          EXPECT_EQ(b.calls, full_batches + 1) << node;
        }
        EXPECT_TRUE(found_index_scan) << where;
      }
    }
  }
}

// Two identical executions export byte-identical text/JSON and the same
// digest; the digest is 16 lowercase hex digits.
TEST_F(ProfileTest, RenderingsAreDeterministicAcrossRuns) {
  const ProfiledRun a = Run(shared_, /*qid=*/0, /*vectorized=*/true, 1);
  const ProfiledRun b = Run(shared_, /*qid=*/0, /*vectorized=*/true, 1);
  EXPECT_EQ(a.profile.ToText(), b.profile.ToText());
  EXPECT_EQ(a.profile.ToJson(), b.profile.ToJson());
  EXPECT_EQ(a.profile.Digest(), b.profile.Digest());
  const std::string digest = a.profile.Digest();
  ASSERT_EQ(digest.size(), 16u);
  for (char c : digest) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << digest;
  }
  EXPECT_EQ(a.profile.ToJson().rfind("{\"profile_version\":1", 0), 0u);
  EXPECT_NE(a.profile.ToText().find("rows="), std::string::npos);
}

// Accumulate folds same-shaped executions (summing counters) and
// rejects mismatched shapes without modifying the accumulator.
TEST_F(ProfileTest, AccumulateSumsSameShapeAndRejectsMismatch) {
  const ProfiledRun a = Run(shared_, /*qid=*/0, /*vectorized=*/true, 1);
  obs::PlanProfile folded;
  EXPECT_TRUE(folded.Accumulate(a.profile));
  EXPECT_TRUE(folded.Accumulate(a.profile));
  EXPECT_EQ(folded.executions(), 2u);
  EXPECT_EQ(RootRows(folded), 2 * RootRows(a.profile));

  const ProfiledRun other = Run(shared_, /*qid=*/3, /*vectorized=*/true, 1);
  const std::string before = folded.ToJson();
  EXPECT_FALSE(folded.Accumulate(other.profile));
  EXPECT_EQ(folded.ToJson(), before);  // rejected fold left it unchanged
}

}  // namespace
}  // namespace hattrick
