// Differential tests for the EXPLAIN ANALYZE plan-profiling layer
// (obs/plan_profile.h + exec/op_profiler.h): across all 13 queries, all
// three engine designs, row vs batch execution, and serial vs parallel
// plans, the profile's root rows_out must equal the query's result rows,
// and turning profiling on must not change results or metered work.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
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
