// Tests for the 13 SSB query plans: agreement with naive reference
// computations over the raw dataset, cross-engine result equivalence
// (row store vs replica vs column store), index-assisted plan
// equivalence, and the FRESHNESS read-back.

#include <cmath>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

class QueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatagenConfig config;
    config.scale_factor = 2.0;
    config.lineorders_per_sf = 3000;
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

  static QueryResult RunOn(HtapEngine* engine, int qid) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    return RunQuery(qid, *session.source, 4, &ctx);
  }

  static Dataset* dataset_;
  static SharedEngine* shared_;
  static HybridEngine* hybrid_[2];  // indexed by MergeMode
  static IsolatedEngine* isolated_;
};

Dataset* QueriesTest::dataset_ = nullptr;
SharedEngine* QueriesTest::shared_ = nullptr;
HybridEngine* QueriesTest::hybrid_[2] = {};
IsolatedEngine* QueriesTest::isolated_ = nullptr;

TEST_F(QueriesTest, QueryNames) {
  EXPECT_STREQ(QueryName(0), "Q1.1");
  EXPECT_STREQ(QueryName(3), "Q2.1");
  EXPECT_STREQ(QueryName(6), "Q3.1");
  EXPECT_STREQ(QueryName(12), "Q4.3");
}

TEST_F(QueriesTest, Q11MatchesNaiveReference) {
  // Q1.1: SUM(extendedprice * discount) where d_year=1993,
  // discount in [1,3], quantity < 25.
  double expected = 0;
  for (const Row& row : dataset_->lineorder) {
    const int64_t date = row[lo::kOrderDate].AsInt();
    const int64_t disc = row[lo::kDiscount].AsInt();
    const int64_t qty = row[lo::kQuantity].AsInt();
    if (date >= 19930101 && date <= 19931231 && disc >= 1 && disc <= 3 &&
        qty < 25) {
      expected += row[lo::kExtendedPrice].AsDouble() *
                  static_cast<double>(disc);
    }
  }
  const QueryResult result = RunOn(shared_, 0);
  EXPECT_EQ(result.rows, 1u);
  EXPECT_NEAR(result.checksum, expected, std::abs(expected) * 1e-9 + 1e-6);
}

TEST_F(QueriesTest, Q21MatchesNaiveReference) {
  // Q2.1: SUM(revenue) by (d_year, p_brand1) where p_category='MFGR#12'
  // and s_region='AMERICA'. The checksum also includes group keys, so
  // compute it the same way.
  std::map<std::pair<int64_t, std::string>, double> groups;
  for (const Row& row : dataset_->lineorder) {
    const Row& part = dataset_->part[row[lo::kPartKey].AsInt() - 1];
    const Row& supp = dataset_->supplier[row[lo::kSuppKey].AsInt() - 1];
    if (part[part::kCategory].AsString() != "MFGR#12") continue;
    if (supp[supp::kRegion].AsString() != "AMERICA") continue;
    const int64_t year = row[lo::kOrderDate].AsInt() / 10000;
    groups[{year, part[part::kBrand1].AsString()}] +=
        row[lo::kRevenue].AsDouble();
  }
  double expected_checksum = 0;
  const std::hash<std::string> hasher;
  for (const auto& [key, revenue] : groups) {
    expected_checksum += static_cast<double>(key.first);
    expected_checksum += static_cast<double>(hasher(key.second) % 1000003);
    expected_checksum += revenue;
  }
  const QueryResult result = RunOn(shared_, 3);
  EXPECT_EQ(result.rows, groups.size());
  EXPECT_NEAR(result.checksum, expected_checksum,
              std::abs(expected_checksum) * 1e-9 + 1e-6);
}

TEST_F(QueriesTest, Q41MatchesNaiveReference) {
  // Q4.1: SUM(revenue - supplycost) by (d_year, c_nation),
  // c_region=AMERICA, s_region=AMERICA, p_mfgr in {MFGR#1, MFGR#2}.
  std::map<std::pair<int64_t, std::string>, double> groups;
  for (const Row& row : dataset_->lineorder) {
    const Row& customer = dataset_->customer[row[lo::kCustKey].AsInt() - 1];
    const Row& supp = dataset_->supplier[row[lo::kSuppKey].AsInt() - 1];
    const Row& part_row = dataset_->part[row[lo::kPartKey].AsInt() - 1];
    if (customer[cust::kRegion].AsString() != "AMERICA") continue;
    if (supp[supp::kRegion].AsString() != "AMERICA") continue;
    const std::string& mfgr = part_row[part::kMfgr].AsString();
    if (mfgr != "MFGR#1" && mfgr != "MFGR#2") continue;
    const int64_t year = row[lo::kOrderDate].AsInt() / 10000;
    groups[{year, customer[cust::kNation].AsString()}] +=
        row[lo::kRevenue].AsDouble() - row[lo::kSupplyCost].AsDouble();
  }
  const QueryResult result = RunOn(shared_, 10);
  EXPECT_EQ(result.rows, groups.size());
}

TEST_F(QueriesTest, AllQueriesAgreeAcrossEngines) {
  // Row store (shared), row-store replica (isolated) and column store
  // (hybrid, either merge mode) must compute identical results on the
  // loaded snapshot.
  for (const MergeMode mode : kMergeModes) {
    SCOPED_TRACE(MergeModeName(mode));
    for (int qid = 0; qid < kNumQueries; ++qid) {
      const QueryResult row_result = RunOn(shared_, qid);
      const QueryResult col_result =
          RunOn(hybrid_[static_cast<int>(mode)], qid);
      const QueryResult replica_result = RunOn(isolated_, qid);
      EXPECT_EQ(row_result.rows, col_result.rows) << QueryName(qid);
      EXPECT_EQ(row_result.rows, replica_result.rows) << QueryName(qid);
      const double tolerance = std::abs(row_result.checksum) * 1e-9 + 1e-6;
      EXPECT_NEAR(row_result.checksum, col_result.checksum, tolerance)
          << QueryName(qid);
      EXPECT_NEAR(row_result.checksum, replica_result.checksum, tolerance)
          << QueryName(qid);
    }
  }
}

TEST_F(QueriesTest, IndexAssistedQ1MatchesSeqScan) {
  // The shared engine has lineorder_orderdate (all-indexes); the hybrid's
  // semi schema does not. Both must produce the same Q1 answers — already
  // covered above — and the index plan must actually engage.
  WorkMeter idx_meter;
  {
    AnalyticsSession session = shared_->BeginAnalytics(&idx_meter);
    ExecContext ctx{&idx_meter};
    RunQuery(1, *session.source, 0, &ctx);  // Q1.2: one month of dates
  }
  // Q1.2 touches ~1/84th of lineorder via the index: far fewer rows read
  // than the full table.
  EXPECT_LT(idx_meter.rows_read,
            dataset_->lineorder.size() / 4 + dataset_->date.size());
  EXPECT_GT(idx_meter.index_nodes, 0u);
}

TEST_F(QueriesTest, SelectiveQueriesReturnFewRowsButNonTrivialWork) {
  const QueryResult q34 = RunOn(shared_, 9);  // Q3.4: tiny city+month
  const QueryResult q31 = RunOn(shared_, 6);  // Q3.1: broad region query
  EXPECT_LE(q34.rows, q31.rows + 1);
}

TEST_F(QueriesTest, FreshnessReadbackInitiallyZero) {
  const QueryResult result = RunOn(shared_, 0);
  ASSERT_EQ(result.freshness.size(), 4u);
  for (int64_t v : result.freshness) EXPECT_EQ(v, 0);
}

TEST_F(QueriesTest, FreshnessReadbackSeesCommittedTxnNums) {
  // Use a dedicated engine so this test does not disturb the shared one.
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &engine).ok());
  const EngineHandles handles =
      EngineHandles::Resolve(*engine.primary_catalog(), 4);
  WorkloadContext context(*dataset_);

  TxnParams params;
  params.type = TxnType::kCountOrders;
  params.customer_name = CustomerName(1);
  WorkMeter meter;
  ASSERT_TRUE(engine
                  .ExecuteTransaction(
                      MakeTxnBody(params, handles, /*client=*/2,
                                  /*txn_num=*/41),
                      2, 41, &meter)
                  .status.ok());

  const QueryResult result = RunOn(&engine, 0);
  ASSERT_EQ(result.freshness.size(), 4u);
  EXPECT_EQ(result.freshness[0], 0);
  EXPECT_EQ(result.freshness[1], 41);
}

TEST_F(QueriesTest, PlansBuildForAllIds) {
  WorkMeter meter;
  AnalyticsSession session = shared_->BeginAnalytics(&meter);
  for (int qid = 0; qid < kNumQueries; ++qid) {
    EXPECT_NE(BuildQueryPlan(qid, *session.source), nullptr) << qid;
  }
}

TEST_F(QueriesTest, DeterministicAcrossRuns) {
  for (int qid : {0, 3, 6, 10}) {
    const QueryResult a = RunOn(shared_, qid);
    const QueryResult b = RunOn(shared_, qid);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  }
}

}  // namespace
}  // namespace hattrick
