// Tests for the execution layer: expressions, relational operators
// (including randomized checks against naive reference implementations),
// and the row/column scan sources with pushdowns, zone-map pruning, and
// index-assisted scans.

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "storage/catalog.h"
#include "storage/column_table.h"

namespace hattrick {
namespace {

Row R(std::initializer_list<Value> values) { return Row(values); }

std::vector<Row> RunPlan(OperatorPtr op, WorkMeter* meter = nullptr) {
  WorkMeter local;
  ExecContext ctx{meter != nullptr ? meter : &local};
  return Collect(op.get(), &ctx);
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

TEST(ExpressionTest, ColumnAndLiteral) {
  const Row row = R({int64_t{5}, std::string("x")});
  EXPECT_EQ(Col(0)->Eval(row).AsInt(), 5);
  EXPECT_EQ(Col(1)->Eval(row).AsString(), "x");
  EXPECT_EQ(Lit(Value(int64_t{9}))->Eval(row).AsInt(), 9);
}

TEST(ExpressionTest, IntArithmetic) {
  const Row row = R({int64_t{6}, int64_t{4}});
  EXPECT_EQ(Add(Col(0), Col(1))->Eval(row).AsInt(), 10);
  EXPECT_EQ(Sub(Col(0), Col(1))->Eval(row).AsInt(), 2);
  EXPECT_EQ(Mul(Col(0), Col(1))->Eval(row).AsInt(), 24);
}

TEST(ExpressionTest, MixedArithmeticPromotesToDouble) {
  const Row row = R({int64_t{6}, 0.5});
  const Value v = Mul(Col(0), Col(1))->Eval(row);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.0);
}

TEST(ExpressionTest, Comparisons) {
  const Row row = R({int64_t{3}, int64_t{7}});
  EXPECT_TRUE(EvalBool(*Lt(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*Gt(Col(0), Col(1)), row));
  EXPECT_TRUE(EvalBool(*Le(Col(0), Lit(Value(int64_t{3}))), row));
  EXPECT_TRUE(EvalBool(*Ge(Col(1), Lit(Value(int64_t{7}))), row));
  EXPECT_TRUE(EvalBool(*Ne(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*Eq(Col(0), Col(1)), row));
}

TEST(ExpressionTest, LogicShortCircuits) {
  const Row row = R({int64_t{1}, int64_t{0}});
  EXPECT_TRUE(EvalBool(*Or(Col(0), Col(1)), row));
  EXPECT_FALSE(EvalBool(*And(Col(0), Col(1)), row));
  EXPECT_TRUE(EvalBool(*Not(Col(1)), row));
}

TEST(ExpressionTest, BetweenInclusive) {
  EXPECT_TRUE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{1}})));
  EXPECT_TRUE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{3}})));
  EXPECT_FALSE(EvalBool(
      *Between(Col(0), Value(int64_t{1}), Value(int64_t{3})),
      R({int64_t{4}})));
}

TEST(ExpressionTest, InList) {
  const ExprPtr e =
      InList(Col(0), {Value("a"), Value("b")});
  EXPECT_TRUE(EvalBool(*e, R({std::string("a")})));
  EXPECT_FALSE(EvalBool(*e, R({std::string("c")})));
}

TEST(ExpressionTest, ToStringIsReadable) {
  EXPECT_EQ(Eq(Col(0), Lit(Value(int64_t{5})))->ToString(), "($0 = 5)");
}

// --------------------------------------------------------------------------
// Operators
// --------------------------------------------------------------------------

TEST(OperatorTest, FilterKeepsMatching) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(R({int64_t{i}}));
  auto out = RunPlan(MakeFilter(MakeValuesScan(rows),
                            Ge(Col(0), Lit(Value(int64_t{7})))));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0].AsInt(), 7);
}

TEST(OperatorTest, ProjectComputesExpressions) {
  auto out = RunPlan(MakeProject(MakeValuesScan({R({int64_t{2}, int64_t{3}})}),
                             {Mul(Col(0), Col(1)), Col(0)}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 6);
  EXPECT_EQ(out[0][1].AsInt(), 2);
}

TEST(OperatorTest, HashJoinMatchesPairs) {
  std::vector<Row> probe = {R({int64_t{1}, std::string("p1")}),
                            R({int64_t{2}, std::string("p2")}),
                            R({int64_t{3}, std::string("p3")})};
  std::vector<Row> build = {R({int64_t{2}, std::string("b2")}),
                            R({int64_t{3}, std::string("b3")}),
                            R({int64_t{4}, std::string("b4")})};
  auto out = RunPlan(MakeHashJoin(MakeValuesScan(probe), 0,
                              MakeValuesScan(build), 0));
  ASSERT_EQ(out.size(), 2u);
  // Output = probe row ++ build row.
  for (const Row& row : out) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].AsInt(), row[2].AsInt());
  }
}

TEST(OperatorTest, HashJoinDuplicateBuildKeys) {
  std::vector<Row> probe = {R({int64_t{1}})};
  std::vector<Row> build = {R({int64_t{1}, std::string("a")}),
                            R({int64_t{1}, std::string("b")})};
  auto out = RunPlan(MakeHashJoin(MakeValuesScan(probe), 0,
                              MakeValuesScan(build), 0));
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorTest, HashJoinEmptySides) {
  EXPECT_TRUE(RunPlan(MakeHashJoin(MakeValuesScan({}), 0,
                               MakeValuesScan({R({int64_t{1}})}), 0))
                  .empty());
  EXPECT_TRUE(RunPlan(MakeHashJoin(MakeValuesScan({R({int64_t{1}})}), 0,
                               MakeValuesScan({}), 0))
                  .empty());
}

TEST(OperatorTest, HashJoinEmptySidesStillMeterEveryProbe) {
  // An empty build side matches nothing, but the probe side is still
  // drained and every probe row charges its hash probe.
  WorkMeter meter;
  EXPECT_TRUE(RunPlan(MakeHashJoin(MakeValuesScan({R({int64_t{1}}),
                                                   R({int64_t{2}})}),
                                   0, MakeValuesScan({}), 0),
                      &meter)
                  .empty());
  EXPECT_EQ(meter.hash_probes, 2u);
  EXPECT_EQ(meter.output_rows, 0u);
}

// Duplicate build keys come out in build insertion order, in both modes
// and at every batch width.
TEST(OperatorTest, HashJoinDuplicatesInBuildInsertionOrder) {
  const std::vector<Row> build = {R({int64_t{7}, std::string("b0")}),
                                  R({int64_t{7}, std::string("b1")}),
                                  R({int64_t{8}, std::string("x")}),
                                  R({int64_t{7}, std::string("b2")}),
                                  R({int64_t{7}, std::string("b3")})};
  const std::vector<Row> probe = {R({int64_t{7}}), R({int64_t{9}}),
                                  R({int64_t{7}})};
  for (const bool vectorized : {false, true}) {
    for (const size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
      SCOPED_TRACE(std::string(vectorized ? "batch" : "row") +
                   " batch_rows=" + std::to_string(batch_rows));
      WorkMeter meter;
      ExecContext ctx;
      ctx.meter = &meter;
      ctx.vectorized = vectorized;
      ctx.batch_rows = batch_rows;
      OperatorPtr plan = MakeHashJoin(MakeValuesScan(probe), 0,
                                      MakeValuesScan(build), 0);
      const std::vector<Row> out = Collect(plan.get(), &ctx);
      ASSERT_EQ(out.size(), 8u);
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i][2].AsString(), "b" + std::to_string(i % 4));
      }
      EXPECT_EQ(meter.hash_probes, build.size() + probe.size());
      EXPECT_EQ(meter.output_rows, 8u);
    }
  }
}

// Keys need not be column 0 on either side; misses on both sides drop out.
TEST(OperatorTest, HashJoinKeysAtNonZeroColumns) {
  const std::vector<Row> probe = {R({std::string("p1"), 0.5, int64_t{1}}),
                                  R({std::string("p2"), 1.5, int64_t{2}}),
                                  R({std::string("p5"), 2.5, int64_t{5}})};
  const std::vector<Row> build = {R({std::string("b2"), int64_t{2}}),
                                  R({std::string("b3"), int64_t{3}}),
                                  R({std::string("b5"), int64_t{5}})};
  for (const bool vectorized : {false, true}) {
    ExecContext ctx;
    ctx.vectorized = vectorized;
    OperatorPtr plan = MakeHashJoin(MakeValuesScan(probe), 2,
                                    MakeValuesScan(build), 1);
    const std::vector<Row> out = Collect(plan.get(), &ctx);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], R({std::string("p2"), 1.5, int64_t{2},
                         std::string("b2"), int64_t{2}}));
    EXPECT_EQ(out[1], R({std::string("p5"), 2.5, int64_t{5},
                         std::string("b5"), int64_t{5}}));
  }
}

// Output batches fill to batch_rows across probe-batch boundaries: a
// selective filter under the probe side leaves sparse probe batches, yet
// every output batch but the last is full.
TEST(OperatorTest, HashJoinOutputBatchesFillAcrossProbeBatches) {
  std::vector<Row> probe;
  for (int i = 0; i < 300; ++i) probe.push_back(R({int64_t{i % 40}}));
  std::vector<Row> build;
  for (int k = 0; k < 30; k += 3) build.push_back(R({int64_t{k}}));
  build.push_back(R({int64_t{6}}));  // key 6 matches twice
  size_t matches = 0;
  for (const Row& p : probe) {
    const int64_t k = p[0].AsInt();
    if (k % 2 == 0 && k % 3 == 0 && k < 30) matches += k == 6 ? 2 : 1;
  }
  ASSERT_GT(matches, 0u);
  std::vector<Value> evens;
  for (int k = 0; k < 40; k += 2) evens.emplace_back(int64_t{k});
  for (const size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    OperatorPtr plan = MakeHashJoin(
        MakeFilter(MakeValuesScan(probe), InList(Col(0), evens)), 0,
        MakeValuesScan(build), 0);
    const std::vector<Batch> batches = CollectBatches(plan.get(), &ctx);
    ASSERT_EQ(batches.size(), (matches + batch_rows - 1) / batch_rows);
    size_t total = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      EXPECT_FALSE(batches[i].filtered);
      if (i + 1 < batches.size()) {
        EXPECT_EQ(batches[i].rows, batch_rows);
      }
      total += batches[i].rows;
    }
    EXPECT_EQ(total, matches);
  }
}

TEST(OperatorDeathTest, HashJoinRejectsNonInt64Keys) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Row> strings = {R({std::string("a")})};
  const std::vector<Row> ints = {R({int64_t{1}})};
  const std::vector<Row> doubles = {R({1.0})};
  for (const bool vectorized : {false, true}) {
    const auto run = [vectorized](OperatorPtr plan) {
      ExecContext ctx;
      ctx.vectorized = vectorized;
      Collect(plan.get(), &ctx);
    };
    EXPECT_DEATH(run(MakeHashJoin(MakeValuesScan(strings), 0,
                                  MakeValuesScan(ints), 0)),
                 "not an int64");
    EXPECT_DEATH(run(MakeHashJoin(MakeValuesScan(ints), 0,
                                  MakeValuesScan(doubles), 0)),
                 "not an int64");
    // A build side whose column types change mid-stream.
    EXPECT_DEATH(run(MakeHashJoin(MakeValuesScan(ints), 0,
                                  MakeValuesScan({R({int64_t{1}, 2.0}),
                                                  R({int64_t{2}, int64_t{3}})}),
                                  0)),
                 "HashJoin");
  }
}

TEST(BatchRowsTest, ParsesPositiveIntegersAndDefaultsWhenUnset) {
  EXPECT_EQ(BatchRowsFromEnv(nullptr), kDefaultBatchRows);
  EXPECT_EQ(BatchRowsFromEnv(""), kDefaultBatchRows);
  EXPECT_EQ(BatchRowsFromEnv("1"), 1u);  // CI's degenerate-batch leg
  EXPECT_EQ(BatchRowsFromEnv("3"), 3u);
  EXPECT_EQ(BatchRowsFromEnv("4096"), 4096u);
}

TEST(BatchRowsDeathTest, RejectsJunkAndNonPositiveValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* junk : {"abc", "-3", "0", "12abc", "1.5",
                           "99999999999999999999999"}) {
    SCOPED_TRACE(junk);
    EXPECT_DEATH(BatchRowsFromEnv(junk), "invalid HATTRICK_BATCH_ROWS");
  }
}

TEST(OperatorTest, HashAggregateGroupsAndSums) {
  std::vector<Row> rows = {R({std::string("a"), int64_t{1}}),
                           R({std::string("b"), int64_t{2}}),
                           R({std::string("a"), int64_t{3}})};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  aggs.push_back({AggSpec::Kind::kCount, nullptr});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan(rows), {Col(0)},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 2u);  // groups a, b in key order
  EXPECT_EQ(out[0][0].AsString(), "a");
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(out[0][2].AsDouble(), 2.0);
  EXPECT_EQ(out[1][0].AsString(), "b");
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 2.0);
}

TEST(OperatorTest, HashAggregateMinMax) {
  std::vector<Row> rows = {R({int64_t{5}}), R({int64_t{-2}}),
                           R({int64_t{9}})};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kMin, Col(0)});
  aggs.push_back({AggSpec::Kind::kMax, Col(0)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan(rows), {},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), -2.0);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 9.0);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputEmitsZeroRow) {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(0)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan({}), {},
                                   std::move(aggs)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), 0.0);
}

TEST(OperatorTest, GroupedAggregateOnEmptyInputIsEmpty) {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  auto out = RunPlan(MakeHashAggregate(MakeValuesScan({}), {Col(0)},
                                   std::move(aggs)));
  EXPECT_TRUE(out.empty());
}

TEST(OperatorTest, OrderBySortsAscendingAndDescending) {
  std::vector<Row> rows = {R({int64_t{2}}), R({int64_t{3}}),
                           R({int64_t{1}})};
  auto asc = RunPlan(MakeOrderBy(MakeValuesScan(rows), {{Col(0), true}}));
  EXPECT_EQ(asc[0][0].AsInt(), 1);
  EXPECT_EQ(asc[2][0].AsInt(), 3);
  auto desc = RunPlan(MakeOrderBy(MakeValuesScan(rows), {{Col(0), false}}));
  EXPECT_EQ(desc[0][0].AsInt(), 3);
}

TEST(OperatorTest, OrderByTieBreaksWithSecondKey) {
  std::vector<Row> rows = {R({int64_t{1}, std::string("b")}),
                           R({int64_t{1}, std::string("a")})};
  auto out = RunPlan(MakeOrderBy(MakeValuesScan(rows),
                             {{Col(0), true}, {Col(1), true}}));
  EXPECT_EQ(out[0][1].AsString(), "a");
}

// Randomized join+aggregate against a reference implementation.
class ExecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecPropertyTest, JoinAggregateMatchesReference) {
  Rng rng(GetParam());
  std::vector<Row> fact;
  std::vector<Row> dim;
  const int num_keys = 20;
  for (int i = 0; i < num_keys; ++i) {
    dim.push_back(R({int64_t{i}, std::string(i % 3 == 0 ? "g0" : "g1")}));
  }
  for (int i = 0; i < 500; ++i) {
    fact.push_back(
        R({rng.Uniform(0, num_keys + 5), rng.Uniform(1, 100)}));
  }

  // Reference: sum fact.v grouped by dim.group for joined keys.
  std::map<std::string, double> expected;
  for (const Row& f : fact) {
    const int64_t k = f[0].AsInt();
    if (k < num_keys) {
      expected[k % 3 == 0 ? "g0" : "g1"] += static_cast<double>(f[1].AsInt());
    }
  }

  std::vector<AggSpec> aggs;
  aggs.push_back({AggSpec::Kind::kSum, Col(1)});
  auto out = RunPlan(MakeHashAggregate(
      MakeHashJoin(MakeValuesScan(fact), 0, MakeValuesScan(dim), 0),
      {Col(3)}, std::move(aggs)));

  std::map<std::string, double> got;
  for (const Row& row : out) got[row[0].AsString()] = row[1].AsDouble();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_NEAR(got[k], v, 1e-6) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------------------------------------
// Scan sources
// --------------------------------------------------------------------------

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = catalog_.CreateTable(
        "t", Schema({{"k", DataType::kInt64},
                     {"v", DataType::kDouble},
                     {"s", DataType::kString}}));
    catalog_.CreateIndex("t_k", "t", {0}, false);
    column_ = std::make_unique<ColumnTable>(table_->schema());
    for (int i = 0; i < 2500; ++i) {
      const Row row{int64_t{i}, static_cast<double>(i) / 2,
                    std::string(i % 2 == 0 ? "even" : "odd")};
      const Rid rid = table_->Insert(row, 1, nullptr);
      catalog_.GetIndex("t_k")->tree->Insert(
          catalog_.GetIndex("t_k")->KeyFor(row, rid), rid, nullptr);
      ASSERT_TRUE(column_->Append(row, nullptr).ok());
    }
  }

  ScanSpec BaseSpec() {
    ScanSpec spec;
    spec.table = "t";
    spec.projection = {0, 2};
    return spec;
  }

  Catalog catalog_;
  RowTable* table_ = nullptr;
  std::unique_ptr<ColumnTable> column_;
};

TEST_F(ScanTest, RowScanProjectsAndFilters) {
  RowDataSource source(&catalog_, /*snapshot=*/1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 10, 19}};
  spec.str_in = {{2, {"even"}}};
  auto out = RunPlan(source.Scan(spec));
  ASSERT_EQ(out.size(), 5u);  // 10,12,14,16,18
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_EQ(out[0][0].AsInt(), 10);
  EXPECT_EQ(out[0][1].AsString(), "even");
}

TEST_F(ScanTest, RowScanHonorsSnapshot) {
  // New row inserted at ts=5 is invisible to a snapshot at ts=1.
  table_->Insert(Row{int64_t{9999}, 0.0, std::string("even")}, 5, nullptr);
  RowDataSource old_source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 9999, 9999}};
  EXPECT_TRUE(RunPlan(old_source.Scan(spec)).empty());
  RowDataSource new_source(&catalog_, 5);
  EXPECT_EQ(RunPlan(new_source.Scan(spec)).size(), 1u);
}

TEST_F(ScanTest, ColumnScanMatchesRowScan) {
  RowDataSource row_source(&catalog_, 1);
  ColumnDataSource col_source;
  col_source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{1, 100.0, 200.0}};  // v in [100, 200]
  spec.str_in = {{2, {"odd"}}};
  auto rows = RunPlan(row_source.Scan(spec));
  auto cols = RunPlan(col_source.Scan(spec));
  ASSERT_EQ(rows.size(), cols.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], cols[i]);
}

TEST_F(ScanTest, ColumnScanRespectsBound) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), /*bound=*/100);
  auto out = RunPlan(source.Scan(BaseSpec()));
  EXPECT_EQ(out.size(), 100u);
}

TEST_F(ScanTest, ColumnScanImpossibleStringPredicate) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.str_in = {{2, {"no-such-value"}}};
  EXPECT_TRUE(RunPlan(source.Scan(spec)).empty());
}

TEST_F(ScanTest, ZoneMapPruningSkipsBlocks) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 0, 10}};  // first block only (k ascending)
  WorkMeter meter;
  auto out = RunPlan(source.Scan(spec), &meter);
  EXPECT_EQ(out.size(), 11u);
  // Cells evaluated must be far below a full 2500-row scan: only block 0
  // (1024 rows) and the pruned remainder contribute.
  EXPECT_LT(meter.column_values, 1200 * 3u);
}

TEST_F(ScanTest, IndexHintUsesIndexScan) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 59}};
  spec.index_hint = "t_k";
  WorkMeter meter;
  auto out = RunPlan(source.Scan(spec), &meter);
  ASSERT_EQ(out.size(), 10u);
  // Index scan touches ~10 rows, not 2500.
  EXPECT_LT(meter.rows_read, 50u);
  EXPECT_GT(meter.index_nodes, 0u);
}

TEST_F(ScanTest, IndexHintFallsBackWhenIndexMissing) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 59}};
  spec.index_hint = "no_such_index";
  auto out = RunPlan(source.Scan(spec));
  EXPECT_EQ(out.size(), 10u);  // same answer via sequential scan
}

TEST_F(ScanTest, IndexScanResultsMatchSeqScan) {
  RowDataSource source(&catalog_, 1);
  ScanSpec seq = BaseSpec();
  seq.ranges = {{0, 100, 220}};
  seq.str_in = {{2, {"odd"}}};
  ScanSpec idx = seq;
  idx.index_hint = "t_k";
  auto a = RunPlan(source.Scan(seq));
  auto b = RunPlan(source.Scan(idx));
  ASSERT_EQ(a.size(), b.size());
  // Index scan returns in key order == rid order here.
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// --------------------------------------------------------------------------
// Expression ToString coverage (one assertion per node type)
// --------------------------------------------------------------------------

TEST(ExpressionTest, ToStringCoversEveryNodeType) {
  EXPECT_EQ(Col(3)->ToString(), "$3");
  EXPECT_EQ(Lit(Value(int64_t{5}))->ToString(), "5");
  EXPECT_EQ(Lit(Value(2.5))->ToString(), "2.5000");
  EXPECT_EQ(Lit(Value("x"))->ToString(), "x");
  EXPECT_EQ(Add(Col(0), Col(1))->ToString(), "($0 + $1)");
  EXPECT_EQ(Sub(Col(0), Col(1))->ToString(), "($0 - $1)");
  EXPECT_EQ(Mul(Col(0), Col(1))->ToString(), "($0 * $1)");
  EXPECT_EQ(Eq(Col(0), Col(1))->ToString(), "($0 = $1)");
  EXPECT_EQ(Ne(Col(0), Col(1))->ToString(), "($0 <> $1)");
  EXPECT_EQ(Lt(Col(0), Col(1))->ToString(), "($0 < $1)");
  EXPECT_EQ(Le(Col(0), Col(1))->ToString(), "($0 <= $1)");
  EXPECT_EQ(Gt(Col(0), Col(1))->ToString(), "($0 > $1)");
  EXPECT_EQ(Ge(Col(0), Col(1))->ToString(), "($0 >= $1)");
  EXPECT_EQ(And(Col(0), Col(1))->ToString(), "($0 AND $1)");
  EXPECT_EQ(Or(Col(0), Col(1))->ToString(), "($0 OR $1)");
  EXPECT_EQ(Not(Col(0))->ToString(), "NOT $0");
  // Between lowers to the conjunction of two inclusive comparisons.
  EXPECT_EQ(Between(Col(0), Value(int64_t{1}), Value(int64_t{3}))->ToString(),
            "(($0 >= 1) AND ($0 <= 3))");
  EXPECT_EQ(InList(Col(0), {Value("a"), Value("b")})->ToString(),
            "$0 IN (a, b)");
}

// --------------------------------------------------------------------------
// Vectorized execution: EvalBatch and batch-at-a-time operators must be
// bit-identical to the retained row-at-a-time oracle, including metered
// work, at any batch size.
// --------------------------------------------------------------------------

TEST(BatchTest, DefaultBatchRowsMatchesZoneMapBlocks) {
  // A full batch must never straddle a zone-map block boundary, which the
  // column scan relies on for pruning parity at any batch size.
  EXPECT_EQ(kDefaultBatchRows, ColumnTable::kBlockRows);
}

TEST(BatchTest, SelectionVectorBasics) {
  Batch b;
  b.AppendRow(R({int64_t{10}}));
  b.AppendRow(R({int64_t{20}}));
  b.AppendRow(R({int64_t{30}}));
  EXPECT_EQ(b.ActiveRows(), 3u);
  b.sel.idx = {0, 2};
  b.filtered = true;
  ASSERT_EQ(b.ActiveRows(), 2u);
  EXPECT_EQ(b.cols[0].ints[b.ActiveIndex(1)], 30);
  std::vector<Row> out;
  b.AppendActiveRows(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][0].AsInt(), 30);
}

TEST(BatchTest, AppendRowSplitsOnTypeSkew) {
  Batch b;
  b.AppendRow(R({int64_t{1}}));
  EXPECT_TRUE(b.TypesMatch(R({int64_t{2}})));
  EXPECT_FALSE(b.TypesMatch(R({std::string("s")})));
  EXPECT_FALSE(b.TypesMatch(R({int64_t{1}, int64_t{2}})));
}

// Evaluates every expression-kernel shape over randomized rows and checks
// the vectorized result cell-for-cell against the per-row interpreter.
TEST(ExpressionTest, EvalBatchMatchesEvalOracle) {
  Rng rng(99);
  const std::vector<std::string> strings = {"a", "b", "c"};
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(R({rng.Uniform(-5, 5), rng.Uniform(0, 10),
                      static_cast<double>(rng.Uniform(-100, 100)) / 4,
                      Value(strings[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(strings.size()) - 1))])}));
  }
  Batch batch;
  for (const Row& row : rows) batch.AppendRow(row);

  const std::vector<ExprPtr> exprs = {
      Col(0),
      Col(3),
      Lit(Value(int64_t{7})),
      Lit(Value(1.5)),
      Lit(Value("b")),
      Add(Col(0), Col(1)),
      Sub(Col(0), Lit(Value(int64_t{2}))),
      Mul(Col(0), Col(1)),
      Add(Col(0), Col(2)),  // int + double promotes
      Mul(Col(2), Lit(Value(2.0))),
      Lt(Col(0), Col(1)),
      Le(Col(2), Lit(Value(0.5))),
      Gt(Col(2), Col(0)),
      Ge(Col(1), Lit(Value(int64_t{5}))),
      Eq(Col(3), Lit(Value("a"))),
      Ne(Col(3), Lit(Value("c"))),
      Lt(Col(3), Lit(Value("b"))),
      Eq(Col(0), Col(3)),  // mixed int/string: row-fallback path
      And(Lt(Col(0), Col(1)), Eq(Col(3), Lit(Value("a")))),
      Or(Ge(Col(0), Lit(Value(int64_t{4}))), Eq(Col(3), Lit(Value("b")))),
      Not(Eq(Col(3), Lit(Value("c")))),
      Between(Col(0), Value(int64_t{-1}), Value(int64_t{3})),
      InList(Col(3), {Value("a"), Value("c")}),
      InList(Col(0), {Value(int64_t{0}), Value(int64_t{2})}),
  };
  for (const ExprPtr& e : exprs) {
    ColumnVector vec;
    e->EvalBatch(batch, &vec);
    ASSERT_EQ(vec.size(), rows.size()) << e->ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value want = e->Eval(rows[i]);
      const Value got = vec.GetValue(i);
      ASSERT_EQ(want.type(), got.type()) << e->ToString() << " row " << i;
      ASSERT_EQ(want, got) << e->ToString() << " row " << i;
    }
  }
}

using PlanFactory = std::function<OperatorPtr()>;

std::vector<Row> RunWithMode(const PlanFactory& make, bool vectorized,
                             size_t batch_rows, WorkMeter* meter) {
  ExecContext ctx{meter};
  ctx.vectorized = vectorized;
  ctx.batch_rows = batch_rows;
  OperatorPtr plan = make();
  return Collect(plan.get(), &ctx);
}

void ExpectSameMeter(const WorkMeter& got, const WorkMeter& want) {
  EXPECT_EQ(got.rows_read, want.rows_read);
  EXPECT_EQ(got.rows_written, want.rows_written);
  EXPECT_EQ(got.index_nodes, want.index_nodes);
  EXPECT_EQ(got.index_writes, want.index_writes);
  EXPECT_EQ(got.column_values, want.column_values);
  EXPECT_EQ(got.output_rows, want.output_rows);
  EXPECT_EQ(got.hash_probes, want.hash_probes);
  EXPECT_EQ(got.version_hops, want.version_hops);
  EXPECT_EQ(got.Total(), want.Total());
}

/// Runs `make`'s plan through the row oracle and through the vectorized
/// path at degenerate, odd, and default batch sizes; results and metered
/// work must match exactly in every configuration.
void ExpectBatchMatchesRowOracle(const PlanFactory& make) {
  WorkMeter oracle_meter;
  const std::vector<Row> oracle =
      RunWithMode(make, /*vectorized=*/false, 1, &oracle_meter);
  for (const size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    WorkMeter meter;
    const std::vector<Row> got =
        RunWithMode(make, /*vectorized=*/true, batch_rows, &meter);
    ASSERT_EQ(got.size(), oracle.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], oracle[i]) << "row " << i;
    }
    ExpectSameMeter(meter, oracle_meter);
  }
}

TEST(BatchDifferentialTest, FilterProject) {
  std::vector<Row> rows;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    rows.push_back(R({rng.Uniform(0, 50), rng.Uniform(0, 100)}));
  }
  ExpectBatchMatchesRowOracle([&] {
    return MakeProject(
        MakeFilter(MakeValuesScan(rows),
                   And(Ge(Col(0), Lit(Value(int64_t{10}))),
                       Lt(Col(1), Lit(Value(int64_t{80}))))),
        {Add(Col(0), Col(1)), Mul(Col(0), Lit(Value(int64_t{3})))});
  });
}

TEST(BatchDifferentialTest, FilterRejectingEverything) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(R({int64_t{i}}));
  ExpectBatchMatchesRowOracle([&] {
    return MakeFilter(MakeValuesScan(rows), Lt(Col(0), Lit(Value(int64_t{0}))));
  });
}

TEST(BatchDifferentialTest, JoinAggregateOrderBy) {
  Rng rng(42);
  std::vector<Row> fact;
  std::vector<Row> dim;
  for (int i = 0; i < 25; ++i) {
    dim.push_back(R({int64_t{i}, Value(i % 4 == 0 ? "g0" : "g1")}));
  }
  for (int i = 0; i < 600; ++i) {
    fact.push_back(R({rng.Uniform(0, 30), rng.Uniform(1, 100)}));
  }
  ExpectBatchMatchesRowOracle([&] {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(1)});
    aggs.push_back({AggSpec::Kind::kCount, nullptr});
    aggs.push_back({AggSpec::Kind::kMin, Col(1)});
    aggs.push_back({AggSpec::Kind::kMax, Col(1)});
    return MakeOrderBy(
        MakeHashAggregate(
            MakeHashJoin(MakeValuesScan(fact), 0, MakeValuesScan(dim), 0),
            {Col(3)}, std::move(aggs)),
        {{Col(1), false}});
  });
}

TEST(BatchDifferentialTest, JoinWithDuplicatesAndMisses) {
  Rng rng(7);
  std::vector<Row> fact;
  std::vector<Row> dim;
  for (int i = 0; i < 40; ++i) {
    // Keys 0..19, most twice; 20..29 never probed.
    const int64_t key = i < 30 ? i % 20 : 20 + i % 10;
    dim.push_back(R({Value("d" + std::to_string(i)), key}));
  }
  for (int i = 0; i < 400; ++i) {
    fact.push_back(R({rng.Uniform(1, 9), rng.Uniform(0, 24), 0.25 * i}));
  }
  ExpectBatchMatchesRowOracle([&] {
    return MakeHashJoin(
        MakeFilter(MakeValuesScan(fact), Ne(Col(0), Lit(Value(int64_t{3})))),
        1, MakeValuesScan(dim), 1);
  });
}

TEST(BatchDifferentialTest, GlobalAggregateEmptyInput) {
  ExpectBatchMatchesRowOracle([] {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(0)});
    return MakeHashAggregate(MakeValuesScan({}), {}, std::move(aggs));
  });
}

TEST_F(ScanTest, RowScanBatchMatchesRowOracle) {
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 100, 1500}};
  spec.str_in = {{2, {"even"}}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, ColumnScanBatchMatchesRowOracle) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.projection = {0, 1, 2};
  spec.ranges = {{0, 900, 2100}, {1, 0.0, 1000.0}};
  spec.str_in = {{2, {"odd"}}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, ColumnScanBatchPrunesLikeRowOracle) {
  // Predicate selects only the first zone-map block, so pruning parity is
  // load-bearing for the meter comparison inside the harness.
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 0, 10}};
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, IndexScanBatchMatchesRowOracle) {
  // Index range scans stay row-native; this exercises the base-class
  // row-to-batch adapter end to end.
  RowDataSource source(&catalog_, 1);
  ScanSpec spec = BaseSpec();
  spec.ranges = {{0, 50, 400}};
  spec.index_hint = "t_k";
  ExpectBatchMatchesRowOracle([&] { return source.Scan(spec); });
}

TEST_F(ScanTest, FullPlanOverColumnScanMatchesRowOracle) {
  ColumnDataSource source;
  source.AddTable("t", column_.get(), column_->num_rows());
  ExpectBatchMatchesRowOracle([&] {
    ScanSpec spec;
    spec.table = "t";
    spec.projection = {0, 1, 2};
    spec.ranges = {{0, 0, 2000}};
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Kind::kSum, Col(1)});
    aggs.push_back({AggSpec::Kind::kCount, nullptr});
    return MakeHashAggregate(
        MakeFilter(source.Scan(spec), Eq(Col(2), Lit(Value("even")))),
        {Col(2)}, std::move(aggs));
  });
}

}  // namespace
}  // namespace hattrick
