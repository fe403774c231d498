// End-to-end integration tests: a miniature HATtrick benchmark run per
// engine through the full stack (datagen -> load -> saturation method ->
// grid graph -> frontier -> freshness), plus a wall-clock ThreadedDriver
// run exercising the engines under real concurrency.

#include <memory>

#include <gtest/gtest.h>

#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "hattrick/frontier.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

DatagenConfig MiniConfig() {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1200;
  config.seed = 21;
  config.num_freshness_tables = 16;
  return config;
}

FrontierOptions MiniOptions() {
  FrontierOptions options;
  options.lines = 3;
  options.points_per_line = 3;
  options.max_clients = 16;
  return options;
}

WorkloadConfig MiniBase() {
  WorkloadConfig config;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.3;
  config.seed = 17;
  return config;
}

TEST(IntegrationTest, SharedEngineFullPipeline) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  SimDriver driver(&engine, &context, SharedSimSetup());
  const GridGraph grid =
      BuildGridGraph(MakeRunner(&driver, MiniBase()), MiniOptions());

  EXPECT_GT(grid.xt, 0);
  EXPECT_GT(grid.xa, 0);
  EXPECT_GE(grid.tau_max, 1);
  EXPECT_GE(grid.alpha_max, 1);
  EXPECT_FALSE(grid.frontier.empty());
  // Shared design: never classified as isolation.
  EXPECT_NE(ClassifyFrontier(grid), FrontierPattern::kIsolation);
}

TEST(IntegrationTest, IsolatedEngineFrontierAboveShared) {
  const Dataset dataset = GenerateDataset(MiniConfig());

  SharedEngine shared;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &shared).ok());
  WorkloadContext shared_context(dataset);
  SimDriver shared_driver(&shared, &shared_context, SharedSimSetup());
  const GridGraph shared_grid =
      BuildGridGraph(MakeRunner(&shared_driver, MiniBase()), MiniOptions());

  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine isolated(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &isolated).ok());
  WorkloadContext isolated_context(dataset);
  SimDriver isolated_driver(&isolated, &isolated_context,
                            IsolatedSimSetup());
  const GridGraph isolated_grid = BuildGridGraph(
      MakeRunner(&isolated_driver, MiniBase()), MiniOptions());

  // The isolated design achieves better coverage of its bounding box
  // (performance isolation, Section 6.3).
  EXPECT_GT(FrontierCoverage(isolated_grid),
            FrontierCoverage(shared_grid));
}

class HybridIntegrationTest : public ::testing::TestWithParam<MergeMode> {};

TEST_P(HybridIntegrationTest, HybridEngineMiniRun) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  HybridEngine engine(WithMergeMode(SystemXConfig(), GetParam()));
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  SimDriver driver(&engine, &context, HybridSimSetup());
  WorkloadConfig config = MiniBase();
  config.t_clients = 4;
  config.a_clients = 2;
  const RunMetrics metrics = driver.Run(config);
  EXPECT_GT(metrics.committed, 0u);
  EXPECT_GT(metrics.queries, 0u);
  EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
}

TEST(IntegrationTest, ThreadedDriverSharedEngine) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  SharedEngine engine;
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  ThreadedDriver driver(&engine, &context);
  WorkloadConfig config;
  config.t_clients = 2;
  config.a_clients = 1;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.4;
  const RunMetrics metrics = driver.Run(config);
  EXPECT_GT(metrics.committed, 0u);
  EXPECT_GT(metrics.queries, 0u);
  EXPECT_EQ(metrics.failed, 0u);
  // Single up-to-date copy: wall-clock freshness is identically zero.
  if (!metrics.freshness.empty()) {
    EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  }
}

TEST(IntegrationTest, ThreadedDriverIsolatedEngineRemoteApply) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kRemoteApply;
  IsolatedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  ThreadedDriver driver(&engine, &context);
  WorkloadConfig run;
  run.t_clients = 2;
  run.a_clients = 1;
  run.warmup_seconds = 0.05;
  run.measure_seconds = 0.4;
  const RunMetrics metrics = driver.Run(run);
  EXPECT_GT(metrics.committed, 0u);
  // Remote-apply commits wait for replay: analytics always fresh.
  if (!metrics.freshness.empty()) {
    EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  }
}

TEST_P(HybridIntegrationTest, ThreadedDriverHybridEngine) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  HybridEngine engine(WithMergeMode(TidbConfig(), GetParam()));
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(dataset);
  ThreadedDriver driver(&engine, &context);
  WorkloadConfig run;
  // Two A-threads: concurrent BeginAnalytics exercises merge ordering
  // (regression coverage for out-of-order delta application).
  run.t_clients = 2;
  run.a_clients = 2;
  run.warmup_seconds = 0.05;
  run.measure_seconds = 0.4;
  const RunMetrics metrics = driver.Run(run);
  EXPECT_GT(metrics.committed, 0u);
  EXPECT_GT(metrics.queries, 0u);
  if (!metrics.freshness.empty()) {
    EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(MergeModes, HybridIntegrationTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);

TEST(IntegrationTest, RatioFreshnessMeasurement) {
  const Dataset dataset = GenerateDataset(MiniConfig());
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine engine(config);
  ASSERT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(dataset);
  SimDriver driver(&engine, &context, IsolatedSimSetup());
  PointRunner runner = MakeRunner(&driver, MiniBase());
  // Minimal sanity of the three ratio points the paper annotates.
  const OperatingPoint heavy_t = runner(8, 2);
  const OperatingPoint heavy_a = runner(2, 8);
  EXPECT_GT(heavy_t.tps, heavy_a.tps);
  EXPECT_GE(heavy_t.freshness_p99, 0.0);
}

}  // namespace
}  // namespace hattrick
