// Tests for the benchmark drivers: determinism, throughput scaling and
// saturation, the interference signatures of the three designs, and
// freshness semantics per design/replication mode — the core behavioural
// claims of the paper's evaluation — plus the client-procedure contract
// that the virtual-time and wall-clock drivers both keep.

#include <memory>
#include <string>
#include <tuple>

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

DatagenConfig TinyConfig() {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1500;
  config.seed = 3;
  config.num_freshness_tables = 32;
  return config;
}

WorkloadConfig QuickRun(int t, int a) {
  WorkloadConfig config;
  config.t_clients = t;
  config.a_clients = a;
  config.warmup_seconds = 0.1;
  config.measure_seconds = 0.5;
  config.seed = 5;
  return config;
}

class DriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateDataset(TinyConfig()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }


  static Dataset* dataset_;
};

Dataset* DriverTest::dataset_ = nullptr;

template <typename EngineT, typename ConfigT>
std::unique_ptr<EngineT> LoadEngine(const Dataset& dataset,
                                    ConfigT config = {}) {
  auto engine = std::make_unique<EngineT>(config);
  EXPECT_TRUE(
      LoadDataset(dataset, PhysicalSchema::kAllIndexes, engine.get()).ok());
  return engine;
}

TEST_F(DriverTest, DeterministicAcrossRuns) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const RunMetrics a = driver.Run(QuickRun(3, 2));
  const RunMetrics b = driver.Run(QuickRun(3, 2));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_DOUBLE_EQ(a.t_throughput, b.t_throughput);
}

TEST_F(DriverTest, SeedChangesRun) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  WorkloadConfig config = QuickRun(3, 2);
  const RunMetrics a = driver.Run(config);
  config.seed = 999;
  const RunMetrics b = driver.Run(config);
  EXPECT_NE(a.committed, b.committed);
}

TEST_F(DriverTest, ThroughputGrowsWithClientsUntilSaturation) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const double tps1 = driver.Run(QuickRun(1, 0)).t_throughput;
  const double tps4 = driver.Run(QuickRun(4, 0)).t_throughput;
  const double tps8 = driver.Run(QuickRun(8, 0)).t_throughput;
  EXPECT_GT(tps4, tps1 * 2);
  // Growth flattens near saturation (row-lock contention on the tiny
  // dataset caps it even before the core count).
  EXPECT_GT(tps8, tps4);
  const double tps24 = driver.Run(QuickRun(24, 0)).t_throughput;
  EXPECT_LT(tps24, tps8 * 1.5);
}

TEST_F(DriverTest, PureWorkloadsProduceOnlyTheirMetrics) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const RunMetrics pure_t = driver.Run(QuickRun(4, 0));
  EXPECT_GT(pure_t.committed, 0u);
  EXPECT_EQ(pure_t.queries, 0u);
  const RunMetrics pure_a = driver.Run(QuickRun(0, 3));
  EXPECT_EQ(pure_a.committed, 0u);
  EXPECT_GT(pure_a.queries, 0u);
}

TEST_F(DriverTest, SharedDesignShowsInterference) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const double t_alone = driver.Run(QuickRun(6, 0)).t_throughput;
  const double t_mixed = driver.Run(QuickRun(6, 6)).t_throughput;
  // Analytical clients steal shared cores: T throughput must drop
  // noticeably (Figure 5 behaviour).
  EXPECT_LT(t_mixed, t_alone * 0.85);
}

TEST_F(DriverTest, IsolatedDesignShieldsTransactions) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  auto engine =
      LoadEngine<IsolatedEngine, IsolatedEngineConfig>(*dataset_, config);
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, IsolatedSimSetup());
  const double t_alone = driver.Run(QuickRun(6, 0)).t_throughput;
  const double t_mixed = driver.Run(QuickRun(6, 6)).t_throughput;
  // Dedicated pools: adding A clients barely affects T (Figure 7).
  EXPECT_GT(t_mixed, t_alone * 0.9);
}

TEST_F(DriverTest, SharedAndHybridFreshnessIsZero) {
  {
    auto engine =
        LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
    WorkloadContext context(*dataset_);
    SimDriver driver(engine.get(), &context, SharedSimSetup());
    const RunMetrics metrics = driver.Run(QuickRun(6, 3));
    ASSERT_FALSE(metrics.freshness.empty());
    EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  }
  for (const MergeMode mode : kMergeModes) {
    SCOPED_TRACE(MergeModeName(mode));
    auto engine = LoadEngine<HybridEngine, HybridEngineConfig>(
        *dataset_, WithMergeMode(SystemXConfig(), mode));
    WorkloadContext context(*dataset_);
    SimDriver driver(engine.get(), &context, HybridSimSetup());
    const RunMetrics metrics = driver.Run(QuickRun(6, 3));
    ASSERT_FALSE(metrics.freshness.empty());
    EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  }
}

TEST_F(DriverTest, IsolatedOnModeProducesStaleness) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  auto engine =
      LoadEngine<IsolatedEngine, IsolatedEngineConfig>(*dataset_, config);
  WorkloadContext context(*dataset_);
  // Force the standby applier to be slower than the T-heavy commit rate
  // so the mechanism (lag -> stale snapshots -> positive freshness) is
  // exercised independent of the default calibration.
  SimSetup setup = IsolatedSimSetup();
  setup.cost.replay_multiplier = 12.0;
  SimDriver driver(engine.get(), &context, setup);
  // T-heavy mix: the standby applier falls behind (Figure 7/8 behaviour).
  const RunMetrics metrics = driver.Run(QuickRun(12, 2));
  ASSERT_FALSE(metrics.freshness.empty());
  EXPECT_GT(metrics.freshness.Percentile(0.99), 0.0);
}

TEST_F(DriverTest, IsolatedRemoteApplyFreshnessZero) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kRemoteApply;
  auto engine =
      LoadEngine<IsolatedEngine, IsolatedEngineConfig>(*dataset_, config);
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, IsolatedSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(12, 2));
  ASSERT_FALSE(metrics.freshness.empty());
  EXPECT_DOUBLE_EQ(metrics.freshness.Max(), 0.0);
  EXPECT_GT(metrics.committed, 0u);
}

TEST_F(DriverTest, RemoteApplyCostsTransactionThroughput) {
  // A slow applier makes the remote-apply wait the bottleneck.
  SimSetup setup = IsolatedSimSetup();
  setup.cost.replay_multiplier = 12.0;

  IsolatedEngineConfig on_config;
  on_config.mode = ReplicationMode::kSyncShip;
  auto on_engine = LoadEngine<IsolatedEngine, IsolatedEngineConfig>(
      *dataset_, on_config);
  WorkloadContext on_context(*dataset_);
  SimDriver on_driver(on_engine.get(), &on_context, setup);
  const double on_tps = on_driver.Run(QuickRun(8, 0)).t_throughput;

  IsolatedEngineConfig ra_config;
  ra_config.mode = ReplicationMode::kRemoteApply;
  auto ra_engine = LoadEngine<IsolatedEngine, IsolatedEngineConfig>(
      *dataset_, ra_config);
  WorkloadContext ra_context(*dataset_);
  SimDriver ra_driver(ra_engine.get(), &ra_context, setup);
  const double ra_tps = ra_driver.Run(QuickRun(8, 0)).t_throughput;

  // The paper's Figure 8a trade-off: RA sacrifices T throughput for
  // freshness.
  EXPECT_LT(ra_tps, on_tps);
}

TEST_F(DriverTest, LatencySamplersPopulated) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(4, 2));
  EXPECT_EQ(metrics.txn_latency.count(), metrics.committed);
  EXPECT_EQ(metrics.query_latency.count(), metrics.queries);
  size_t by_type = 0;
  for (const auto& sampler : metrics.txn_latency_by_type) {
    by_type += sampler.count();
  }
  EXPECT_EQ(by_type, metrics.committed);
  size_t by_query = 0;
  for (const auto& sampler : metrics.query_latency_by_id) {
    by_query += sampler.count();
  }
  EXPECT_EQ(by_query, metrics.queries);
  EXPECT_EQ(metrics.freshness.count(), metrics.queries);
  EXPECT_GT(metrics.txn_latency.Percentile(0.99), 0.0);
}

TEST_F(DriverTest, NoFailuresOnHealthyRuns) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(4, 2));
  EXPECT_EQ(metrics.failed, 0u);
}

TEST_F(DriverTest, MakeRunnerWiresThrough) {
  auto engine = LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
  WorkloadContext context(*dataset_);
  SimDriver driver(engine.get(), &context, SharedSimSetup());
  PointRunner runner = MakeRunner(&driver, QuickRun(0, 0));
  const OperatingPoint p = runner(2, 1);
  EXPECT_EQ(p.t_clients, 2);
  EXPECT_EQ(p.a_clients, 1);
  EXPECT_GT(p.tps, 0);
  EXPECT_GT(p.qps, 0);
}

// ---------------------------------------------------------------------------
// Driver contract: both drivers run one client procedure, so both must
// report internally consistent metrics and the same commit-wait spans.
// Under ThreadSanitizer this also runs the client core on real threads.
// ---------------------------------------------------------------------------

enum class Design {
  kShared,
  kIsolatedShip,
  kIsolatedApply,
  kHybrid,  // eager merge
  kHybridBitmap,
};

const char* DesignName(Design design) {
  switch (design) {
    case Design::kShared:
      return "Shared";
    case Design::kIsolatedShip:
      return "IsolatedShip";
    case Design::kIsolatedApply:
      return "IsolatedApply";
    case Design::kHybrid:
      return "Hybrid";
    case Design::kHybridBitmap:
      return "HybridBitmap";
  }
  return "";
}

DatagenConfig MiniConfig() {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1200;
  config.seed = 21;
  config.num_freshness_tables = 16;
  return config;
}

using ContractParam = std::tuple<bool, Design>;  // (threaded, design)

class DriverContractTest : public ::testing::TestWithParam<ContractParam> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateDataset(MiniConfig()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::unique_ptr<HtapEngine> MakeEngine(Design design) {
    switch (design) {
      case Design::kShared:
        return LoadEngine<SharedEngine, SharedEngineConfig>(*dataset_, {});
      case Design::kIsolatedShip:
      case Design::kIsolatedApply: {
        IsolatedEngineConfig config;
        config.mode = design == Design::kIsolatedShip
                          ? ReplicationMode::kSyncShip
                          : ReplicationMode::kRemoteApply;
        return LoadEngine<IsolatedEngine, IsolatedEngineConfig>(*dataset_,
                                                                config);
      }
      case Design::kHybrid:
      case Design::kHybridBitmap:
        return LoadEngine<HybridEngine, HybridEngineConfig>(
            *dataset_, WithMergeMode(SystemXConfig(),
                                     design == Design::kHybrid
                                         ? MergeMode::kEager
                                         : MergeMode::kBitmap));
    }
    return nullptr;
  }

  static SimSetup SetupFor(Design design) {
    switch (design) {
      case Design::kShared:
        return SharedSimSetup();
      case Design::kIsolatedShip:
      case Design::kIsolatedApply:
        return IsolatedSimSetup();
      case Design::kHybrid:
      case Design::kHybridBitmap:
        return HybridSimSetup();
    }
    return SimSetup{};
  }

  static Dataset* dataset_;
};

Dataset* DriverContractTest::dataset_ = nullptr;

TEST_P(DriverContractTest, MetricsAgreeAndCommitWaitsAreTraced) {
  const bool threaded = std::get<0>(GetParam());
  const Design design = std::get<1>(GetParam());
  std::unique_ptr<HtapEngine> engine = MakeEngine(design);
  WorkloadContext context(*dataset_);
  WorkloadConfig config;
  config.t_clients = 3;
  config.a_clients = 2;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.3;
  config.seed = 17;
  config.profile_queries = true;
  obs::Tracer tracer;
  RunMetrics m;
  if (threaded) {
    ThreadedDriver driver(engine.get(), &context);
    driver.SetTracer(&tracer);
    m = driver.Run(config);
  } else {
    SimDriver driver(engine.get(), &context, SetupFor(design));
    driver.SetTracer(&tracer);
    m = driver.Run(config);
  }
  ASSERT_GT(m.committed, 0u);
  ASSERT_GT(m.queries, 0u);

  uint64_t committed = 0;
  uint64_t aborts = 0;
  size_t txn_samples = 0;
  for (int t = 0; t < 3; ++t) {
    committed += m.committed_by_type[t];
    aborts += m.aborts_by_type[t];
    txn_samples += m.txn_latency_by_type[t].count();
  }
  EXPECT_EQ(m.committed, committed);
  EXPECT_EQ(m.aborts, aborts);
  EXPECT_EQ(m.txn_latency.count(), m.committed);
  EXPECT_EQ(txn_samples, m.committed);

  size_t query_samples = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    query_samples += m.query_latency_by_id[q].count();
    if (m.query_latency_by_id[q].count() > 0) {
      EXPECT_FALSE(m.query_profiles[q].empty()) << QueryName(q);
    }
  }
  EXPECT_EQ(m.query_latency.count(), m.queries);
  EXPECT_EQ(query_samples, m.queries);
  EXPECT_EQ(m.freshness.count(), m.queries);

  EXPECT_EQ(m.measure_seconds, config.measure_seconds);
  EXPECT_DOUBLE_EQ(m.t_throughput,
                   static_cast<double>(m.committed) / m.measure_seconds);
  EXPECT_DOUBLE_EQ(m.a_throughput,
                   static_cast<double>(m.queries) / m.measure_seconds);

  // Replicated commits wait on the standby, and that wait is traced as a
  // child span of the transaction; the single-copy designs never wait.
  const std::string wait_span =
      design == Design::kIsolatedShip    ? "commit-wait-ship"
      : design == Design::kIsolatedApply ? "commit-wait-apply"
                                         : "";
  size_t waits = 0;
  for (const obs::Span& span : tracer.Spans()) {
    if (span.name.rfind("commit-wait-", 0) == 0) {
      EXPECT_EQ(span.name, wait_span);
      ++waits;
    }
  }
  if (wait_span.empty()) {
    EXPECT_EQ(waits, 0u);
  } else {
    EXPECT_GT(waits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothDrivers, DriverContractTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Design::kShared,
                                         Design::kIsolatedShip,
                                         Design::kIsolatedApply,
                                         Design::kHybrid,
                                         Design::kHybridBitmap)),
    [](const ::testing::TestParamInfo<ContractParam>& info) {
      return std::string(std::get<0>(info.param) ? "Threaded" : "Sim") +
             DesignName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hattrick
