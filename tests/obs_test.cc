// Tests for src/obs: the metrics registry (sharded counters, probe
// gauges, deterministic reservoir histograms, sorted snapshots), the
// span tracer (clock injection, ring bounds, Chrome trace-event export),
// and the end-to-end observability contract of the drivers — two
// same-seed simulated runs must export byte-identical metrics and trace
// files.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "engine/hybrid_engine.h"
#include "engine/isolated_engine.h"
#include "engine/shared_engine.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "shard/shard_router.h"
#include "shard/sharded_engine.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

// --------------------------------------------------------------------------
// Counter / Gauge / Histogram
// --------------------------------------------------------------------------

TEST(CounterTest, StartsAtZeroAndSums) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndProbe) {
  obs::Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  double backing = 7.0;
  g.SetProbe([&backing] { return backing; });
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);  // probe wins over pushed value
  backing = 9.0;
  EXPECT_DOUBLE_EQ(g.Value(), 9.0);  // evaluated at read time
}

TEST(HistogramTest, EmptyIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, ExactBelowCapacity) {
  obs::Histogram h(128);
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
}

TEST(HistogramTest, ReservoirIsDeterministic) {
  // Same additions -> identical reservoir (fixed-seed algorithm R), so
  // two same-seed runs report identical percentiles even past capacity.
  obs::Histogram a(64);
  obs::Histogram b(64);
  for (int i = 0; i < 5000; ++i) {
    a.Add(i % 997);
    b.Add(i % 997);
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), b.Percentile(p)) << "p=" << p;
  }
}

TEST(HistogramTest, ReservoirPercentilesTrackExactSampler) {
  // Past capacity the reservoir is a 512-sample estimate; its percentiles
  // must stay close to the exact (full-sample) values. splitmix64-style
  // generator so the input stream is identical on every platform.
  obs::Histogram reservoir;  // default capacity (512)
  Sampler exact;
  uint64_t state = 42;
  for (int i = 0; i < 20000; ++i) {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double sample = static_cast<double>(z % 100000) / 100000.0;
    reservoir.Add(sample);
    exact.Add(sample);
  }
  EXPECT_EQ(reservoir.count(), 20000u);  // count is exact, only values sample
  const double range = exact.Max() - exact.Min();
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_NEAR(reservoir.Percentile(p), exact.Percentile(p), 0.05 * range)
        << "p=" << p;
  }
}

// --------------------------------------------------------------------------
// Sampler (common/histogram.h) — the exact series behind LatencySummary
// --------------------------------------------------------------------------

TEST(SamplerTest, MergeMatchesSingleSamplerExactly) {
  // Percentiles are computed on the sorted union, so merging per-thread
  // samplers (the threaded driver's shutdown path) must give bit-identical
  // results to one sampler that saw every value.
  Sampler combined;
  Sampler shards[4];
  uint64_t state = 7;
  for (int i = 0; i < 4000; ++i) {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    const double sample = static_cast<double>(z % 9973);
    combined.Add(sample);
    shards[i % 4].Add(sample);
  }
  Sampler merged;
  for (const Sampler& shard : shards) merged.Merge(shard);
  ASSERT_EQ(merged.count(), combined.count());
  EXPECT_DOUBLE_EQ(merged.Sum(), combined.Sum());
  for (double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), combined.Percentile(p))
        << "p=" << p;
  }
  const LatencySummary a = Summarize(merged);
  const LatencySummary b = Summarize(combined);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

TEST(SamplerTest, SummarizeEmptyIsAllZero) {
  const LatencySummary summary = Summarize(Sampler{});
  EXPECT_DOUBLE_EQ(summary.p50, 0.0);
  EXPECT_DOUBLE_EQ(summary.p95, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
}

// --------------------------------------------------------------------------
// MetricsRegistry / MetricsSnapshot
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, LookupCreatesAndReusesHandles) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x.count");
  obs::Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(registry.Snapshot().CountOf("x.count"), 3u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetGauge("alpha");
  registry.GetHistogram("middle");
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "middle");
  EXPECT_EQ(snap.entries[2].name, "zebra");
}

TEST(MetricsRegistryTest, JsonAndCsvAreDeterministic) {
  auto populate = [](obs::MetricsRegistry* r) {
    r->GetCounter("b.count")->Inc(7);
    r->GetGauge("a.gauge")->Set(1.5);
    obs::Histogram* h = r->GetHistogram("c.hist");
    for (int i = 0; i < 50; ++i) h->Add(i * 0.1);
  };
  obs::MetricsRegistry r1;
  obs::MetricsRegistry r2;
  // Registration order must not matter: touch names in reverse in r2.
  populate(&r1);
  r2.GetHistogram("c.hist");
  r2.GetGauge("a.gauge");
  r2.GetCounter("b.count");
  populate(&r2);
  EXPECT_EQ(r1.Snapshot().ToJson(), r2.Snapshot().ToJson());
  EXPECT_EQ(r1.Snapshot().ToCsv(), r2.Snapshot().ToCsv());
  // And the export is stable across repeated snapshots.
  EXPECT_EQ(r1.Snapshot().ToJson(), r1.Snapshot().ToJson());
}

TEST(MetricsRegistryTest, PreRegisterCreatesDomainGroups) {
  obs::MetricsRegistry registry;
  obs::PreRegisterDomainMetrics(&registry);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (const char* name :
       {obs::kTxnCommits, obs::kTxnAbortsWriteConflict, obs::kTxnWalBytes,
        obs::kReplShippedBytes, obs::kReplAppliedRecords,
        obs::kReplBacklogRecords, obs::kStoreDeltaPending,
        obs::kStoreMergeRows, obs::kStoreBtreeSplits,
        obs::kStoreVacuumedVersions}) {
    EXPECT_NE(snap.Find(name), nullptr) << name;
  }
  EXPECT_EQ(snap.CountOf(obs::kTxnCommits), 0u);
}

TEST(MetricsSnapshotTest, FindAbsentReturnsDefaults) {
  obs::MetricsSnapshot snap;
  EXPECT_EQ(snap.Find("nope"), nullptr);
  EXPECT_EQ(snap.CountOf("nope"), 0u);
  EXPECT_DOUBLE_EQ(snap.ValueOf("nope"), 0.0);
}

TEST(MetricsSnapshotTest, CsvQuotesNamesWithCommasAndQuotes) {
  // RFC-4180: a name containing a comma or quote is quoted with internal
  // quotes doubled; plain names stay bare so existing exports are
  // byte-identical.
  obs::MetricsRegistry registry;
  registry.GetCounter("plain.name")->Inc(1);
  registry.GetCounter("weird,\"name\"")->Inc(2);
  const std::string csv = registry.Snapshot().ToCsv();
  EXPECT_NE(csv.find("\nplain.name,counter,"), std::string::npos);
  EXPECT_NE(csv.find("\n\"weird,\"\"name\"\"\",counter,"),
            std::string::npos);
  // The quoted field must not leak a bare (unescaped) spelling.
  EXPECT_EQ(csv.find("\nweird,"), std::string::npos);
}

// --------------------------------------------------------------------------
// Tracer / ScopedSpan
// --------------------------------------------------------------------------

TEST(TracerTest, ScopedSpanReadsVirtualClock) {
  obs::Tracer tracer;
  VirtualClock clock;
  clock.AdvanceTo(1.0);
  {
    obs::ScopedSpan span(&tracer, &clock, "outer", "test", 3);
    clock.AdvanceTo(2.5);
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].tid, 3u);
  EXPECT_DOUBLE_EQ(spans[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 2.5);
}

TEST(TracerTest, ScopedSpanReadsWallClock) {
  obs::Tracer tracer;
  WallClock clock;
  { obs::ScopedSpan span(&tracer, &clock, "work", "test", 1); }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end, spans[0].begin);
}

TEST(TracerTest, ScopedSpanIsNullSafe) {
  VirtualClock clock;
  obs::Tracer tracer;
  { obs::ScopedSpan span(nullptr, &clock, "a", "test", 0); }
  { obs::ScopedSpan span(&tracer, nullptr, "b", "test", 0); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, NestedSpansExportParentFirst) {
  obs::Tracer tracer;
  // Recorded inner-first (RAII order), but the export sorts by
  // (tid, begin, id) so the enclosing span precedes its child.
  tracer.RecordSpan("inner", "test", 5, 2.0, 3.0);
  tracer.RecordSpan("outer", "test", 5, 1.0, 4.0);
  const std::string json = tracer.ToChromeJson();
  const size_t outer_pos = json.find("\"outer\"");
  const size_t inner_pos = json.find("\"inner\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
}

TEST(TracerTest, ChromeJsonShape) {
  obs::Tracer tracer;
  tracer.SetTrackName(1, "t-client 1");
  tracer.RecordSpan("np", "txn", 1, 0.001, 0.002, "\"txn_num\":4");
  tracer.Instant("wal-ship", "repl", 2, 0.0015);
  const std::string json = tracer.ToChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);  // prefix
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // Metadata first, then the events.
  const size_t meta = json.find("\"ph\":\"M\"");
  const size_t dur = json.find("\"ph\":\"X\"");
  const size_t instant = json.find("\"ph\":\"i\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(dur, std::string::npos);
  ASSERT_NE(instant, std::string::npos);
  EXPECT_LT(meta, dur);
  EXPECT_NE(json.find("\"name\":\"t-client 1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);  // 1 ms
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"txn_num\":4"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
}

// Pulls every "ts" value of duration events on `tid`, in export order.
std::vector<double> TimestampsForTrack(const std::string& json,
                                       uint32_t tid) {
  std::vector<double> out;
  const std::string tid_field = "\"tid\":" + std::to_string(tid) + ",";
  size_t pos = 0;
  while ((pos = json.find(tid_field, pos)) != std::string::npos) {
    const size_t ts = json.find("\"ts\":", pos);
    if (ts == std::string::npos) break;
    out.push_back(std::stod(json.substr(ts + 5)));
    pos = ts;
  }
  return out;
}

TEST(TracerTest, TimestampsMonotonePerTrack) {
  obs::Tracer tracer;
  // Record out of order on two tracks.
  tracer.RecordSpan("c", "test", 7, 3.0, 3.5);
  tracer.RecordSpan("a", "test", 7, 1.0, 1.5);
  tracer.RecordSpan("b", "test", 7, 2.0, 2.5);
  tracer.RecordSpan("z", "test", 9, 0.5, 0.6);
  const std::string json = tracer.ToChromeJson();
  for (uint32_t tid : {7u, 9u}) {
    const std::vector<double> ts = TimestampsForTrack(json, tid);
    ASSERT_FALSE(ts.empty());
    for (size_t i = 1; i < ts.size(); ++i) {
      EXPECT_LE(ts[i - 1], ts[i]) << "tid=" << tid;
    }
  }
}

TEST(TracerTest, RingDropsOldestWithoutCorruptingExport) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.RecordSpan("span" + std::to_string(i), "test", 1, i, i + 0.5);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::string json = tracer.ToChromeJson();
  EXPECT_EQ(json.find("\"span0\""), std::string::npos);
  EXPECT_EQ(json.find("\"span1\""), std::string::npos);
  EXPECT_NE(json.find("\"span2\""), std::string::npos);
  EXPECT_NE(json.find("\"span5\""), std::string::npos);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(TracerTest, ClearResetsIdsForByteIdenticalReruns) {
  obs::Tracer tracer;
  auto record = [&tracer] {
    tracer.RecordSpan("x", "test", 1, 0.0, 1.0);
    tracer.RecordSpan("y", "test", 2, 0.5, 0.7);
    tracer.SetTrackName(1, "one");
  };
  record();
  const std::string first = tracer.ToChromeJson();
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  record();
  EXPECT_EQ(tracer.ToChromeJson(), first);
}

TEST(TracerTest, CsvHasHeaderAndRows) {
  obs::Tracer tracer;
  tracer.RecordSpan("q1", "query", 3, 0.001, 0.004);
  const std::string csv = tracer.ToCsv();
  EXPECT_EQ(csv.rfind("name,cat,tid,begin_us,end_us,dur_us", 0), 0u);
  EXPECT_NE(csv.find("q1,query,3,"), std::string::npos);
}

// --------------------------------------------------------------------------
// End-to-end: drivers populate metrics and traces deterministically.
// --------------------------------------------------------------------------

DatagenConfig TinyConfig() {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = 1200;
  config.seed = 3;
  config.num_freshness_tables = 32;
  return config;
}

WorkloadConfig QuickRun(int t, int a) {
  WorkloadConfig config;
  config.t_clients = t;
  config.a_clients = a;
  config.warmup_seconds = 0.1;
  config.measure_seconds = 0.4;
  config.seed = 5;
  return config;
}

class ObsDriverTest : public ::testing::Test {
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

Dataset* ObsDriverTest::dataset_ = nullptr;

TEST_F(ObsDriverTest, SameSeedRunsExportByteIdenticalObservability) {
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());
  obs::Tracer tracer;
  driver.SetTracer(&tracer);

  const RunMetrics a = driver.Run(QuickRun(3, 2));
  const std::string trace_a = tracer.ToChromeJson();
  const RunMetrics b = driver.Run(QuickRun(3, 2));
  const std::string trace_b = tracer.ToChromeJson();

  EXPECT_GT(a.observed.entries.size(), 0u);
  EXPECT_EQ(a.observed.ToJson(), b.observed.ToJson());
  EXPECT_EQ(a.observed.ToCsv(), b.observed.ToCsv());
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(trace_a, trace_b);
}

TEST_F(ObsDriverTest, MetricsCoverDomainGroupsAndCountCommits) {
  IsolatedEngineConfig config;
  config.mode = ReplicationMode::kSyncShip;
  IsolatedEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, IsolatedSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(4, 2));

  // txn group counts real commits (only measured-window commits make it
  // into metrics.committed, so the registry count is at least as large).
  EXPECT_GE(metrics.observed.CountOf(obs::kTxnCommits), metrics.committed);
  EXPECT_GT(metrics.observed.CountOf(obs::kTxnWalRecords), 0u);
  // Replication group is live on the isolated design.
  EXPECT_GT(metrics.observed.CountOf(obs::kReplAppliedRecords), 0u);
  EXPECT_GT(metrics.observed.ValueOf(obs::kReplShippedBytes), 0.0);
  // Merge group exists (zero on a row-store design) and pools report.
  EXPECT_NE(metrics.observed.Find(obs::kStoreMergeRows), nullptr);
  EXPECT_NE(metrics.observed.Find("sim.pool.t-pool.utilization"), nullptr);
  EXPECT_GT(metrics.observed.ValueOf("sim.pool.t-pool.jobs_submitted"),
            0.0);
}

// The same replication group on the sharded design: every shard's
// standby chain reports through the shared standby module.
TEST_F(ObsDriverTest, ShardedRunReportsPerShardReplication) {
  for (const MergeMode mode : kMergeModes) {
    SCOPED_TRACE(MergeModeName(mode));
    ShardedEngineConfig config;
    config.shards = 3;
    config.plan = MakeSsbShardPlan(TinyConfig().num_freshness_tables);
    config.node = WithMergeMode(TidbConfig(), mode);
    ShardedEngine engine{config};
    ASSERT_TRUE(
        LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &engine).ok());
    WorkloadContext context(*dataset_);
    SimDriver driver(&engine, &context, ShardedSimSetup(3));
    const RunMetrics metrics = driver.Run(QuickRun(4, 2));

    EXPECT_GT(metrics.observed.CountOf(obs::kReplAppliedRecords), 0u);
    EXPECT_GT(metrics.observed.ValueOf(obs::kReplShippedBytes), 0.0);
  }
}

TEST_F(ObsDriverTest, HybridRunCountsMergesInMetrics) {
  HybridEngineConfig config = SystemXConfig();
  config.merge_mode = MergeMode::kEager;  // merge counters under test
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, HybridSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(6, 2));
  EXPECT_GT(metrics.observed.CountOf(obs::kStoreMergeRows), 0u);
  EXPECT_GT(metrics.observed.CountOf(obs::kStoreMergePasses), 0u);
}

TEST_F(ObsDriverTest, HybridBitmapRunCountsFoldsNotMerges) {
  HybridEngineConfig config = SystemXConfig();
  config.merge_mode = MergeMode::kBitmap;
  config.fold_watermark = 16;  // cross the watermark within a quick run
  HybridEngine engine{config};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kSemiIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, HybridSimSetup());
  const RunMetrics metrics = driver.Run(QuickRun(6, 2));
  EXPECT_GT(metrics.observed.CountOf(obs::kStoreFoldRows), 0u);
  EXPECT_GT(metrics.observed.CountOf(obs::kStoreFoldPasses), 0u);
  // No eager merges happen in bitmap mode.
  EXPECT_EQ(metrics.observed.CountOf(obs::kStoreMergePasses), 0u);
}

TEST_F(ObsDriverTest, ParallelQueriesEmitPerWayMorselSpans) {
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());
  obs::Tracer tracer;
  driver.SetTracer(&tracer);
  WorkloadConfig config = QuickRun(2, 2);
  config.dop = 4;
  driver.Run(config);

  int query_spans = 0;
  int morsel_spans = 0;
  for (const obs::Span& span : tracer.Spans()) {
    if (span.cat == "query") ++query_spans;
    if (span.cat == "morsel") {
      ++morsel_spans;
      EXPECT_GE(span.tid, obs::kTrackMorselBase);
    }
  }
  ASSERT_GT(query_spans, 0);
  EXPECT_EQ(morsel_spans, query_spans * 4);  // one child span per way
}

TEST_F(ObsDriverTest, TracesLabelTransactionsAndQueries) {
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());
  obs::Tracer tracer;
  driver.SetTracer(&tracer);
  driver.Run(QuickRun(3, 2));

  bool saw_txn = false;
  bool saw_query = false;
  for (const obs::Span& span : tracer.Spans()) {
    if (span.cat == "txn") {
      saw_txn = true;
      EXPECT_GE(span.tid, obs::kTrackTClientBase);
      EXPECT_LE(span.end - span.begin, 1.0);  // bounded virtual duration
    }
    if (span.cat == "query") saw_query = true;
  }
  EXPECT_TRUE(saw_txn);
  EXPECT_TRUE(saw_query);
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"t-client 1\""), std::string::npos);
  EXPECT_NE(json.find("\"a-client 1\""), std::string::npos);
}

TEST_F(ObsDriverTest, TinyTraceRingSurfacesDroppedSpansGauge) {
  // With a deliberately undersized ring, the run overflows it; the
  // driver must publish the eviction count as obs.trace.dropped_spans so
  // a truncated trace is visible in the metrics export.
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());
  obs::Tracer tracer(16);
  driver.SetTracer(&tracer);
  const RunMetrics metrics = driver.Run(QuickRun(3, 2));

  ASSERT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.size(), 16u);
  EXPECT_DOUBLE_EQ(metrics.observed.ValueOf(obs::kTraceDroppedSpans),
                   static_cast<double>(tracer.dropped()));
}

TEST_F(ObsDriverTest, SameSeedRunsExportByteIdenticalQueryProfiles) {
  // profile_queries folds every execution's EXPLAIN ANALYZE counters into
  // RunMetrics; two same-seed simulated runs must export byte-identical
  // profile JSON and identical tail-latency summaries.
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());
  WorkloadConfig config = QuickRun(3, 2);
  config.profile_queries = true;

  const RunMetrics a = driver.Run(config);
  const RunMetrics b = driver.Run(config);

  bool any_profiled = false;
  for (int q = 0; q < kNumQueries; ++q) {
    EXPECT_EQ(a.query_profiles[q].ToJson(), b.query_profiles[q].ToJson())
        << QueryName(q);
    EXPECT_EQ(a.query_profiles[q].Digest(), b.query_profiles[q].Digest())
        << QueryName(q);
    if (!a.query_profiles[q].empty()) {
      any_profiled = true;
      EXPECT_EQ(a.query_profiles[q].executions(),
                b.query_profiles[q].executions())
          << QueryName(q);
    }
  }
  EXPECT_TRUE(any_profiled);

  const LatencySummary ta = Summarize(a.query_latency);
  const LatencySummary tb = Summarize(b.query_latency);
  EXPECT_DOUBLE_EQ(ta.p50, tb.p50);
  EXPECT_DOUBLE_EQ(ta.p95, tb.p95);
  EXPECT_DOUBLE_EQ(ta.p99, tb.p99);
}

TEST_F(ObsDriverTest, ProfilesOffByDefaultAndRunStaysIdentical) {
  // profile_queries=false (the default) leaves every profile empty, and
  // turning it on must not change the run's results or metered totals.
  SharedEngine engine{SharedEngineConfig{}};
  ASSERT_TRUE(
      LoadDataset(*dataset_, PhysicalSchema::kAllIndexes, &engine).ok());
  WorkloadContext context(*dataset_);
  SimDriver driver(&engine, &context, SharedSimSetup());

  const RunMetrics off = driver.Run(QuickRun(3, 2));
  WorkloadConfig config = QuickRun(3, 2);
  config.profile_queries = true;
  const RunMetrics on = driver.Run(config);

  for (int q = 0; q < kNumQueries; ++q) {
    EXPECT_TRUE(off.query_profiles[q].empty()) << QueryName(q);
  }
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.queries, on.queries);
  EXPECT_EQ(off.aborts, on.aborts);
  EXPECT_DOUBLE_EQ(off.t_throughput, on.t_throughput);
  EXPECT_DOUBLE_EQ(off.a_throughput, on.a_throughput);
}

}  // namespace
}  // namespace hattrick
