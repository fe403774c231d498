// wallbench_harness: runs one workload of the wall-clock benchmark against
// the HATtrick engines and prints one JSON object as its last stdout line.
// wallbench/run.py builds this binary, runs it, checks the modeled
// snapshots it writes and formats the benchmark result; see
// wallbench/README.md for the workloads and metrics.
//
// Usage:
//   wallbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --out DIR
//
// Exit codes: 0 result printed (its checks may still have failed),
// 2 usage error or a refused environment, 1 internal failure.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/histogram.h"
#include "engine/engine_factory.h"
#include "exec/batch.h"
#include "exec/operator.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "hattrick/hattrick_schema.h"
#include "hattrick/queries.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe.h"
#include "span_log.h"

namespace wallbench {
namespace {

using hattrick::Dataset;
using hattrick::DatagenConfig;
using hattrick::EngineHandles;
using hattrick::HtapEngine;
using hattrick::MergeMode;
using hattrick::PhysicalSchema;
using hattrick::Row;
using hattrick::RunMetrics;
using hattrick::Sampler;
using hattrick::SimSetup;
using hattrick::Status;
using hattrick::TxnContext;
using hattrick::WorkloadConfig;
using hattrick::WorkloadContext;
using hattrick::WorkMeter;
using hattrick::bench::EngineKind;

// ---------------------------------------------------------------------------
// Fixed settings. Every run of a workload uses exactly these; the seed is
// the only input that varies.
// ---------------------------------------------------------------------------

/// Column-vector batch width, passed explicitly so HATTRICK_BATCH_ROWS
/// cannot change it.
constexpr size_t kBatchRows = hattrick::kDefaultBatchRows;
/// Setups per untraced run; setup_s is their median. A fixed count keeps
/// the allocator history, and so the peak RSS, the same in every run.
constexpr int kSetupReps = 5;
/// A live run splits --seconds into kLiveWindows driver runs, each after
/// its own reset and warm-up, and reports the median over the windows, so
/// a few seconds of host noise move one window rather than the result.
constexpr int kLiveWindows = 5;
/// Closed-loop warm-up before each live measurement window.
constexpr double kLiveWarmupS = 1.0;
constexpr int kLiveTClients = 2;
constexpr int kLiveAClients = 1;
/// The seed of bench/BENCH_smoke.json; sim_smoke replays it every run.
constexpr uint64_t kSmokeSeed = 7;
/// Span records kept per thread in a traced pass, and spans exported.
constexpr size_t kMaxRecordsPerThread = 1 << 21;
constexpr size_t kExportedSpans = 1 << 16;

/// Environment overrides that silently swap the program under test.
const char* const kPinnedEnv[] = {
    "HATTRICK_BATCH_ROWS", "HATTRICK_TXN_PROTOCOL", "HATTRICK_MERGE_MODE",
    "HATTRICK_SHARDS",     "HATTRICK_DIST_MODEL",
};

/// One design of the bench_runner smoke recipe (bench/bench_runner.cc).
struct SimDesign {
  const char* label;
  EngineKind kind;
  PhysicalSchema physical;
  SimSetup (*setup)();
};
const SimDesign kSimDesigns[] = {
    {"shared", EngineKind::kPostgres, PhysicalSchema::kAllIndexes,
     hattrick::SharedSimSetup},
    {"isolated", EngineKind::kPostgresSR, PhysicalSchema::kAllIndexes,
     hattrick::IsolatedSimSetup},
    {"hybrid", EngineKind::kSystemX, PhysicalSchema::kSemiIndexes,
     hattrick::HybridSimSetup},
};
constexpr int kNumSimDesigns = 3;
constexpr double kSimSf = 1.0;
constexpr int kSimT = 4;
constexpr int kSimA = 2;
constexpr double kSimWarmupS = 0.25;
constexpr double kSimMeasureS = 1.0;
constexpr int kSweep[][2] = {{2, 1}, {4, 2}, {8, 4}};
/// Simulated seconds per design: the profiled point plus the sweep.
constexpr double kSimSecondsPerDesign = 4 * (kSimWarmupS + kSimMeasureS);

struct LiveWorkload {
  const char* name;
  EngineKind kind;
  PhysicalSchema physical;
  MergeMode merge_mode;  // hybrid engines only
  double sf;
};
const LiveWorkload kLiveWorkloads[] = {
    {"htap_shared_sf10", EngineKind::kPostgres, PhysicalSchema::kAllIndexes,
     MergeMode::kEager, 10},
    {"htap_hybrid_sf100", EngineKind::kSystemX, PhysicalSchema::kSemiIndexes,
     MergeMode::kBitmap, 100},
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// %.9g, the bench_runner snapshot number format.
std::string Num9(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Full precision for measured values.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

const char* MergeModeName(MergeMode mode) {
  return mode == MergeMode::kBitmap ? "bitmap" : "eager";
}

// ---------------------------------------------------------------------------
// Setup: datagen + load + FinishLoad of one system.
// ---------------------------------------------------------------------------

struct Loaded {
  std::unique_ptr<HtapEngine> engine;
  std::unique_ptr<WorkloadContext> context;
  double datagen_s = 0;
  double load_s = 0;
};

/// The engine configurations of bench::MakeEnv for the kinds used here,
/// with the merge mode passed explicitly.
std::unique_ptr<HtapEngine> MakeEngine(EngineKind kind, MergeMode merge_mode) {
  switch (kind) {
    case EngineKind::kPostgres: {
      hattrick::SharedEngineConfig config;
      config.name = "PostgreSQL";
      config.isolation = hattrick::IsolationLevel::kSerializable;
      return hattrick::MakeSharedEngine(config);
    }
    case EngineKind::kPostgresSR: {
      hattrick::IsolatedEngineConfig config;
      config.name = "PostgreSQL-SR";
      config.mode = hattrick::ReplicationMode::kSyncShip;
      return hattrick::MakeIsolatedEngine(config);
    }
    case EngineKind::kSystemX: {
      hattrick::HybridEngineConfig config = hattrick::SystemXConfig();
      config.merge_mode = merge_mode;
      return hattrick::MakeHybridEngine(config);
    }
    default:
      std::fprintf(stderr, "wallbench: unsupported engine kind\n");
      std::exit(1);
  }
}

Loaded LoadSystem(EngineKind kind, double sf, PhysicalSchema physical,
                  MergeMode merge_mode) {
  Loaded out;
  DatagenConfig datagen;
  datagen.scale_factor = sf;
  datagen.lineorders_per_sf = hattrick::bench::kLineordersPerSf;
  datagen.seed = hattrick::bench::kDatagenSeed;
  datagen.num_freshness_tables = hattrick::bench::kFreshnessTables;
  const double t0 = NowS();
  const Dataset dataset = hattrick::GenerateDataset(datagen);
  const double t1 = NowS();
  out.engine = MakeEngine(kind, merge_mode);
  const Status status =
      hattrick::LoadDataset(dataset, physical, out.engine.get());
  const double t2 = NowS();
  if (!status.ok()) {
    std::fprintf(stderr, "wallbench: load failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  out.context = std::make_unique<WorkloadContext>(dataset);
  out.datagen_s = t1 - t0;
  out.load_s = t2 - t1;
  return out;
}

// ---------------------------------------------------------------------------
// What one pass measured.
// ---------------------------------------------------------------------------

/// Plain copy of ProbeCounts, summable across probes.
struct OpTotals {
  uint64_t txn_issued = 0, txn_committed = 0, txn_failed = 0;
  uint64_t txn_attempts = 0, txn_backoff_ns = 0, txn_wal_bytes = 0;
  uint64_t query_issued = 0, query_completed = 0, query_unidentified = 0;
  uint64_t maint_calls = 0, maint_useful = 0, maint_busy_ns = 0;
  uint64_t maint_useful_ns = 0, maint_wal_records = 0;
  uint64_t backlog_max = 0, version_depth_max = 0;
  uint64_t scan_examined = 0;

  static OpTotals Of(const ProbeCounts& c) {
    auto get = [](const std::atomic<uint64_t>& a) { return a.load(); };
    OpTotals t;
    t.txn_issued = get(c.txn_issued);
    t.txn_committed = get(c.txn_committed);
    t.txn_failed = get(c.txn_failed);
    t.txn_attempts = get(c.txn_attempts);
    t.txn_backoff_ns = get(c.txn_backoff_ns);
    t.txn_wal_bytes = get(c.txn_wal_bytes);
    t.query_issued = get(c.query_issued);
    t.query_completed = get(c.query_completed);
    t.query_unidentified = get(c.query_unidentified);
    t.maint_calls = get(c.maint_calls);
    t.maint_useful = get(c.maint_useful);
    t.maint_busy_ns = get(c.maint_busy_ns);
    t.maint_useful_ns = get(c.maint_useful_ns);
    t.maint_wal_records = get(c.maint_wal_records);
    t.backlog_max = get(c.backlog_max);
    t.version_depth_max = get(c.version_depth_max);
    t.scan_examined = get(c.scan_examined);
    return t;
  }

  void Merge(const OpTotals& o) {
    txn_issued += o.txn_issued;
    txn_committed += o.txn_committed;
    txn_failed += o.txn_failed;
    txn_attempts += o.txn_attempts;
    txn_backoff_ns += o.txn_backoff_ns;
    txn_wal_bytes += o.txn_wal_bytes;
    query_issued += o.query_issued;
    query_completed += o.query_completed;
    query_unidentified += o.query_unidentified;
    maint_calls += o.maint_calls;
    maint_useful += o.maint_useful;
    maint_busy_ns += o.maint_busy_ns;
    maint_useful_ns += o.maint_useful_ns;
    maint_wal_records += o.maint_wal_records;
    backlog_max = std::max(backlog_max, o.backlog_max);
    version_depth_max = std::max(version_depth_max, o.version_depth_max);
    scan_examined += o.scan_examined;
  }
};

/// Totals over EXPLAIN ANALYZE profiles (RunMetrics::query_profiles).
struct ProfileTotals {
  uint64_t executions = 0;
  uint64_t result_rows = 0;
  double join_self_s = 0;
  double agg_self_s = 0;
  uint64_t blocks_scanned = 0;
  uint64_t blocks_pruned = 0;

  void Add(const hattrick::obs::PlanProfile (&profiles)[hattrick::kNumQueries]) {
    for (const hattrick::obs::PlanProfile& p : profiles) {
      executions += p.executions();
      for (size_t i = 0; i < p.size(); ++i) {
        const hattrick::obs::PlanProfileNode& node = p.node(i);
        double self = node.TotalSeconds();
        for (int c : node.children) self -= p.node(c).TotalSeconds();
        if (node.parent < 0) result_rows += node.rows_out;
        if (node.name == "HashJoin") join_self_s += self;
        if (node.name == "HashAggregate" ||
            node.name == "PartialHashAggregate") {
          agg_self_s += self;
        }
        if (node.name == "ColumnScan") {
          blocks_scanned += node.blocks_scanned;
          blocks_pruned += node.blocks_pruned;
        }
      }
    }
  }
};

struct PassStats {
  double wall_s = 0;
  std::vector<double> design_wall_s;  // sim: per design
  OpTotals ops;
  OpTotals repl_ops;  // sim: the isolated design's probe
  uint64_t fold_rows = 0;
  uint64_t merge_rows = 0;
  ProfileTotals profile;
  Sampler query_ms[hattrick::kNumQueries];
  Sampler design_query_ms[kNumSimDesigns][hattrick::kNumQueries];  // sim
  std::string snapshot;  // sim: bench_runner-format JSON
  RunMetrics live;       // live: the driver's metrics
};

void AddRunMetrics(const RunMetrics& m, PassStats* out) {
  out->fold_rows += m.observed.CountOf(hattrick::obs::kStoreFoldRows);
  out->merge_rows += m.observed.CountOf(hattrick::obs::kStoreMergeRows);
  out->profile.Add(m.query_profiles);
}


// ---------------------------------------------------------------------------
// sim_smoke: the bench_runner smoke recipe on SimDriver.
// ---------------------------------------------------------------------------

WorkloadConfig SimBaseConfig(uint64_t seed) {
  WorkloadConfig base;
  base.t_clients = kSimT;
  base.a_clients = kSimA;
  base.warmup_seconds = kSimWarmupS;
  base.measure_seconds = kSimMeasureS;
  base.seed = seed;
  base.dop = 1;
  base.vectorized = true;
  base.batch_rows = static_cast<int>(kBatchRows);
  return base;
}

std::string SummaryJson(const hattrick::LatencySummary& s) {
  return "{\"p50\":" + Num9(s.p50) + ",\"p95\":" + Num9(s.p95) +
         ",\"p99\":" + Num9(s.p99) + "}";
}

/// The "systems" entry bench_runner writes for one design's profiled run.
std::string SystemJson(const SimDesign& design, const RunMetrics& metrics) {
  using hattrick::Summarize;
  std::string json = "{\"system\":\"" + std::string(design.label) + "\"";
  json += ",\"engine\":\"" +
          std::string(hattrick::bench::EngineKindName(design.kind)) + "\"";
  json += ",\"tps\":" + Num9(metrics.t_throughput);
  json += ",\"qps\":" + Num9(metrics.a_throughput);
  json += ",\"committed\":" + std::to_string(metrics.committed);
  json += ",\"aborts\":" + std::to_string(metrics.aborts);
  json += ",\"queries\":" + std::to_string(metrics.queries);
  json += ",\"freshness_p50_s\":" +
          Num9(metrics.freshness.empty() ? 0.0
                                         : metrics.freshness.Percentile(0.5));
  json += ",\"freshness_p99_s\":" +
          Num9(metrics.freshness.empty() ? 0.0
                                         : metrics.freshness.Percentile(0.99));
  json += ",\"txn_latency_s\":{\"all\":" +
          SummaryJson(Summarize(metrics.txn_latency));
  for (int t = 0; t < 3; ++t) {
    json += std::string(",\"") +
            hattrick::TxnTypeName(static_cast<hattrick::TxnType>(t)) +
            "\":" + SummaryJson(Summarize(metrics.txn_latency_by_type[t]));
  }
  json += "}";
  json += ",\"query_latency_s\":{\"all\":" +
          SummaryJson(Summarize(metrics.query_latency));
  for (int q = 0; q < hattrick::kNumQueries; ++q) {
    json += std::string(",\"") + hattrick::QueryName(q) + "\":" +
            SummaryJson(Summarize(metrics.query_latency_by_id[q]));
  }
  json += "}";
  json += ",\"query_profiles\":[";
  bool first = true;
  for (int q = 0; q < hattrick::kNumQueries; ++q) {
    const hattrick::obs::PlanProfile& profile = metrics.query_profiles[q];
    if (profile.empty()) continue;
    uint64_t root_rows = 0;
    uint64_t root_work = 0;
    for (size_t i = 0; i < profile.size(); ++i) {
      if (profile.node(i).parent < 0) {
        root_rows += profile.node(i).rows_out;
        root_work += profile.node(i).work_units;
      }
    }
    if (!first) json += ",";
    first = false;
    json += std::string("{\"query\":\"") + hattrick::QueryName(q) + "\"" +
            ",\"executions\":" + std::to_string(profile.executions()) +
            ",\"rows_per_exec\":" +
            std::to_string(root_rows / profile.executions()) +
            ",\"work_per_exec\":" +
            std::to_string(root_work / profile.executions()) +
            ",\"digest\":\"" + profile.Digest() + "\"}";
  }
  json += "]";
  return json;
}

/// One pass of the smoke recipe at `seed` over the three designs. Returns
/// the bench_runner-format snapshot with what the pass measured. Without
/// `sweep` only the profiled point runs: that is all bench_compare.py
/// reads, so the snapshot-seed check skips the sweep.
PassStats RunSimPass(std::vector<Loaded>* systems,
                     const std::vector<QueryCatalog>* catalogs, uint64_t seed,
                     SpanLog* log, bool sweep) {
  PassStats out;
  const WorkloadConfig base = SimBaseConfig(seed);
  std::string json = "{\"bench_format\":1,\"name\":\"smoke\"";
  json += ",\"config\":{\"sf\":" + Num9(kSimSf) +
          ",\"seed\":" + std::to_string(base.seed) +
          ",\"t_clients\":" + std::to_string(base.t_clients) +
          ",\"a_clients\":" + std::to_string(base.a_clients) +
          ",\"warmup_s\":" + Num9(base.warmup_seconds) +
          ",\"measure_s\":" + Num9(base.measure_seconds) +
          ",\"dop\":" + std::to_string(base.dop) + "}";
  json += ",\"systems\":[";
  const double pass_begin = NowS();
  for (int d = 0; d < kNumSimDesigns; ++d) {
    const SimDesign& design = kSimDesigns[d];
    Loaded& system = (*systems)[d];
    ProbeEngine probe(system.engine.get(), log,
                      catalogs != nullptr ? &(*catalogs)[d] : nullptr);
    hattrick::SimDriver driver(&probe, system.context.get(), design.setup());
    const double begin = NowS();

    WorkloadConfig run = base;
    run.profile_queries = true;
    const RunMetrics metrics = driver.Run(run);
    AddRunMetrics(metrics, &out);
    if (d > 0) json += ",";
    json += SystemJson(design, metrics);

    json += ",\"points\":[";
    for (size_t p = 0; sweep && p < sizeof(kSweep) / sizeof(kSweep[0]);
         ++p) {
      WorkloadConfig point = base;
      point.t_clients = kSweep[p][0];
      point.a_clients = kSweep[p][1];
      // Profiling changes neither results nor metered work; a traced pass
      // profiles every run for the per-layer scan and plan counts.
      point.profile_queries = log->detailed();
      const RunMetrics pm = driver.Run(point);
      AddRunMetrics(pm, &out);
      if (p > 0) json += ",";
      json += "{\"t\":" + std::to_string(point.t_clients) +
              ",\"a\":" + std::to_string(point.a_clients) +
              ",\"tps\":" + Num9(pm.t_throughput) +
              ",\"qps\":" + Num9(pm.a_throughput) +
              ",\"txn_p99_s\":" +
              Num9(hattrick::Summarize(pm.txn_latency).p99) +
              ",\"query_p99_s\":" +
              Num9(hattrick::Summarize(pm.query_latency).p99) + "}";
    }
    json += "]}";
    out.design_wall_s.push_back(NowS() - begin);
    const OpTotals ops = OpTotals::Of(probe.counts());
    out.ops.Merge(ops);
    if (design.kind == EngineKind::kPostgresSR) out.repl_ops = ops;
    const auto ms = probe.QueryMillis();
    for (int q = 0; q < hattrick::kNumQueries; ++q) {
      out.query_ms[q].Merge(ms[q]);
      out.design_query_ms[d][q].Merge(ms[q]);
    }
  }
  json += "]}\n";
  out.wall_s = NowS() - pass_begin;
  out.snapshot = std::move(json);
  std::fprintf(stderr,
               "wallbench: sim pass seed=%llu%s%s: %.3f s (%.3f/%.3f/%.3f)\n",
               static_cast<unsigned long long>(seed),
               log->detailed() ? " traced" : "", sweep ? "" : " no-sweep",
               out.wall_s, out.design_wall_s[0], out.design_wall_s[1],
               out.design_wall_s[2]);
  return out;
}

// ---------------------------------------------------------------------------
// Live workloads: ThreadedDriver, closed loop.
// ---------------------------------------------------------------------------

WorkloadConfig LiveConfig(uint64_t seed, double seconds, bool profile) {
  WorkloadConfig config;
  config.t_clients = kLiveTClients;
  config.a_clients = kLiveAClients;
  config.warmup_seconds = kLiveWarmupS;
  config.measure_seconds = seconds;
  config.seed = seed;
  config.dop = 1;
  config.vectorized = true;
  config.batch_rows = static_cast<int>(kBatchRows);
  config.profile_queries = profile;
  return config;
}

PassStats RunLivePass(Loaded* system, const QueryCatalog* catalog,
                      uint64_t seed, double seconds, SpanLog* log,
                      bool profile) {
  PassStats out;
  ProbeEngine probe(system->engine.get(), log, catalog);
  hattrick::ThreadedDriver driver(&probe, system->context.get());
  const double begin = NowS();
  out.live = driver.Run(LiveConfig(seed, seconds, profile));
  out.wall_s = NowS() - begin;
  AddRunMetrics(out.live, &out);
  out.ops = OpTotals::Of(probe.counts());
  const auto ms = probe.QueryMillis();
  for (int q = 0; q < hattrick::kNumQueries; ++q) out.query_ms[q].Merge(ms[q]);
  return out;
}

/// Σ S_YTD and Σ HISTORY.amount in exact SUM fixed point, read by one
/// read-only transaction.
struct Balance {
  bool ok = false;
  int64_t ytd = 0;
  int64_t history = 0;
};

Balance ReadBalance(HtapEngine* engine) {
  const EngineHandles handles = EngineHandles::Resolve(
      *engine->primary_catalog(), hattrick::bench::kFreshnessTables);
  Balance b;
  const hattrick::TxnBody body = [&](TxnContext* ctx, WorkMeter* meter) {
    b.ytd = 0;
    b.history = 0;
    ctx->ScanVisible(
        handles.supplier,
        [&](hattrick::Rid, const Row& row) {
          b.ytd += hattrick::QuantizeSumValue(row[hattrick::supp::kYtd]
                                                  .AsDouble());
          return true;
        },
        meter);
    ctx->ScanVisible(
        handles.history,
        [&](hattrick::Rid, const Row& row) {
          b.history += hattrick::QuantizeSumValue(
              row[hattrick::hist::kAmount].AsDouble());
          return true;
        },
        meter);
    return Status::OK();
  };
  WorkMeter meter;
  b.ok = engine->ExecuteTransaction(body, 0, 0, &meter).status.ok();
  return b;
}

// ---------------------------------------------------------------------------
// Result assembly.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool applicable;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Result {
  std::string workload;
  std::vector<std::pair<std::string, std::string>> config;  // key, JSON value
  OpTotals ops;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> threads;  // label, unattributed
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<size_t> query_rows;

  void Add(const std::string& name, double value, const std::string& unit,
           bool applicable = true) {
    metrics.push_back({name, applicable ? value : 0.0, unit, applicable});
  }
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }

  std::string ToJson() const {
    std::string j = "{\"workload\":" + Quote(workload) + ",\"config\":{";
    for (size_t i = 0; i < config.size(); ++i) {
      if (i > 0) j += ",";
      j += Quote(config[i].first) + ":" + config[i].second;
    }
    j += "},\"ops\":{\"txn_issued\":" + std::to_string(ops.txn_issued) +
         ",\"txn_committed\":" + std::to_string(ops.txn_committed) +
         ",\"txn_retried\":" +
         std::to_string(ops.txn_attempts - ops.txn_issued) +
         ",\"txn_failed\":" + std::to_string(ops.txn_failed) +
         ",\"query_issued\":" + std::to_string(ops.query_issued) +
         ",\"query_completed\":" + std::to_string(ops.query_completed) + "}";
    j += ",\"metrics\":[";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      if (i > 0) j += ",";
      j += "{\"name\":" + Quote(m.name) + ",\"value\":" + Num(m.value) +
           ",\"unit\":" + Quote(m.unit) +
           ",\"applicable\":" + (m.applicable ? "true" : "false") + "}";
    }
    j += "],\"checks\":[";
    for (size_t i = 0; i < checks.size(); ++i) {
      if (i > 0) j += ",";
      j += "{\"name\":" + Quote(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + Quote(checks[i].detail) + "}";
    }
    j += "],\"threads\":{";
    for (size_t i = 0; i < threads.size(); ++i) {
      if (i > 0) j += ",";
      j += Quote(threads[i].first) + ":" + Num(threads[i].second);
    }
    j += "},\"query_rows\":{";
    for (size_t q = 0; q < query_rows.size(); ++q) {
      if (q > 0) j += ",";
      j += Quote(hattrick::QueryName(static_cast<int>(q))) + ":" +
           std::to_string(query_rows[q]);
    }
    j += "},\"files\":{";
    for (size_t i = 0; i < files.size(); ++i) {
      if (i > 0) j += ",";
      j += Quote(files[i].first) + ":" + Quote(files[i].second);
    }
    return j + "}}";
  }
};

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return out.good();
}

/// Percentile of a SpanStat's durations, in µs.
double DurUs(const SpanStat& s, double p) { return Percentile(s.dur_us, p); }

/// Wall time of the top-level spans in `log` (engine calls, sessions and
/// resets) plus idle maintenance polls.
double EngineSeconds(const SpanLog& log, const OpTotals& ops) {
  int64_t ns = 0;
  for (const ThreadLog* t : log.Threads()) ns += t->top_level_ns;
  ns += static_cast<int64_t>(ops.maint_busy_ns - ops.maint_useful_ns);
  return static_cast<double>(ns) * 1e-9;
}

/// The span accounting checks and per-layer metrics every traced pass
/// reports, whatever the workload.
void AddTracedLayers(const SpanLog& log, const PassStats& pass,
                     const std::string& trace_path, bool threaded,
                     bool column_copy, Result* r) {
  const SpanStat txn = log.Merged(SpanKind::kTxn);
  const SpanStat body = log.Merged(SpanKind::kTxnBody);
  const SpanStat read = log.Merged(SpanKind::kTxnRead);
  const SpanStat index = log.Merged(SpanKind::kTxnIndexLookup);
  const SpanStat scan_visible = log.Merged(SpanKind::kTxnScanVisible);
  const SpanStat query = log.Merged(SpanKind::kQuery);
  const SpanStat begin = log.Merged(SpanKind::kBeginAnalytics);
  const SpanStat scan = log.Merged(SpanKind::kScan);
  const SpanStat reset = log.Merged(SpanKind::kReset);
  const OpTotals& ops = pass.ops;
  const double queries = static_cast<double>(query.count);
  const double commits = static_cast<double>(ops.txn_committed);

  r->Add("engine.reset_ms", Ratio(reset.total_ns * 1e-6, reset.count), "ms");
  r->Add("engine.txn.calls", static_cast<double>(txn.count), "count");
  r->Add("engine.txn.us_p50", DurUs(txn, 0.50), "us");
  r->Add("engine.txn.us_p99", DurUs(txn, 0.99), "us");
  r->Add("engine.begin_analytics.us_p50", DurUs(begin, 0.50), "us");
  r->Add("engine.begin_analytics.us_p99", DurUs(begin, 0.99), "us");
  r->Add("engine.maintenance.busy_s", ops.maint_busy_ns * 1e-9, "s");
  r->Add("engine.maintenance.useful_ratio",
         Ratio(static_cast<double>(ops.maint_useful),
               static_cast<double>(ops.maint_calls)),
         "ratio", ops.maint_calls > 0);

  r->Add("txn.body.us_p50", DurUs(body, 0.50), "us");
  // A transaction's self time: ExecuteTransaction minus its body attempts.
  r->Add("txn.commit.us_p50", Percentile(txn.self_us, 0.50), "us");
  r->Add("txn.commit.us_p99", Percentile(txn.self_us, 0.99), "us");
  r->Add("txn.read.us_p50", DurUs(read, 0.50), "us", read.count > 0);
  r->Add("txn.index_lookup.us_p50", DurUs(index, 0.50), "us",
         index.count > 0);
  r->Add("txn.scan_visible.calls", static_cast<double>(scan_visible.count),
         "count");
  r->Add("txn.attempts_per_commit",
         Ratio(static_cast<double>(ops.txn_attempts), commits), "ratio");
  r->Add("txn.backoff_ms", Ratio(ops.txn_backoff_ns * 1e-6, commits),
         "ms/commit");
  r->Add("txn.wal_bytes_per_commit",
         Ratio(static_cast<double>(ops.txn_wal_bytes), commits), "B/commit");

  r->Add("storage.scan.ms_per_query", Ratio(scan.total_ns * 1e-6, queries),
         "ms");
  r->Add("storage.rows_examined_per_result_row",
         Ratio(static_cast<double>(ops.scan_examined),
               static_cast<double>(pass.profile.result_rows)),
         "ratio", pass.profile.result_rows > 0);
  const uint64_t blocks =
      pass.profile.blocks_scanned + pass.profile.blocks_pruned;
  r->Add("storage.zone_pruned_ratio",
         Ratio(static_cast<double>(pass.profile.blocks_pruned),
               static_cast<double>(blocks)),
         "ratio", blocks > 0);
  r->Add("store.version_depth.max",
         static_cast<double>(ops.version_depth_max), "count", column_copy);
  r->Add("store.fold.rows", static_cast<double>(pass.fold_rows), "count",
         column_copy);
  r->Add("store.merge.rows", static_cast<double>(pass.merge_rows), "count",
         column_copy);

  for (int q = 0; q < hattrick::kNumQueries; ++q) {
    const Sampler& s = pass.query_ms[q];
    r->Add(std::string("exec.query.") + hattrick::QueryName(q) + ".ms_p50",
           s.empty() ? 0 : s.Percentile(0.5), "ms", !s.empty());
  }
  r->Add("exec.plan.ms_per_query",
         Ratio((query.total_ns - begin.total_ns - scan.total_ns) * 1e-6,
               queries),
         "ms");
  const double execs = static_cast<double>(pass.profile.executions);
  r->Add("exec.join.self_ms", Ratio(pass.profile.join_self_s * 1e3, execs),
         "ms", threaded);
  r->Add("exec.agg.self_ms", Ratio(pass.profile.agg_self_s * 1e3, execs),
         "ms", threaded);

  const uint64_t nesting = log.NestingViolations();
  const uint64_t uncontained = log.CountUncontainedChildren();
  r->Expect("trace_nesting", nesting == 0 && uncontained == 0,
            std::to_string(nesting) + " spans closed out of order, " +
                std::to_string(uncontained) + " children outside parent");
  r->Expect("queries_identified", ops.query_unidentified == 0,
            std::to_string(ops.query_unidentified) +
                " queries matched no catalog fingerprint");

  // Unattributed share of each client thread: the part of its active
  // interval (first to last top-level span) outside any probed call.
  double t_max = 0;
  double a_max = 0;
  int t_n = 0;
  int a_n = 0;
  for (const ThreadLog* t : log.Threads()) {
    const bool is_t = t->stats[static_cast<int>(SpanKind::kTxn)].count > 0;
    const bool is_a = t->stats[static_cast<int>(SpanKind::kQuery)].count > 0;
    if (!is_t && !is_a) continue;
    const double active = static_cast<double>(t->last_ns - t->first_ns);
    const double share =
        1.0 - Ratio(static_cast<double>(t->top_level_ns), active);
    std::string label;
    if (is_t && is_a) {
      label = "sim";
    } else if (is_t) {
      label = "t" + std::to_string(++t_n);
      t_max = std::max(t_max, share);
    } else {
      label = "a" + std::to_string(++a_n);
      a_max = std::max(a_max, share);
    }
    r->threads.push_back({label, share});
  }
  r->Add("trace.unattributed.t_max", t_max, "ratio", threaded);
  r->Add("trace.unattributed.a_max", a_max, "ratio", threaded);

  // The Chrome trace keeps the newest kExportedSpans spans.
  hattrick::obs::Tracer tracer(kExportedSpans);
  log.ExportTo(&tracer);
  r->Expect("trace_complete", log.RecordsDropped() == 0,
            std::to_string(log.RecordsKept()) + " spans kept, " +
                std::to_string(log.RecordsDropped()) + " dropped, " +
                std::to_string(tracer.size()) + " exported");
  if (WriteFile(trace_path, tracer.ToChromeJson())) {
    r->files.push_back({"trace", trace_path});
  }
}

void AddConfig(Result* r, const std::string& key, const std::string& json) {
  r->config.push_back({key, json});
}

void AddCommonConfig(Result* r, uint64_t seed, double seconds, bool trace) {
  AddConfig(r, "seed", std::to_string(seed));
  AddConfig(r, "seconds", Num(seconds));
  AddConfig(r, "trace", trace ? "true" : "false");
  AddConfig(r, "build_type", Quote(WALLBENCH_BUILD_TYPE));
  AddConfig(r, "batch_rows", std::to_string(kBatchRows));
  AddConfig(r, "vectorized", "true");
  AddConfig(r, "dop", "1");
  AddConfig(r, "lineorders_per_sf",
            std::to_string(hattrick::bench::kLineordersPerSf));
  AddConfig(r, "datagen_seed", std::to_string(hattrick::bench::kDatagenSeed));
}

void AddOpsChecks(const OpTotals& ops, Result* r) {
  r->Expect("queries_completed", ops.query_issued == ops.query_completed,
            std::to_string(ops.query_completed) + " of " +
                std::to_string(ops.query_issued) + " queries completed");
}

// ---------------------------------------------------------------------------
// Workload runners.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

std::vector<Loaded> LoadSimSystems() {
  std::vector<Loaded> systems;
  for (const SimDesign& design : kSimDesigns) {
    systems.push_back(LoadSystem(design.kind, kSimSf, design.physical,
                                 MergeMode::kEager));
  }
  return systems;
}

/// One catalog per design; empty when a design has two queries with the
/// same fingerprint.
std::vector<QueryCatalog> BuildCatalogs(std::vector<Loaded>* systems) {
  std::vector<QueryCatalog> catalogs(systems->size());
  for (size_t d = 0; d < systems->size(); ++d) {
    if (!catalogs[d].Build((*systems)[d].engine.get(),
                           hattrick::bench::kFreshnessTables, kBatchRows)) {
      return {};
    }
  }
  return catalogs;
}

double SetupSeconds(const std::vector<Loaded>& systems) {
  double s = 0;
  for (const Loaded& l : systems) s += l.datagen_s + l.load_s;
  return s;
}

Result RunSimSmoke(const Args& args) {
  Result r;
  r.workload = args.workload;
  AddCommonConfig(&r, args.seed, args.seconds, args.trace);
  AddConfig(&r, "sf", Num(kSimSf));
  AddConfig(&r, "t_clients", std::to_string(kSimT));
  AddConfig(&r, "a_clients", std::to_string(kSimA));
  AddConfig(&r, "sweep", "\"2/1,4/2,8/4\"");
  AddConfig(&r, "designs",
            "\"shared=PostgreSQL/all,isolated=PostgreSQL-SR/all,"
            "hybrid=System-X/semi\"");
  AddConfig(&r, "merge_mode", Quote(MergeModeName(MergeMode::kEager)));
  AddConfig(&r, "check_seed", std::to_string(kSmokeSeed));

  const std::string seed_path =
      args.out_dir + "/smoke-seed" + std::to_string(args.seed) + ".json";
  const std::string check_path = args.out_dir + "/smoke-seed7.json";

  if (!args.trace) {
    std::vector<double> setups;
    std::vector<Loaded> systems;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      systems.clear();
      systems = LoadSimSystems();
      setups.push_back(SetupSeconds(systems));
    }
    std::vector<QueryCatalog> catalogs = BuildCatalogs(&systems);
    // Recipe passes at the workload seed while another one fits in the
    // measurement time (at least one).
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::vector<PassStats> passes;
    const double begin = NowS();
    do {
      logs.push_back(std::make_unique<SpanLog>(false, 0));
      passes.push_back(RunSimPass(&systems,
                                  catalogs.empty() ? nullptr : &catalogs,
                                  args.seed, logs.back().get(), true));
    } while (NowS() - begin + passes.back().wall_s <= args.seconds);
    SpanLog check_log(false, 0);
    const PassStats check =
        RunSimPass(&systems, nullptr, kSmokeSeed, &check_log, false);

    SpanStat txn;
    SpanStat query;
    Sampler series[kNumSimDesigns][hattrick::kNumQueries];
    double wall = 0;
    bool deterministic = true;
    for (size_t i = 0; i < passes.size(); ++i) {
      txn.Merge(logs[i]->Merged(SpanKind::kTxn));
      query.Merge(logs[i]->Merged(SpanKind::kQuery));
      for (int d = 0; d < kNumSimDesigns; ++d) {
        for (int q = 0; q < hattrick::kNumQueries; ++q) {
          series[d][q].Merge(passes[i].design_query_ms[d][q]);
        }
      }
      wall += passes[i].wall_s;
      r.ops.Merge(passes[i].ops);
      deterministic &= passes[i].snapshot == passes[0].snapshot;
    }
    // Sim query times cluster by design and query (index-scan queries
    // take a tenth of the joins), so the pooled median, or any median
    // over the clusters, jumps when a seed shifts the mix. The geometric
    // mean of the (design, query) series medians moves smoothly and in
    // proportion to a speed-up.
    double log_sum = 0;
    int n_series = 0;
    for (const auto& design : series) {
      for (const Sampler& s : design) {
        if (s.empty()) continue;
        log_sum += std::log(s.Percentile(0.5));
        ++n_series;
      }
    }
    const double txns = static_cast<double>(r.ops.txn_issued);
    const double queries = static_cast<double>(r.ops.query_issued);
    r.ops.Merge(check.ops);
    r.Add("setup_s", Median(setups), "s");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.Add("tps", Ratio(txns, wall), "1/s");
    r.Add("qps", Ratio(queries, wall), "1/s");
    r.Add("txn_p50_ms", DurUs(txn, 0.50) * 1e-3, "ms");
    r.Add("query_p50_ms", n_series > 0 ? std::exp(log_sum / n_series) : 0,
          "ms");
    r.Add("query_p95_ms", DurUs(query, 0.95) * 1e-3, "ms");
    r.Expect("query_catalog", catalogs.size() == kNumSimDesigns,
             "13 distinct scan fingerprints per design");
    r.Expect("queries_identified", r.ops.query_unidentified == 0,
             std::to_string(r.ops.query_unidentified) +
                 " queries matched no catalog fingerprint");
    r.Expect("sim_deterministic", deterministic,
             std::to_string(passes.size()) +
                 " passes; repeated same-seed snapshots identical");
    AddOpsChecks(r.ops, &r);
    const bool wrote = WriteFile(seed_path, passes[0].snapshot) &&
                       WriteFile(check_path, check.snapshot);
    r.Expect("snapshots_written", wrote, seed_path + ", " + check_path);
    r.files.push_back({"snapshot", seed_path});
    r.files.push_back({"check_snapshot", check_path});
    return r;
  }

  // Traced run: one setup; an untraced pass at the workload seed (the
  // overhead base), the snapshot-seed check pass, then the traced pass.
  std::vector<Loaded> systems = LoadSimSystems();
  double datagen_s = 0;
  double load_s = 0;
  for (const Loaded& l : systems) {
    datagen_s += l.datagen_s;
    load_s += l.load_s;
  }
  std::vector<QueryCatalog> catalogs = BuildCatalogs(&systems);
  for (int q = 0; q < hattrick::kNumQueries && !catalogs.empty(); ++q) {
    r.query_rows.push_back(catalogs[0].rows(q));
  }
  SpanLog plain(false, 0);
  const PassStats untraced = RunSimPass(&systems, nullptr, args.seed, &plain,
                                        true);
  SpanLog check_log(false, 0);
  const PassStats check = RunSimPass(&systems, nullptr, kSmokeSeed,
                                     &check_log, false);
  SpanLog traced_log(true, kMaxRecordsPerThread);
  const PassStats traced =
      RunSimPass(&systems, catalogs.empty() ? nullptr : &catalogs, args.seed,
                 &traced_log, true);
  r.ops = untraced.ops;
  r.ops.Merge(check.ops);
  r.ops.Merge(traced.ops);

  r.Add("setup.datagen_s", datagen_s, "s");
  r.Add("setup.load_s", load_s, "s");
  AddTracedLayers(traced_log, traced,
                  args.out_dir + "/trace-" + args.workload + ".json", false,
                  true, &r);
  const OpTotals& repl = traced.repl_ops;
  r.Add("repl.apply.us_per_record",
        Ratio(repl.maint_useful_ns * 1e-3,
              static_cast<double>(repl.maint_wal_records)),
        "us", repl.maint_wal_records > 0);
  r.Add("repl.backlog_records.max", static_cast<double>(repl.backlog_max),
        "count");
  // Host noise moves transaction tails by 2-5x between runs, too much for
  // an end-to-end bound; they are reported here, ungated.
  const SpanStat plain_txn = plain.Merged(SpanKind::kTxn);
  r.Add("hattrick.txn_p95_ms", DurUs(plain_txn, 0.95) * 1e-3, "ms");
  r.Add("hattrick.txn_p99_ms", DurUs(plain_txn, 0.99) * 1e-3, "ms");
  const double engine_s = EngineSeconds(plain, untraced.ops);
  r.Add("sim.self_s", untraced.wall_s - engine_s, "s");
  r.Add("sim.engine_share", Ratio(engine_s, untraced.wall_s), "ratio");
  for (int d = 0; d < kNumSimDesigns; ++d) {
    r.Add(std::string("sim.s_per_vs.") + kSimDesigns[d].label,
          untraced.design_wall_s[d] / kSimSecondsPerDesign, "s/s");
  }
  r.Add("trace.overhead", Ratio(traced.wall_s, untraced.wall_s), "ratio");

  r.Expect("query_catalog", catalogs.size() == kNumSimDesigns,
           "13 distinct scan fingerprints per design");
  r.Expect("traced_snapshot_identical", traced.snapshot == untraced.snapshot,
           "tracing left the modeled output unchanged");
  AddOpsChecks(r.ops, &r);
  const bool wrote = WriteFile(seed_path, untraced.snapshot) &&
                     WriteFile(check_path, check.snapshot);
  r.Expect("snapshots_written", wrote, seed_path + ", " + check_path);
  r.files.push_back({"snapshot", seed_path});
  r.files.push_back({"check_snapshot", check_path});
  return r;
}

/// Live-run correctness: freshness 0 on every measured query, and the
/// final balance Σ S_YTD growth == Σ HISTORY growth.
void CheckLivePass(const char* label, const PassStats& pass,
                   const Balance& before, HtapEngine* engine, Result* r) {
  const Sampler& fresh = pass.live.freshness;
  const bool fresh_ok = fresh.count() == pass.live.queries &&
                        fresh.count() > 0 && fresh.Max() == 0 &&
                        fresh.Min() == 0;
  r->Expect(std::string(label) + "_freshness_zero", fresh_ok,
            std::to_string(fresh.count()) + " measured queries, max " +
                Num(fresh.empty() ? -1 : fresh.Max()) + " s");
  const Balance after = ReadBalance(engine);
  const bool balanced = before.ok && after.ok &&
                        after.ytd - before.ytd == after.history - before.history;
  r->Expect(std::string(label) + "_ytd_history_balance", balanced,
            "S_YTD grew " + std::to_string(after.ytd - before.ytd) +
                ", HISTORY grew " +
                std::to_string(after.history - before.history) +
                " (1e-4 units)");
  r->Expect(std::string(label) + "_progress",
            pass.live.committed > 0 && pass.live.queries > 0,
            std::to_string(pass.live.committed) + " commits, " +
                std::to_string(pass.live.queries) + " queries measured");
}

Result RunLive(const LiveWorkload& w, const Args& args) {
  Result r;
  r.workload = args.workload;
  AddCommonConfig(&r, args.seed, args.seconds, args.trace);
  AddConfig(&r, "sf", Num(w.sf));
  AddConfig(&r, "engine",
            Quote(hattrick::bench::EngineKindName(w.kind)));
  AddConfig(&r, "physical_schema",
            Quote(hattrick::PhysicalSchemaName(w.physical)));
  AddConfig(&r, "merge_mode",
            Quote(w.kind == EngineKind::kSystemX ? MergeModeName(w.merge_mode)
                                                 : "n/a"));
  AddConfig(&r, "t_clients", std::to_string(kLiveTClients));
  AddConfig(&r, "a_clients", std::to_string(kLiveAClients));
  const double window_s = args.seconds / kLiveWindows;
  AddConfig(&r, "warmup_s", Num(kLiveWarmupS));
  AddConfig(&r, "windows", std::to_string(kLiveWindows));
  AddConfig(&r, "window_s", Num(window_s));
  // Window i runs the driver with this seed.
  auto window_seed = [&](int i) {
    return args.seed * kLiveWindows + static_cast<uint64_t>(i);
  };

  if (!args.trace) {
    std::vector<double> setups;
    Loaded system;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      system = Loaded{};
      system = LoadSystem(w.kind, w.sf, w.physical, w.merge_mode);
      setups.push_back(system.datagen_s + system.load_s);
    }
    const Balance before = ReadBalance(system.engine.get());
    SpanLog log(false, 0);
    std::vector<double> tps, qps, txn_p50;
    // One A-client completes too few queries per window for a p95 with
    // ten samples beyond it, so query latencies pool the windows.
    Sampler queries;
    // Peak RSS through set-up and the first window: later windows start
    // from a reset whose frees land in whichever allocator arenas the
    // previous window's threads used, which only adds noise.
    double peak_rss_mb = 0;
    for (int i = 0; i < kLiveWindows; ++i) {
      const PassStats pass = RunLivePass(&system, nullptr, window_seed(i),
                                         window_s, &log, false);
      if (i == 0) peak_rss_mb = PeakRssMb();
      const RunMetrics& m = pass.live;
      tps.push_back(m.t_throughput);
      qps.push_back(m.a_throughput);
      txn_p50.push_back(m.txn_latency.Percentile(0.50) * 1e3);
      queries.Merge(m.query_latency);
      r.ops.Merge(pass.ops);
      CheckLivePass(("window" + std::to_string(i + 1)).c_str(), pass, before,
                    system.engine.get(), &r);
    }
    r.Add("setup_s", Median(setups), "s");
    r.Add("peak_rss_mb", peak_rss_mb, "MB");
    r.Add("tps", Median(tps), "1/s");
    r.Add("qps", Median(qps), "1/s");
    r.Add("txn_p50_ms", Median(txn_p50), "ms");
    r.Add("query_p50_ms", queries.Percentile(0.50) * 1e3, "ms");
    r.Add("query_p95_ms", queries.Percentile(0.95) * 1e3, "ms");
    AddOpsChecks(r.ops, &r);
    return r;
  }

  Loaded system = LoadSystem(w.kind, w.sf, w.physical, w.merge_mode);
  QueryCatalog catalog;
  const bool catalog_ok = catalog.Build(
      system.engine.get(), hattrick::bench::kFreshnessTables, kBatchRows);
  for (int q = 0; q < hattrick::kNumQueries; ++q) {
    r.query_rows.push_back(catalog.rows(q));
  }
  const Balance before = ReadBalance(system.engine.get());
  SpanLog plain(false, 0);
  // The first window of the untraced run, then the same window traced.
  const PassStats untraced =
      RunLivePass(&system, nullptr, window_seed(0), window_s, &plain, false);
  CheckLivePass("untraced", untraced, before, system.engine.get(), &r);
  SpanLog traced_log(true, kMaxRecordsPerThread);
  const PassStats traced = RunLivePass(&system, &catalog, window_seed(0),
                                       window_s, &traced_log, true);
  CheckLivePass("traced", traced, before, system.engine.get(), &r);
  r.ops = untraced.ops;
  r.ops.Merge(traced.ops);

  r.Add("setup.datagen_s", system.datagen_s, "s");
  r.Add("setup.load_s", system.load_s, "s");
  r.Add("hattrick.txn_p95_ms", untraced.live.txn_latency.Percentile(0.95) * 1e3,
        "ms");
  r.Add("hattrick.txn_p99_ms", untraced.live.txn_latency.Percentile(0.99) * 1e3,
        "ms");
  AddTracedLayers(traced_log, traced,
                  args.out_dir + "/trace-" + args.workload + ".json", true,
                  w.kind == EngineKind::kSystemX, &r);
  r.Add("repl.apply.us_per_record", 0, "us", false);
  r.Add("repl.backlog_records.max", 0, "count", false);
  r.Add("sim.self_s", 0, "s", false);
  r.Add("sim.engine_share", 0, "ratio", false);
  for (const SimDesign& d : kSimDesigns) {
    r.Add(std::string("sim.s_per_vs.") + d.label, 0, "s/s", false);
  }
  // Cost per operation, traced over untraced, averaged over T and A.
  const double overhead =
      0.5 * (Ratio(untraced.live.t_throughput, traced.live.t_throughput) +
             Ratio(untraced.live.a_throughput, traced.live.a_throughput));
  r.Add("trace.overhead", overhead, "ratio");
  r.Expect("query_catalog", catalog_ok, "13 distinct scan fingerprints");
  AddOpsChecks(r.ops, &r);
  return r;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "wallbench_harness: %s\nusage: wallbench_harness --workload "
               "sim_smoke|htap_shared_sf10|htap_hybrid_sf100 --seed N "
               "--seconds S --trace 0|1 --out DIR\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    *out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 3600) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<double>(n);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--out") {
      args.out_dir = value;
      have[4] = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  for (bool h : have) {
    if (!h) return Usage("missing flag");
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "wallbench_harness: refusing to run with %s set; it "
                   "changes the program under test\n",
                   name);
      return 2;
    }
  }

  Result result;
  if (args.workload == "sim_smoke") {
    result = RunSimSmoke(args);
  } else {
    const LiveWorkload* live = nullptr;
    for (const LiveWorkload& w : kLiveWorkloads) {
      if (args.workload == w.name) live = &w;
    }
    if (live == nullptr) return Usage("unknown workload");
    result = RunLive(*live, args);
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
