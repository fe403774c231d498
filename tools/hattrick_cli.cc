// hattrick_cli — run the HATtrick benchmark from the command line.
//
// Modes (as --mode=<m> or the first positional argument):
//   point    run one (T, A) operating point and print its metrics
//   frontier run the full saturation method and print grid + frontier
//   sweep    sweep A-clients at a fixed T (one fixed-T line)
//   query    run analytical queries standalone, with EXPLAIN ANALYZE
//
// Examples:
//   hattrick_cli --mode=point --system=postgres --sf=10 --t=8 --a=4
//   hattrick_cli --mode=frontier --system=postgres-sr --sf=100
//   hattrick_cli --mode=sweep --system=tidb --sf=10 --t=4 --max_a=12
//   hattrick_cli point --system shared --trace-out=/tmp/t.json
//       --metrics-out=/tmp/m.json   (continuation of the previous line)
//   hattrick_cli query --system=system-x --sf=10 --query=Q1.1 --explain
//   hattrick_cli query --query=all --dop=4 --profile-out=/tmp/profiles.json
//
// Flags (an unknown flag, a value that does not parse as its kind or a
// number outside its range is an error: message on stderr, exit status 2,
// before any engine loads):
//   --help      print usage and exit
//   --system    postgres | postgres-rc | postgres-sr | postgres-sr-ra |
//               system-x | tidb | tidb-dist            (default postgres)
//               design-class aliases: shared -> postgres,
//               isolated -> postgres-sr, hybrid -> system-x
//   --sf        scale factor, > 0                      (default 1)
//   --schema    none | semi | all                      (default per system)
//   --t, --a    client counts for --mode=point         (default 4 / 2)
//   --warmup, --measure   period lengths in virtual s  (default 0.25 / 1)
//   --seed      workload seed                          (default 7)
//   --lines, --points, --max_clients   frontier options
//   --threaded  use wall-clock threads instead of the simulator (point)
//   --dop       intra-query parallelism per A-client, 1..64 (default 1)
//   --batch-size  rows per column-vector batch in the vectorized
//               executor, >= 1                          (default 1024)
//   --row-exec  row-at-a-time oracle executor instead of vectorized
//               batches (same results and metered work; for A/B runs)
//   --shards    shard count for --system=tidb-dist, 1..64: a real
//               N-shard engine with 2PC and per-shard replication
//               (default 3; ignored by single-node systems)
//   --merge-mode  eager | bitmap — hybrid engines' delta visibility:
//               eager merges the delta before every analytical query
//               (the paper's protocol), bitmap serves analytics from
//               CSN-stamped version snapshots with background folds
//               (default eager; ignored by non-hybrid systems)
//   --fault-profile  none | drop | duplicate | reorder | crash | delay |
//               chaos — replication fault injection on the standby
//               chains of postgres-sr, postgres-sr-ra and tidb-dist
//               (per-shard chains); other systems ignore it (default none)
//   --fault-seed     fault schedule seed               (default 1)
//   --trace-out    write the run's span trace (point and query modes).
//                  ".csv" writes a flat CSV; anything else writes Chrome
//                  trace-event JSON loadable in Perfetto / chrome://tracing.
//                  In query mode the trace holds per-operator spans.
//   --metrics-out  write the run's metrics snapshot (point mode), JSON or
//                  CSV by extension as above.
//   --query     which query to run in query mode: a name ("Q1.1"), an id
//               (0..12), or "all" (default)
//   --explain   print each query's EXPLAIN ANALYZE operator tree (query
//               mode): rows, batches, selection density, zone-map blocks
//               pruned vs scanned, snapshot lanes, work-meter units, time
//   --profile-out  write the per-query profiles as deterministic JSON
//               ({"profiles":[...]}; timing fields are wall-clock, the
//               digest covers only shape + metered counters)
//   --txns      apply N seeded transactions before profiling (query
//               mode) so scans have a delta: with --merge-mode=bitmap
//               the --explain lanes show the override/insert rows the
//               snapshot reads; eager merges them first

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/support.h"
#include "common/rng.h"
#include "hattrick/transactions.h"
#include "obs/trace.h"
#include "tools/flags.h"

namespace hattrick {
namespace tools {
namespace {

using bench::EngineKind;

PhysicalSchema DefaultSchema(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPostgres:
    case EngineKind::kPostgresRC:
    case EngineKind::kPostgresSR:
    case EngineKind::kPostgresSRRA:
      return PhysicalSchema::kAllIndexes;
    default:
      return PhysicalSchema::kSemiIndexes;  // hybrid: T indexes only
  }
}

bool ParseSchema(const std::string& name, PhysicalSchema* schema) {
  if (name == "none") {
    *schema = PhysicalSchema::kNoIndexes;
  } else if (name == "semi") {
    *schema = PhysicalSchema::kSemiIndexes;
  } else if (name == "all") {
    *schema = PhysicalSchema::kAllIndexes;
  } else {
    return false;
  }
  return true;
}

void PrintPoint(const RunMetrics& metrics) {
  std::printf("t_throughput_tps,%.2f\n", metrics.t_throughput);
  std::printf("a_throughput_qps,%.3f\n", metrics.a_throughput);
  std::printf("committed,%llu\n",
              static_cast<unsigned long long>(metrics.committed));
  std::printf("aborts,%llu\n",
              static_cast<unsigned long long>(metrics.aborts));
  std::printf("failed,%llu\n",
              static_cast<unsigned long long>(metrics.failed));
  std::printf("queries,%llu\n",
              static_cast<unsigned long long>(metrics.queries));
  if (!metrics.txn_latency.empty()) {
    const LatencySummary tail = Summarize(metrics.txn_latency);
    std::printf("txn_latency_ms_p50,%.4f\n", tail.p50 * 1e3);
    std::printf("txn_latency_ms_p95,%.4f\n", tail.p95 * 1e3);
    std::printf("txn_latency_ms_p99,%.4f\n", tail.p99 * 1e3);
  }
  for (int t = 0; t < 3; ++t) {
    const Sampler& sampler = metrics.txn_latency_by_type[t];
    if (!sampler.empty()) {
      std::printf("txn_latency_ms_mean_%s,%.4f\n",
                  TxnTypeName(static_cast<TxnType>(t)),
                  sampler.Mean() * 1e3);
    }
  }
  if (!metrics.query_latency.empty()) {
    const LatencySummary tail = Summarize(metrics.query_latency);
    std::printf("query_latency_ms_p50,%.3f\n", tail.p50 * 1e3);
    std::printf("query_latency_ms_p95,%.3f\n", tail.p95 * 1e3);
    std::printf("query_latency_ms_p99,%.3f\n", tail.p99 * 1e3);
  }
  for (int q = 0; q < kNumQueries; ++q) {
    const Sampler& sampler = metrics.query_latency_by_id[q];
    if (!sampler.empty()) {
      std::printf("query_latency_ms_mean_%s,%.3f\n", QueryName(q),
                  sampler.Mean() * 1e3);
    }
  }
  if (!metrics.freshness.empty()) {
    std::printf("freshness_s_p50,%.5f\n",
                metrics.freshness.Percentile(0.5));
    std::printf("freshness_s_p99,%.5f\n",
                metrics.freshness.Percentile(0.99));
    std::printf("freshness_fresh_fraction,%.4f\n",
                metrics.freshness.CdfAt(1e-3));
  }
}

/// Writes `content` to `path`; returns false (with a message on stderr)
/// on failure.
bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

bool WantsCsv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

constexpr char kUsage[] =
    "usage: hattrick_cli --mode=point|frontier|sweep|query "
    "--system=<name> [--sf=N] [--t=N --a=N] ...\n"
    "see the header of tools/hattrick_cli.cc for all flags\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

/// Every flag the CLI accepts (documented in the header comment).
const std::vector<FlagSpec> kFlags = {
    {"help", FlagKind::kBool},          {"mode", FlagKind::kString},
    {"system", FlagKind::kString},      {"sf", FlagKind::kDouble},
    {"schema", FlagKind::kString},      {"t", FlagKind::kInt},
    {"a", FlagKind::kInt},              {"warmup", FlagKind::kDouble},
    {"measure", FlagKind::kDouble},     {"seed", FlagKind::kInt},
    {"lines", FlagKind::kInt},          {"points", FlagKind::kInt},
    {"max_clients", FlagKind::kInt},    {"max_a", FlagKind::kInt},
    {"threaded", FlagKind::kBool},      {"dop", FlagKind::kInt, 1, 64},
    {"batch-size", FlagKind::kInt, 1},  {"row-exec", FlagKind::kBool},
    {"shards", FlagKind::kInt, 1, 64},  {"merge-mode", FlagKind::kString},
    {"fault-profile", FlagKind::kString}, {"fault-seed", FlagKind::kInt},
    {"trace-out", FlagKind::kString},   {"metrics-out", FlagKind::kString},
    {"query", FlagKind::kString},       {"explain", FlagKind::kBool},
    {"profile-out", FlagKind::kString}, {"txns", FlagKind::kInt},
};

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string flag_error = flags.Validate(kFlags);
  if (!flag_error.empty()) {
    std::fprintf(stderr, "hattrick_cli: %s\n", flag_error.c_str());
    return Usage();
  }
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string mode = flags.positional().empty()
                               ? flags.GetString("mode", "point")
                               : flags.positional().front();

  EngineKind kind;
  if (!bench::ParseEngineKind(flags.GetString("system", "postgres"), &kind)) {
    std::fprintf(stderr, "unknown --system\n");
    return Usage();
  }
  PhysicalSchema schema = DefaultSchema(kind);
  if (flags.Has("schema") &&
      !ParseSchema(flags.GetString("schema", ""), &schema)) {
    std::fprintf(stderr, "unknown --schema\n");
    return Usage();
  }
  const double sf = flags.GetDouble("sf", 1.0);
  if (!(sf > 0)) {
    std::fprintf(stderr, "hattrick_cli: --sf must be > 0\n");
    return Usage();
  }

  FaultConfig fault;
  if (flags.Has("fault-profile")) {
    StatusOr<FaultConfig> parsed = MakeFaultProfile(
        flags.GetString("fault-profile", "none"),
        static_cast<uint64_t>(flags.GetInt("fault-seed", 1)));
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault-profile: %s\n",
                   parsed.status().message().c_str());
      return Usage();
    }
    fault = std::move(parsed).value();
  }

  MergeMode merge_mode = MergeMode::kEager;
  if (flags.Has("merge-mode")) {
    const std::string mode_name = flags.GetString("merge-mode", "eager");
    if (mode_name == "eager") {
      merge_mode = MergeMode::kEager;
    } else if (mode_name == "bitmap") {
      merge_mode = MergeMode::kBitmap;
    } else {
      std::fprintf(stderr, "unknown --merge-mode\n");
      return Usage();
    }
  }

  const auto shards = static_cast<uint32_t>(
      flags.GetInt("shards", static_cast<int>(bench::kDefaultShards)));

  std::printf("# system=%s sf=%.1f schema=%s\n",
              bench::EngineKindName(kind), sf, PhysicalSchemaName(schema));
  if (kind == EngineKind::kTidbDist) {
    std::printf("# shards=%u\n", shards);
  }
  if (merge_mode == MergeMode::kBitmap) {
    std::printf("# merge-mode=bitmap\n");
  }
  if (fault.enabled) {
    std::printf("# fault profile=%s seed=%llu\n", fault.profile.c_str(),
                static_cast<unsigned long long>(fault.seed));
  }
  std::printf("# loading...\n");
  std::fflush(stdout);
  bench::BenchEnv env =
      bench::MakeEnv(kind, sf, schema, fault, merge_mode, shards);
  std::printf("# loaded %zu lineorders\n", env.dataset.lineorder.size());

  WorkloadConfig base;
  base.warmup_seconds = flags.GetDouble("warmup", 0.25);
  base.measure_seconds = flags.GetDouble("measure", 1.0);
  base.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  base.dop = flags.GetInt("dop", 1);
  base.vectorized = !flags.GetBool("row-exec", false);
  base.batch_rows = flags.GetInt("batch-size", 0);

  if (mode == "point") {
    base.t_clients = flags.GetInt("t", 4);
    base.a_clients = flags.GetInt("a", 2);
    const std::string trace_out = flags.GetString("trace-out", "");
    const std::string metrics_out = flags.GetString("metrics-out", "");
    obs::Tracer tracer;
    RunMetrics metrics;
    if (flags.GetBool("threaded", false)) {
      ThreadedDriver threaded(env.engine.get(), env.context.get());
      if (!trace_out.empty()) threaded.SetTracer(&tracer);
      metrics = threaded.Run(base);
    } else {
      if (!trace_out.empty()) env.driver->SetTracer(&tracer);
      metrics = env.driver->Run(base);
      env.driver->SetTracer(nullptr);
    }
    PrintPoint(metrics);
    if (!trace_out.empty()) {
      const std::string body =
          WantsCsv(trace_out) ? tracer.ToCsv() : tracer.ToChromeJson();
      if (!WriteFile(trace_out, body)) return 1;
      std::printf("# trace: %zu spans (%llu dropped) -> %s\n", tracer.size(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      const std::string body = WantsCsv(metrics_out)
                                   ? metrics.observed.ToCsv()
                                   : metrics.observed.ToJson();
      if (!WriteFile(metrics_out, body)) return 1;
      std::printf("# metrics: %zu entries -> %s\n",
                  metrics.observed.entries.size(), metrics_out.c_str());
    }
    return 0;
  }
  if (mode == "query") {
    const std::string which = flags.GetString("query", "all");
    std::vector<int> qids;
    if (which == "all") {
      for (int q = 0; q < kNumQueries; ++q) qids.push_back(q);
    } else {
      int qid = -1;
      for (int q = 0; q < kNumQueries; ++q) {
        if (which == QueryName(q)) qid = q;
      }
      if (qid < 0 && !which.empty() &&
          which.find_first_not_of("0123456789") == std::string::npos) {
        const int parsed = std::atoi(which.c_str());
        if (parsed >= 0 && parsed < kNumQueries) qid = parsed;
      }
      if (qid < 0) {
        std::fprintf(stderr,
                     "unknown --query (use Q1.1..Q4.3, 0..12, or all)\n");
        return Usage();
      }
      qids.push_back(qid);
    }
    const bool explain = flags.GetBool("explain", false);
    const std::string profile_out = flags.GetString("profile-out", "");
    const std::string trace_out = flags.GetString("trace-out", "");
    // Apply a burst of transactions before profiling so the scans have a
    // delta to show: on the hybrid designs, --merge-mode=eager then
    // merges it before the query while bitmap mode reads it through the
    // override/insert snapshot lanes (visible in --explain).
    const int txns = flags.GetInt("txns", 0);
    if (txns > 0) {
      const EngineHandles handles = EngineHandles::Resolve(
          *env.engine->primary_catalog(), env.context->num_freshness_tables);
      Rng rng(base.seed);
      uint64_t committed = 0;
      for (int i = 0; i < txns; ++i) {
        const TxnParams params = GenerateTxnParams(env.context.get(), &rng);
        WorkMeter txn_meter;
        const uint32_t client =
            1 + static_cast<uint32_t>(i) % env.context->num_freshness_tables;
        if (env.engine
                ->ExecuteTransaction(
                    MakeTxnBody(params, handles, client, i + 1), client,
                    i + 1, &txn_meter)
                .status.ok()) {
          ++committed;
        }
      }
      std::printf("# txns: %llu/%d committed\n",
                  static_cast<unsigned long long>(committed), txns);
    }
    WallClock clock;
    obs::Tracer tracer;
    std::string profiles_json = "{\"profiles\":[";
    std::printf("# query,rows,work_units,time_ms,digest\n");
    for (size_t k = 0; k < qids.size(); ++k) {
      const int qid = qids[k];
      WorkMeter meter;
      AnalyticsSession session = env.engine->BeginAnalytics(&meter);
      ExecContext ctx;
      ctx.meter = &meter;
      ctx.dop = base.dop;
      ctx.dynamic_morsels = true;  // wall-clock: balance via stealing
      ctx.vectorized = base.vectorized;
      if (base.batch_rows > 0) {
        ctx.batch_rows = static_cast<size_t>(base.batch_rows);
      }
      ctx.session_pin = session.guard;
      obs::PlanProfile profile(&clock);
      ctx.profile = &profile;
      const double t0 = clock.Now();
      const QueryResult result = RunQuery(
          qid, *session.source, env.context->num_freshness_tables, &ctx);
      const double elapsed = clock.Now() - t0;
      ctx.session_pin.reset();
      session.source.reset();
      session.guard.reset();
      std::printf("%s,%zu,%llu,%.3f,%s\n", QueryName(qid), result.rows,
                  static_cast<unsigned long long>(meter.Total()),
                  elapsed * 1e3, profile.Digest().c_str());
      if (explain) {
        std::printf("%s\n", profile.ToText().c_str());
      }
      if (!trace_out.empty()) {
        const uint32_t track =
            obs::kTrackAClientBase + static_cast<uint32_t>(qid);
        tracer.SetTrackName(track, QueryName(qid));
        profile.EmitSpans(&tracer, track);
      }
      if (!profile_out.empty()) {
        std::string one = profile.ToJson();
        while (!one.empty() && one.back() == '\n') one.pop_back();
        if (k > 0) profiles_json += ",";
        profiles_json += one;
      }
      std::fflush(stdout);
    }
    if (!profile_out.empty()) {
      profiles_json += "]}\n";
      if (!WriteFile(profile_out, profiles_json)) return 1;
      std::printf("# profiles: %zu queries -> %s\n", qids.size(),
                  profile_out.c_str());
    }
    if (!trace_out.empty()) {
      const std::string body =
          WantsCsv(trace_out) ? tracer.ToCsv() : tracer.ToChromeJson();
      if (!WriteFile(trace_out, body)) return 1;
      std::printf("# trace: %zu spans (%llu dropped) -> %s\n", tracer.size(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  trace_out.c_str());
    }
    return 0;
  }
  if (mode == "frontier") {
    FrontierOptions options;
    options.lines = flags.GetInt("lines", 5);
    options.points_per_line = flags.GetInt("points", 5);
    options.max_clients = flags.GetInt("max_clients", 32);
    const GridGraph grid = BuildGridGraph(
        MakeRunner(env.driver.get(), base), options,
        [](const std::string& note) {
          std::fprintf(stderr, "%s\n", note.c_str());
        });
    PrintFrontierSummary(bench::EngineKindName(kind), grid);
    PrintGridCsv(bench::EngineKindName(kind), grid);
    const auto freshness = MeasureRatioFreshness(
        MakeRunner(env.driver.get(), base), grid.tau_max, grid.alpha_max);
    PrintRatioFreshness(bench::EngineKindName(kind), freshness);
    PlotFrontiers({bench::EngineKindName(kind)}, {&grid});
    return 0;
  }
  if (mode == "sweep") {
    const int t = flags.GetInt("t", 4);
    const int max_a = flags.GetInt("max_a", 8);
    std::printf("t_clients,a_clients,tps,qps,freshness_p99_s\n");
    for (int a = 0; a <= max_a; ++a) {
      base.t_clients = t;
      base.a_clients = a;
      const RunMetrics metrics = env.driver->Run(base);
      std::printf("%d,%d,%.1f,%.2f,%.5f\n", t, a, metrics.t_throughput,
                  metrics.a_throughput,
                  metrics.freshness.empty()
                      ? 0.0
                      : metrics.freshness.Percentile(0.99));
      std::fflush(stdout);
    }
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace tools
}  // namespace hattrick

int main(int argc, char** argv) {
  return hattrick::tools::Main(argc, argv);
}
