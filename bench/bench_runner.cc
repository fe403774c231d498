// bench_runner — perf-regression snapshot generator.
//
// Runs a fixed benchmark recipe on the virtual-time simulator and writes
// a versioned BENCH_<name>.json snapshot: throughput, freshness,
// tail-latency summaries per transaction type and per query, per-query
// EXPLAIN ANALYZE digests (plan shape + metered counters), and a small
// operating-point sweep for the p99-vs-throughput percentile curves.
//
// Everything runs on the simulator with a fixed seed and all floats are
// formatted with %.9g, so two runs of the same binary emit byte-identical
// snapshots; scripts/bench_compare.py diffs two snapshots with tolerance
// bands and exits non-zero on a regression (the CI bench-smoke job gates
// on the checked-in BENCH_smoke.json baseline).
//
// Flags (an unknown flag, an unparsable value or a number outside its
// range exits with status 2):
//   --name      snapshot name                        (default "smoke")
//   --out       output path                          (default BENCH_<name>.json)
//   --sf        scale factor, > 0                    (default 1)
//   --t, --a    profiled operating point             (default 4 / 2)
//   --warmup, --measure  period lengths in virtual s (default 0.25 / 1)
//   --seed      workload seed                        (default 7)
//   --dop       intra-query parallelism, 1..64       (default 1)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/support.h"
#include "tools/flags.h"

namespace hattrick {
namespace bench {
namespace {

/// Deterministic fixed-format float (same convention as the metrics and
/// profile exports).
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string U64(uint64_t v) { return std::to_string(v); }

std::string SummaryJson(const LatencySummary& s) {
  return "{\"p50\":" + Num(s.p50) + ",\"p95\":" + Num(s.p95) +
         ",\"p99\":" + Num(s.p99) + "}";
}

struct SystemRecipe {
  const char* label;  // key in the snapshot (stable across runs)
  EngineKind kind;
  PhysicalSchema physical;
};

}  // namespace

int Main(int argc, char** argv) {
  const tools::Flags flags(argc, argv);
  const std::string flag_error = flags.Validate({
      {"name", tools::FlagKind::kString},
      {"out", tools::FlagKind::kString},
      {"sf", tools::FlagKind::kDouble},
      {"t", tools::FlagKind::kInt},
      {"a", tools::FlagKind::kInt},
      {"warmup", tools::FlagKind::kDouble},
      {"measure", tools::FlagKind::kDouble},
      {"seed", tools::FlagKind::kInt},
      {"dop", tools::FlagKind::kInt, 1, 64},
  });
  const double sf = flags.GetDouble("sf", 1.0);
  if (!flag_error.empty() || !(sf > 0)) {
    std::fprintf(stderr, "bench_runner: %s\n",
                 flag_error.empty() ? "--sf must be > 0" : flag_error.c_str());
    return 2;
  }
  const std::string name = flags.GetString("name", "smoke");
  const std::string out_path =
      flags.GetString("out", "BENCH_" + name + ".json");

  WorkloadConfig base;
  base.t_clients = flags.GetInt("t", 4);
  base.a_clients = flags.GetInt("a", 2);
  base.warmup_seconds = flags.GetDouble("warmup", 0.25);
  base.measure_seconds = flags.GetDouble("measure", 1.0);
  base.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  base.dop = flags.GetInt("dop", 1);

  // One representative per design class (shared / isolated / hybrid).
  const SystemRecipe kSystems[] = {
      {"shared", EngineKind::kPostgres, PhysicalSchema::kAllIndexes},
      {"isolated", EngineKind::kPostgresSR, PhysicalSchema::kAllIndexes},
      {"hybrid", EngineKind::kSystemX, PhysicalSchema::kSemiIndexes},
  };
  // The percentile-curve sweep: load rises left to right.
  const int kSweep[][2] = {{2, 1}, {4, 2}, {8, 4}};

  std::string json = "{\"bench_format\":1,\"name\":\"" + name + "\"";
  json += ",\"config\":{\"sf\":" + Num(sf) +
          ",\"seed\":" + U64(base.seed) +
          ",\"t_clients\":" + std::to_string(base.t_clients) +
          ",\"a_clients\":" + std::to_string(base.a_clients) +
          ",\"warmup_s\":" + Num(base.warmup_seconds) +
          ",\"measure_s\":" + Num(base.measure_seconds) +
          ",\"dop\":" + std::to_string(base.dop) + "}";
  json += ",\"systems\":[";

  for (size_t s = 0; s < sizeof(kSystems) / sizeof(kSystems[0]); ++s) {
    const SystemRecipe& recipe = kSystems[s];
    std::fprintf(stderr, "bench_runner: %s (%s, sf=%g)...\n", recipe.label,
                 EngineKindName(recipe.kind), sf);
    BenchEnv env = MakeEnv(recipe.kind, sf, recipe.physical);

    WorkloadConfig run = base;
    run.profile_queries = true;
    const RunMetrics metrics = env.driver->Run(run);

    if (s > 0) json += ",";
    json += "{\"system\":\"" + std::string(recipe.label) + "\"";
    json += ",\"engine\":\"" + std::string(EngineKindName(recipe.kind)) +
            "\"";
    json += ",\"tps\":" + Num(metrics.t_throughput);
    json += ",\"qps\":" + Num(metrics.a_throughput);
    json += ",\"committed\":" + U64(metrics.committed);
    json += ",\"aborts\":" + U64(metrics.aborts);
    json += ",\"queries\":" + U64(metrics.queries);
    json += ",\"freshness_p50_s\":" +
            Num(metrics.freshness.empty() ? 0.0
                                          : metrics.freshness.Percentile(0.5));
    json += ",\"freshness_p99_s\":" +
            Num(metrics.freshness.empty()
                    ? 0.0
                    : metrics.freshness.Percentile(0.99));

    json += ",\"txn_latency_s\":{\"all\":" +
            SummaryJson(Summarize(metrics.txn_latency));
    for (int t = 0; t < 3; ++t) {
      json += std::string(",\"") + TxnTypeName(static_cast<TxnType>(t)) +
              "\":" + SummaryJson(Summarize(metrics.txn_latency_by_type[t]));
    }
    json += "}";

    json += ",\"query_latency_s\":{\"all\":" +
            SummaryJson(Summarize(metrics.query_latency));
    for (int q = 0; q < kNumQueries; ++q) {
      json += std::string(",\"") + QueryName(q) + "\":" +
              SummaryJson(Summarize(metrics.query_latency_by_id[q]));
    }
    json += "}";

    // Per-query profile digests: plan shape + rows + work per execution.
    // The result checksum is intentionally absent (it folds
    // std::hash<std::string>, which is platform-dependent); rows and the
    // digest are the portable correctness surface.
    json += ",\"query_profiles\":[";
    bool first_profile = true;
    for (int q = 0; q < kNumQueries; ++q) {
      const obs::PlanProfile& profile = metrics.query_profiles[q];
      if (profile.empty()) continue;
      uint64_t root_rows = 0;
      uint64_t root_work = 0;
      for (size_t i = 0; i < profile.size(); ++i) {
        if (profile.node(i).parent < 0) {
          root_rows += profile.node(i).rows_out;
          root_work += profile.node(i).work_units;
        }
      }
      if (!first_profile) json += ",";
      first_profile = false;
      json += std::string("{\"query\":\"") + QueryName(q) + "\"" +
              ",\"executions\":" + U64(profile.executions()) +
              ",\"rows_per_exec\":" + U64(root_rows / profile.executions()) +
              ",\"work_per_exec\":" + U64(root_work / profile.executions()) +
              ",\"digest\":\"" + profile.Digest() + "\"}";
    }
    json += "]";

    // Small operating-point sweep for the p99-vs-throughput curves
    // (plot_figures.py --bench renders them).
    json += ",\"points\":[";
    for (size_t p = 0; p < sizeof(kSweep) / sizeof(kSweep[0]); ++p) {
      WorkloadConfig point = base;
      point.t_clients = kSweep[p][0];
      point.a_clients = kSweep[p][1];
      const RunMetrics pm = env.driver->Run(point);
      if (p > 0) json += ",";
      json += "{\"t\":" + std::to_string(point.t_clients) +
              ",\"a\":" + std::to_string(point.a_clients) +
              ",\"tps\":" + Num(pm.t_throughput) +
              ",\"qps\":" + Num(pm.a_throughput) +
              ",\"txn_p99_s\":" + Num(Summarize(pm.txn_latency).p99) +
              ",\"query_p99_s\":" + Num(Summarize(pm.query_latency).p99) +
              "}";
    }
    json += "]}";
  }
  json += "]}\n";

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench_runner: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  if (!out.good()) return 1;
  std::fprintf(stderr, "bench_runner: wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace hattrick

int main(int argc, char** argv) {
  return hattrick::bench::Main(argc, argv);
}
