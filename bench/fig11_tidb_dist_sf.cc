// Figure 11 reproduction: distributed TiDB across scale factors, served
// by the real sharded engine (src/shard/) — N hybrid shard nodes behind
// the single-node facade, hash routing, cross-shard 2PC, and per-shard
// replication chains.
//
// Expected shape (Section 6.5.2): compared to single-node TiDB the
// distributed deployment has a *lower* maximum T throughput (the
// distributed transaction path burns CPU on marshalling/TCP-IP and waits
// on per-participant round trips) and a *higher* maximum A throughput
// (more TiFlash resources); the frontier moves above the proportional
// line as SF grows (separate storage/compute per workload); freshness
// stays zero.
//
// On top of the paper's figure this bench adds what only a real sharded
// engine can measure:
//  - an N=1..16 shard-count sweep at SF10: max-T throughput must scale
//    at least 3x from N=1 to N=8 (real scale-out, not a cost constant);
//  - a failover leg: chaos faults on every shard's replication chain
//    must leave primaries untouched and standbys fully converged.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "hattrick/transactions.h"
#include "shard/sharded_engine.h"

using namespace hattrick;         // NOLINT
using namespace hattrick::bench;  // NOLINT

namespace {

BenchEnv MakeDistEnv(double sf, uint32_t shards,
                     const FaultConfig& fault = {}) {
  return MakeEnv(EngineKind::kTidbDist, sf, PhysicalSchema::kSemiIndexes,
                 fault, MergeMode::kEager, shards);
}

/// Pure-T saturation throughput (the grid graph's XT) without building
/// the whole grid: sweeps T-clients alone to saturation.
double MaxTThroughput(BenchEnv* env, int max_clients) {
  const PointRunner runner =
      MakeRunner(env->driver.get(), DefaultRunConfig());
  double best = 0;
  FindSaturation(
      [&](int t) {
        const double tps = runner(t, 0).tps;
        best = std::max(best, tps);
        return tps;
      },
      max_clients, 0.03);
  return best;
}

/// Applies a deterministic batch of HATtrick transactions directly to
/// the engine (no driver), interleaving maintenance pumps the way the
/// fault chaos tests do.
void ApplyTxnBatch(BenchEnv* env, uint64_t seed, int txns) {
  const EngineHandles handles = EngineHandles::Resolve(
      *env->engine->primary_catalog(), env->context->num_freshness_tables);
  Rng rng(seed);
  for (int i = 0; i < txns; ++i) {
    const TxnParams params = GenerateTxnParams(env->context.get(), &rng);
    const uint32_t client =
        1 + static_cast<uint32_t>(i) % env->context->num_freshness_tables;
    WorkMeter meter;
    env->engine->ExecuteTransaction(
        MakeTxnBody(params, handles, client, static_cast<uint64_t>(i + 1)),
        client, static_cast<uint64_t>(i + 1), &meter);
    if (i % 3 == 0) {
      WorkMeter pump;
      env->engine->MaintenanceStep(&pump);
    }
  }
}

/// Sum of the 13 SSB query checksums on the engine's current contents.
double QueryChecksumSum(BenchEnv* env) {
  double sum = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    WorkMeter meter;
    AnalyticsSession session = env->engine->BeginAnalytics(&meter);
    ExecContext ctx;
    ctx.meter = &meter;
    ctx.session_pin = session.guard;
    sum += RunQuery(q, *session.source,
                    env->context->num_freshness_tables, &ctx)
               .checksum;
  }
  return sum;
}

}  // namespace

int main() {
  std::printf("=== Figure 11: distributed TiDB for different scaling "
              "factors ===\n");
  std::vector<GridGraph> grids;
  std::vector<std::string> labels;
  bool all_fresh = true;
  for (const double sf : {1.0, 10.0, 100.0}) {
    const std::string label =
        "TiDB-Dist SF" + std::to_string(static_cast<int>(sf));
    BenchEnv env = MakeDistEnv(sf, 3);
    const GridGraph grid = RunGrid(&env, label);
    PrintFrontierSummary(label, grid);
    PrintGridCsv(label, grid);
    const auto freshness = MeasureRatioFreshness(
        MakeRunner(env.driver.get(), DefaultRunConfig()), grid.tau_max,
        grid.alpha_max);
    PrintRatioFreshness(label, freshness);
    for (const auto& row : freshness) {
      if (row.p99 > 0) all_fresh = false;
    }
    grids.push_back(grid);
    labels.push_back(label);
  }
  PlotFrontiers(labels, {&grids[0], &grids[1], &grids[2]});

  // Single-node TiDB at SF10 for the cross-deployment comparison.
  BenchEnv single =
      MakeEnv(EngineKind::kTidb, 10.0, PhysicalSchema::kSemiIndexes);
  const GridGraph single_grid = RunGrid(&single, "TiDB SF10 (single)");

  std::printf("\n# shape checks\n");
  std::printf("freshness always zero:        %s\n",
              all_fresh ? "yes" : "NO");
  std::printf("dist max-T < single max-T:    %s (%.0f vs %.0f)\n",
              grids[1].xt < single_grid.xt ? "yes" : "NO", grids[1].xt,
              single_grid.xt);
  std::printf("dist max-A > single max-A:    %s (%.2f vs %.2f)\n",
              grids[1].xa > single_grid.xa ? "yes" : "NO", grids[1].xa,
              single_grid.xa);
  std::printf("coverage grows with SF:       %s (%.3f, %.3f, %.3f)\n",
              FrontierCoverage(grids[0]) <= FrontierCoverage(grids[2])
                  ? "yes"
                  : "NO",
              FrontierCoverage(grids[0]), FrontierCoverage(grids[1]),
              FrontierCoverage(grids[2]));

  // ------------------------------------------------------------------
  // Shard-count sweep at SF10: does the sharded engine actually scale
  // out? Every N runs the same workload on the same per-node cost model,
  // so the curve isolates added nodes (and the 2PC/routing tax).
  std::printf("\n=== shard-count sweep @ SF10 ===\n");
  std::printf("shards,max_t_tps\n");
  double xt_n1 = 0, xt_n8 = 0;
  for (const uint32_t n : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    BenchEnv env = MakeDistEnv(10.0, n);
    // Each simulated T-client claims one of the dataset's
    // kFreshnessTables FRESHNESS_j tables, so the sweep cannot exceed
    // that; past N~6 the curve is client-bound, not resource-bound.
    const int max_clients =
        std::min(static_cast<int>(kFreshnessTables),
                 16 * static_cast<int>(n) + 16);
    const double xt = MaxTThroughput(&env, max_clients);
    std::printf("%u,%.0f\n", n, xt);
    std::fflush(stdout);
    if (n == 1) xt_n1 = xt;
    if (n == 8) xt_n8 = xt;
  }
  std::printf("max-T scales >= 3x (1 -> 8):  %s (%.0f -> %.0f, %.2fx)\n",
              xt_n8 >= 3.0 * xt_n1 ? "yes" : "NO", xt_n1, xt_n8,
              xt_n1 > 0 ? xt_n8 / xt_n1 : 0.0);

  // ------------------------------------------------------------------
  // Failover: chaos faults on every shard's replication chain. The
  // primaries never see faults (identical query answers), and after the
  // drain every standby has converged (zero lag, no sticky error).
  std::printf("\n=== failover convergence @ SF1, N=3 ===\n");
  {
    StatusOr<FaultConfig> fault = MakeFaultProfile("chaos", 17);
    if (!fault.ok()) {
      std::printf("fault profile unavailable: %s\n",
                  fault.status().ToString().c_str());
      return 1;
    }
    BenchEnv clean = MakeDistEnv(1.0, 3);
    BenchEnv faulted = MakeDistEnv(1.0, 3, fault.value());
    ApplyTxnBatch(&clean, /*seed=*/123, /*txns=*/400);
    ApplyTxnBatch(&faulted, /*seed=*/123, /*txns=*/400);

    auto* clean_engine = static_cast<ShardedEngine*>(clean.engine.get());
    auto* faulted_engine =
        static_cast<ShardedEngine*>(faulted.engine.get());
    bool converged = true;
    for (uint32_t s = 0; s < faulted_engine->num_shards(); ++s) {
      // Drain through every remaining fault (resends, crash recovery).
      clean_engine->shard_replica(s)->CatchUp(nullptr);
      faulted_engine->shard_replica(s)->CatchUp(nullptr);
      const Replica* replica = faulted_engine->shard_replica(s);
      if (replica->Lag() != 0 || !replica->last_error().ok() ||
          replica->applied_lsn() !=
              clean_engine->shard_replica(s)->applied_lsn()) {
        converged = false;
      }
    }
    const double clean_sum = QueryChecksumSum(&clean);
    const double faulted_sum = QueryChecksumSum(&faulted);
    std::printf("faulted == fault-free answers: %s (%.6f vs %.6f)\n",
                clean_sum == faulted_sum ? "yes" : "NO", clean_sum,
                faulted_sum);
    std::printf("all standbys converged:        %s\n",
                converged ? "yes" : "NO");
  }
  return 0;
}
