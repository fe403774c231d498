#ifndef HATTRICK_BENCH_SUPPORT_H_
#define HATTRICK_BENCH_SUPPORT_H_

#include <memory>
#include <string>

#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "fault/fault_injector.h"
#include "hattrick/datagen.h"
#include "hattrick/driver.h"
#include "hattrick/frontier.h"
#include "hattrick/report.h"

namespace hattrick {
namespace bench {

/// The systems the paper evaluates (Section 6), mapped to this repo's
/// engines and simulated deployments (see DESIGN.md):
///  - kPostgres:     SharedEngine, serializable, one node.
///  - kPostgresRC:   SharedEngine, read committed (Figure 6a).
///  - kPostgresSR:   IsolatedEngine, synchronous_commit=ON, two nodes.
///  - kPostgresSRRA: IsolatedEngine, remote_apply (Figure 8a).
///  - kSystemX:      HybridEngine, OCC serializable, one node.
///  - kTidb:         HybridEngine, snapshot isolation, one node.
///  - kTidbDist:     distributed TiDB — an N-shard ShardedEngine (hash
///                   routing, 2PC, per-shard replication chains) on
///                   ShardedSimSetup(N), which charges coordination
///                   latency per participant via TxnOutcome::shards_touched.
enum class EngineKind {
  kPostgres,
  kPostgresRC,
  kPostgresSR,
  kPostgresSRRA,
  kSystemX,
  kTidb,
  kTidbDist,
};

/// Shard count of a tidb-dist deployment unless the caller names one: the
/// paper testbed's TiKV node count.
inline constexpr uint32_t kDefaultShards = 3;

/// Returns the display name used in the output ("PostgreSQL", ...).
const char* EngineKindName(EngineKind kind);

/// Parses a setup name ("postgres", "postgres-rc", "postgres-sr",
/// "postgres-sr-ra", "system-x", "tidb", "tidb-dist", plus the aliases
/// "shared", "isolated", "hybrid"). Returns false on an unknown name —
/// callers must report the error, never fall back to a default setup.
bool ParseEngineKind(const std::string& name, EngineKind* kind);

/// ParseEngineKind, or a one-line error on stderr and abort. Benches use
/// this so a typoed setup name fails loudly instead of silently
/// benchmarking the wrong system.
EngineKind EngineKindFromNameOrDie(const std::string& name);

/// A loaded engine + workload context + virtual-time driver.
struct BenchEnv {
  Dataset dataset;
  std::unique_ptr<HtapEngine> engine;
  std::unique_ptr<WorkloadContext> context;
  std::unique_ptr<SimDriver> driver;
};

/// Benchmark-wide scaling: the paper's SF ladder scaled ~2000x down
/// (DESIGN.md). SF1/SF10/SF100 give 2k/20k/200k lineorders.
inline constexpr size_t kLineordersPerSf = 2000;
inline constexpr uint32_t kFreshnessTables = 48;
inline constexpr uint64_t kDatagenSeed = 42;

/// Builds, loads, and wires up a system at `scale_factor`. `fault`
/// (default: disabled) attaches replication-layer fault injection to the
/// isolated engines (kPostgresSR / kPostgresSRRA); other kinds have no
/// replication channel and ignore it. `merge_mode` (default eager) selects
/// the hybrid engines' delta-visibility protocol; the shared and isolated
/// kinds have no column copy and ignore it. `shards` applies only to
/// kTidbDist (other kinds are single-node and ignore it), where `fault`
/// attaches to the per-shard replication chains instead.
BenchEnv MakeEnv(EngineKind kind, double scale_factor,
                 PhysicalSchema physical, const FaultConfig& fault = {},
                 MergeMode merge_mode = MergeMode::kEager,
                 uint32_t shards = kDefaultShards);

/// Default measurement procedure for the figure benches. Execution mode
/// follows the WorkloadConfig defaults: vectorized, 1024 rows per batch —
/// metered work is mode-independent, so figures are identical either way.
WorkloadConfig DefaultRunConfig();

/// Default saturation-method options.
FrontierOptions DefaultFrontierOptions();

/// Runs the full saturation method on `env` and prints progress dots.
GridGraph RunGrid(BenchEnv* env, const std::string& label);

/// Prints everything the paper's per-system figures contain: fixed-T /
/// fixed-A lines, the frontier, summary metrics, and the freshness scores
/// at the 20:80 / 50:50 / 80:20 ratio points.
void ReportSystem(BenchEnv* env, const std::string& label,
                  const GridGraph& grid);

}  // namespace bench
}  // namespace hattrick

#endif  // HATTRICK_BENCH_SUPPORT_H_
