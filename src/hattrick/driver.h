#ifndef HATTRICK_HATTRICK_DRIVER_H_
#define HATTRICK_HATTRICK_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "engine/htap_engine.h"
#include "hattrick/freshness.h"
#include "hattrick/queries.h"
#include "hattrick/transactions.h"
#include "obs/observability.h"
#include "obs/plan_profile.h"
#include "sim/cost_model.h"

namespace hattrick {

/// One benchmark run: a fixed (T-clients, A-clients) operating point
/// executed for a warm-up period followed by a measurement period
/// (Section 5.3 / 6.1). Each client issues requests back-to-back: a new
/// request as soon as the previous result returns.
struct WorkloadConfig {
  int t_clients = 0;
  int a_clients = 0;
  double warmup_seconds = 0.3;
  double measure_seconds = 1.5;
  uint64_t seed = 7;
  /// Intra-query parallelism of each A-client (morsel-driven; see
  /// exec/morsel.h). The wall-clock driver runs each query on `dop`
  /// worker threads; the simulated driver charges each query's work
  /// across `dop` cores of the A pool (CorePool::SubmitParallel). 1 — the
  /// paper-faithful default, matching its single-stream query clients —
  /// leaves all existing figures unchanged.
  int dop = 1;
  /// Analytical execution mode (see ExecContext::vectorized): vectorized
  /// batch execution (default) or the row-at-a-time oracle. Results and
  /// metered work are bit-identical; the knob exists for differential
  /// testing and benchmarking.
  bool vectorized = true;
  /// Rows per column-vector batch; 0 (default) means kDefaultBatchRows.
  int batch_rows = 0;
  /// EXPLAIN ANALYZE profiling of every analytical query: each execution
  /// runs with an ExecContext::profile attached and the per-query trees
  /// are aggregated into RunMetrics::query_profiles. Off by default —
  /// profiling never changes results or metered work, but the per-call
  /// accounting is not free.
  bool profile_queries = false;
};

/// Metrics extracted from one run. Throughput counts completions whose
/// results returned within the measurement window; only successfully
/// committed transactions count (tps) and only finished queries count
/// (qps), as in the paper.
struct RunMetrics {
  double t_throughput = 0;  // tps
  double a_throughput = 0;  // qps
  uint64_t committed = 0;
  uint64_t failed = 0;   // transactions that exhausted retries
  uint64_t aborts = 0;   // retried validation aborts
  uint64_t queries = 0;

  /// Per-transaction-type breakdown (indexed by TxnType): measured-window
  /// commits and retried aborts charged to the type that conflicted.
  uint64_t committed_by_type[3] = {0, 0, 0};
  uint64_t aborts_by_type[3] = {0, 0, 0};

  /// Virtual seconds T-clients spent queued on the simulator's row-lock
  /// model before their transactions could run. Always 0 from the
  /// threaded driver: only the simulator models row locks.
  double lock_wait_seconds = 0;

  Sampler txn_latency;                     // seconds, all types
  Sampler txn_latency_by_type[3];          // indexed by TxnType
  Sampler query_latency;                   // seconds, all queries
  Sampler query_latency_by_id[kNumQueries];
  Sampler freshness;                       // seconds, per measured query

  double measure_seconds = 0;

  /// End-of-run snapshot of the run's metrics registry (txn / repl /
  /// merge / pool domain metrics). Always populated by both drivers.
  obs::MetricsSnapshot observed;

  /// Aggregated EXPLAIN ANALYZE profile per SSB query (all executions of
  /// that query folded together, warm-up included). Empty unless
  /// WorkloadConfig::profile_queries was set.
  obs::PlanProfile query_profiles[kNumQueries];
};

/// Placement and cost parameters of a simulated deployment.
struct SimSetup {
  /// Core pools. With separate_pools=false (single machine: shared and
  /// hybrid designs) every job runs on the T pool and `a_cores` is
  /// ignored; with separate_pools=true (isolated / distributed designs)
  /// transactions run on the T pool while queries and WAL replay run on
  /// the A pool.
  double t_cores = 8;
  double a_cores = 8;
  bool separate_pools = false;

  CostModel cost;

  /// Row-lock contention model: fraction of a transaction's service time
  /// during which its written rows block other writers (1.0 pessimistic,
  /// lower for optimistic validation-window-only engines).
  double lock_hold_fraction = 1.0;

  /// Hold fraction for rows written only by commutative delta
  /// increments: a delta "holds" its row just across the lock-free
  /// install/publish instants (no read-modify-write or validation
  /// span), so concurrent payments on a hot supplier barely queue.
  double delta_hold_fraction = 0.05;

  /// Whether the engine has a background applier to drive (the isolated
  /// engine's standby WAL replay).
  bool has_maintenance = false;
};

/// Canned deployments mirroring the paper's testbed (Section 6.1): equal
/// single nodes for PostgreSQL/System-X/TiDB, two nodes for
/// PostgreSQL-SR, 3 TiKV + 2 TiFlash nodes for TiDB-Dist.
SimSetup SharedSimSetup();    // PostgreSQL-like, one node
SimSetup IsolatedSimSetup();  // PostgreSQL-SR-like, two nodes
SimSetup HybridSimSetup();    // System-X / single-node TiDB
/// Distributed TiDB with real sharding: N nodes' worth of cores, and the
/// cross-shard coordination latency charged per participant through
/// TxnOutcome::shards_touched. A one-node deployment still pays the
/// distributed codepath's CPU cost (as a one-TiKV TiDB does), so the N
/// sweep isolates pure scale-out.
SimSetup ShardedSimSetup(uint32_t shards);

/// Virtual-time benchmark driver: executes the HATtrick procedure against
/// a real engine with simulated clients on modeled core pools (see
/// DESIGN.md for why this substitutes for the paper's wall-clock runs).
/// Deterministic: identical seeds give identical metrics.
class SimDriver {
 public:
  /// `engine` must be loaded (FinishLoad called). The driver resets the
  /// engine at the start of every Run.
  SimDriver(HtapEngine* engine, WorkloadContext* context, SimSetup setup);

  /// Executes one operating point and returns its metrics.
  RunMetrics Run(const WorkloadConfig& config);

  /// Attaches a span tracer for subsequent Runs (nullptr detaches).
  /// Spans record *virtual* time; the tracer is Clear()ed at the start of
  /// each Run, so two same-seed runs export byte-identical traces.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  HtapEngine* engine_;
  WorkloadContext* context_;
  SimSetup setup_;
  obs::Tracer* tracer_ = nullptr;
};

/// Wall-clock driver: real client threads against the thread-safe
/// engines. It runs the same client procedure as SimDriver; only the
/// clock differs (threads, sleeps and a live applier thread instead of
/// modeled core pools). Used by the examples and integration tests to
/// demonstrate the system live; the figure-generating benchmarks use
/// SimDriver.
class ThreadedDriver {
 public:
  ThreadedDriver(HtapEngine* engine, WorkloadContext* context);

  RunMetrics Run(const WorkloadConfig& config);

  /// Attaches a span tracer for subsequent Runs (nullptr detaches).
  /// Spans record wall time through the same tracer API the simulated
  /// driver uses with virtual time.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  HtapEngine* engine_;
  WorkloadContext* context_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hattrick

#endif  // HATTRICK_HATTRICK_DRIVER_H_
