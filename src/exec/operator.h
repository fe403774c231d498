#ifndef HATTRICK_EXEC_OPERATOR_H_
#define HATTRICK_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/value.h"
#include "common/work_meter.h"
#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/morsel.h"
#include "obs/plan_profile.h"
#include "obs/trace.h"

namespace hattrick {

/// Per-query execution state: the work meter that accumulates the cost of
/// the query (fed to the simulator's cost model) plus the parallelism
/// knobs consulted when the plan is built and executed.
struct ExecContext {
  WorkMeter* meter = nullptr;

  /// Degree of intra-query parallelism. 1 (the paper-faithful default)
  /// executes the serial Volcano plan; >1 executes a morsel-parallel plan
  /// whose worker shards run on real threads (see exec/parallel.h).
  int dop = 1;

  /// Morsel scheduling: dynamic claiming (wall-clock drivers, load
  /// balance) vs static round-robin (simulated drivers, where metered
  /// work must not depend on thread scheduling).
  bool dynamic_morsels = false;

  /// Vectorized (batch-at-a-time) vs row-at-a-time execution. The mode is
  /// uniform across one plan: a vectorized consumer drives the root with
  /// NextBatch and every operator pulls its children with NextBatch;
  /// blocking operators consult this flag in Open when draining their
  /// inputs. false selects the original Volcano path, retained as the
  /// differential-testing oracle — results and WorkMeter totals are
  /// bit-identical between the modes (tests/exec_test.cc enforces it).
  bool vectorized = true;

  /// Target rows per column-vector batch (>= 1). Ignored when
  /// !vectorized.
  size_t batch_rows = kDefaultBatchRows;

  /// Engine session pin (AnalyticsSession::guard). Worker threads hold a
  /// copy for their whole lifetime so the engine cannot move data (delta
  /// merge, reset) under a shard even if the issuing client releases its
  /// session early.
  std::shared_ptr<void> session_pin;

  /// Optional tracing (both null by default — benches pay nothing).
  /// When set, the gather-merge exchange records one span per worker
  /// shard on tracks trace_tid, trace_tid+1, ... using trace_clock.
  obs::Tracer* tracer = nullptr;
  const Clock* trace_clock = nullptr;
  uint32_t trace_tid = 0;

  /// Optional EXPLAIN ANALYZE profile (null by default — operators pay
  /// one pointer test per call). When set, every operator registers a
  /// PlanProfileNode in Open and accumulates rows/batches/work-meter
  /// units/injected-clock time per Next/NextBatch (exec/op_profiler.h).
  /// Profiling never writes the meter or alters control flow, so
  /// results and metered totals are bit-identical with it on or off.
  obs::PlanProfile* profile = nullptr;
};

/// Physical operator. The primary interface is batch-at-a-time
/// (NextBatch, column-vector batches with selection vectors), and every
/// operator implements it natively, index range scans included. The
/// row-at-a-time Volcano interface (Next) is retained as the
/// differential-testing oracle. Scans stream; blocking operators (hash
/// join build, aggregation, sort) materialize internally, draining their
/// children in the mode ExecContext::vectorized selects.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator; called once before Next/NextBatch.
  virtual void Open(ExecContext* ctx) = 0;

  /// Produces the next row into *out; returns false when exhausted.
  virtual bool Next(ExecContext* ctx, Row* out) = 0;

  /// Produces the next batch (>= 1 active row) into *out; returns false
  /// when exhausted.
  virtual bool NextBatch(ExecContext* ctx, Batch* out) = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Numeric pushdown predicate: lo <= column <= hi (inclusive). The column
/// scan uses these to prune zone-map blocks.
struct NumRange {
  size_t column;
  double lo;
  double hi;
};

/// String pushdown predicate: column IN values (equality when single).
struct StrIn {
  size_t column;
  std::vector<std::string> values;
};

/// What a query needs from a base table: a projection plus conjunctive
/// pushdown predicates. Plans are written against the logical HATtrick
/// schema; the engine's DataSource lowers the spec onto its physical
/// representation (row store with MVCC snapshot, or column store).
struct ScanSpec {
  std::string table;
  std::vector<size_t> projection;  // output columns, in output order
  std::vector<NumRange> ranges;
  std::vector<StrIn> str_in;
  /// Optional plan hint: name of a B+-tree index whose first key column
  /// matches one of `ranges`. Row-store backends use an index range scan
  /// when the index exists (the paper's Figure 6b "all indexes"
  /// configuration accelerating analytical plans); columnar backends and
  /// reduced physical schemas ignore the hint. Ignored when `morsels` is
  /// set (parallel shards always partition the heap/column extent).
  std::string index_hint;
  /// Optional morsel restriction: when set, the scan covers only the
  /// morsels this spec's `worker` claims from the shared set, instead of
  /// the whole table. Used by the parallel plans' fact-table shards.
  std::shared_ptr<MorselSet> morsels;
  uint32_t worker = 0;
};

/// Engine-provided factory for base-table scans. The 13 SSB query plans
/// are backend-agnostic: they consume whatever operators the data source
/// produces for their scan specs.
class DataSource {
 public:
  virtual ~DataSource() = default;
  virtual OperatorPtr Scan(const ScanSpec& spec) const = 0;

  /// Number of rows/slots a full scan of `table` would cover right now
  /// (the row bound for columnar sources, the slot count for row
  /// sources). Parallel plans use it to build the MorselSet partitioning
  /// the fact-table scan; 0 means the source cannot be morselized.
  virtual size_t ScanExtent(const std::string& table) const {
    (void)table;
    return 0;
  }

  /// Horizontally partitioned sources (the sharded engine) expose one
  /// view per shard; query planning then scatters a per-shard subplan
  /// over each view and gathers the partial aggregates. Single-node
  /// sources return empty (the default), which keeps ordinary planning
  /// untouched. The returned views are owned by this source and stay
  /// valid for the life of the analytics session.
  virtual std::vector<const DataSource*> ShardViews() const { return {}; }
};

/// Relational operators used by the HATtrick query plans.

/// Filters rows by a residual predicate.
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// Computes one output expression per column.
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs);

/// Hash equijoin: drains `build` in Open, then streams `probe`. Output is
/// the probe row concatenated with the build row.
///
/// Contract (every SSB join is an int64 surrogate-key equijoin over
/// schema-typed scans, so plans meet it by construction):
///  - `probe_key` and `build_key` name int64 columns;
///  - each input is uniformly typed: every batch (or row) it produces has
///    the same column types as its first one.
/// A violation aborts with a message in every build type; it never
/// mis-joins silently.
///
/// A probe row matching several build rows (duplicate build keys) emits
/// its matches in build insertion order. Output batches fill to
/// ctx->batch_rows across probe-batch boundaries.
///
/// Metering: one hash_probe per build row and per probe row, one
/// output_row per match.
OperatorPtr MakeHashJoin(OperatorPtr probe, size_t probe_key,
                         OperatorPtr build, size_t build_key);

/// One aggregate specification.
struct AggSpec {
  enum class Kind { kSum, kCount, kMin, kMax };
  Kind kind = Kind::kSum;
  ExprPtr arg;  // unused for kCount
};

/// Fixed-point scale of SUM accumulation: 1e-4 units (DECIMAL(.,4)).
/// Inputs must stay below ~9e11 in magnitude so the scaled value fits the
/// exact integer range of double/int64; HATtrick's monetary domain tops
/// out around 1e9.
inline constexpr double kSumFixedPointScale = 1e4;

/// Quantizes one SUM input to its exact fixed-point representation.
int64_t QuantizeSumValue(double v);

/// Hash aggregation; output = group-by values then aggregate values, with
/// groups emitted in deterministic (encoded-key) order. With no group-by
/// columns produces exactly one row (global aggregate).
///
/// SUM over kDouble inputs accumulates in fixed-point (1e-4 units, i.e.
/// DECIMAL(.,4) semantics — SSB's monetary columns are DECIMAL in the
/// spec). Integer accumulation is exactly associative, so a sum is a pure
/// function of the input *set*: serial plans, per-worker partial
/// aggregates, and any morsel schedule produce bit-identical results.
OperatorPtr MakeHashAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_by,
                              std::vector<AggSpec> aggregates);

/// Per-worker partial aggregation for morsel-parallel plans: identical to
/// MakeHashAggregate except an empty input produces no output row (not
/// even for a global aggregate), so merging partials never folds identity
/// placeholders into MIN/MAX and the gather-merge operator alone decides
/// the empty-global row.
OperatorPtr MakePartialHashAggregate(OperatorPtr child,
                                     std::vector<ExprPtr> group_by,
                                     std::vector<AggSpec> aggregates);

/// Sort specification: expression + direction.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Full sort (materializing); used for ORDER BY clauses.
OperatorPtr MakeOrderBy(OperatorPtr child, std::vector<SortKey> keys);

/// Fixed in-memory input (used by tests).
OperatorPtr MakeValuesScan(std::vector<Row> rows);

/// Drains `op` into a vector of materialized rows (helper for tests and
/// result collection). Honors ctx->vectorized: drives the root with
/// NextBatch (default) or with the row-oracle Next — active rows arrive
/// in the same order either way.
std::vector<Row> Collect(Operator* op, ExecContext* ctx);

/// Drains `op` batch-at-a-time without materializing rows (the exchange
/// and benches use this; requires ctx->vectorized).
std::vector<Batch> CollectBatches(Operator* op, ExecContext* ctx);

}  // namespace hattrick

#endif  // HATTRICK_EXEC_OPERATOR_H_
