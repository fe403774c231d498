#ifndef HATTRICK_STORAGE_COLUMN_TABLE_H_
#define HATTRICK_STORAGE_COLUMN_TABLE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/work_meter.h"

namespace hattrick {

/// An immutable per-session view of a column table's committed but
/// unfolded row versions (bitmap merge mode, see engine/hybrid_engine.h).
/// Built once at BeginAnalytics under the table's version latch; scans
/// then read it lock-free for the life of the session:
///  - `dirty` is a per-rid visibility bitmap over the columnar base
///    ([0, base_rows)): bit set means the base cell values are stale and
///    `overrides` holds the newest version visible at the snapshot CSN.
///  - `inserts` are the rows committed after the base was last folded
///    and visible at the snapshot, occupying rids
///    [base_rows, bound) in row-store order.
/// A null/empty snapshot means the base alone is the snapshot (exactly
/// the eager-merge read path).
///
/// Copy-free: `overrides` and `inserts` point at the rows of the table's
/// version log instead of copying them. The pointers stay valid for the
/// life of the session because (a) the log is a std::deque and commits
/// only push_back, which keeps references to existing elements valid,
/// and (b) the log drops elements (pop_front, clear) only in
/// ColumnTable::FoldVersions and Clear, which the engine runs under its
/// exclusive merge latch — and that latch waits until no session holds
/// a pin. A snapshot must not outlive its session's pin.
struct ColumnDeltaSnapshot {
  size_t base_rows = 0;
  size_t bound = 0;
  /// One bit per base rid; 64 rids per word. Empty when no overrides.
  std::vector<uint64_t> dirty;
  std::unordered_map<size_t, const Row*> overrides;
  std::vector<const Row*> inserts;

  bool Empty() const { return overrides.empty() && inserts.empty(); }

  bool DirtyBit(size_t rid) const {
    const size_t word = rid >> 6;
    if (word >= dirty.size()) return false;
    return (dirty[word] >> (rid & 63)) & 1;
  }

  /// True if any rid in [begin, end) has an override.
  bool AnyDirtyInRange(size_t begin, size_t end) const {
    if (dirty.empty() || begin >= end) return false;
    const size_t first = begin >> 6;
    const size_t last = (end - 1) >> 6;
    for (size_t w = first; w <= last && w < dirty.size(); ++w) {
      uint64_t word = dirty[w];
      if (w == first) word &= ~uint64_t{0} << (begin & 63);
      if (w == last && ((end & 63) != 0)) {
        word &= (uint64_t{1} << (end & 63)) - 1;
      }
      if (word != 0) return true;
    }
    return false;
  }

  const Row& OverrideRow(size_t rid) const {
    const auto it = overrides.find(rid);
    assert(it != overrides.end() && "override lookup on a clean rid");
    return *it->second;
  }

  const Row& InsertRow(size_t rid) const {
    assert(rid >= base_rows && rid < bound);
    return *inserts[rid - base_rows];
  }
};

/// A columnar, append-only table used as the analytical copy of the data
/// in the "hybrid" engine designs (System-X / TiDB-TiFlash analogues,
/// Section 2.2 of the paper).
///
/// Storage layout:
///  - int64/double columns: flat typed vectors.
///  - string columns: dictionary-encoded (uint32 codes into a per-column
///    dictionary), the paper's "efficient data compression" for
///    column stores.
///  - per-block (kBlockRows rows) min/max zone maps on numeric columns,
///    used by the column scan operator to prune blocks.
///
/// The table is not versioned: the engine that owns it decides which
/// committed rows have been merged (see engine/hybrid_engine.cc). Reads
/// pass an explicit row-count bound so a query sees a consistent prefix.
class ColumnTable {
 public:
  /// Rows per zone-map block.
  static constexpr size_t kBlockRows = 1024;

  explicit ColumnTable(Schema schema);

  ColumnTable(const ColumnTable&) = delete;
  ColumnTable& operator=(const ColumnTable&) = delete;

  const Schema& schema() const { return schema_; }

  /// Appends a row; meters one write plus one cell per column.
  Status Append(const Row& row, WorkMeter* meter);

  size_t num_rows() const;

  /// Cell accessors. `row` must be < num_rows(); `col` must have the
  /// matching type.
  int64_t GetInt(size_t col, size_t row) const;
  double GetDouble(size_t col, size_t row) const;
  /// Returns the dictionary string for a string cell (stable reference).
  const std::string& GetString(size_t col, size_t row) const;
  /// Returns the dictionary code of a string cell (for fast group-by).
  uint32_t GetStringCode(size_t col, size_t row) const;
  /// Looks up the code of `s` in the column dictionary; -1 if absent.
  int64_t FindStringCode(size_t col, const std::string& s) const;
  /// Dictionary size for a string column.
  size_t DictionarySize(size_t col) const;

  /// Raw payload pointers for bulk (vectorized) reads of rows below a
  /// query's row bound. Same safety contract as the per-cell accessors
  /// above: the analytics session pin blocks structural changes (merge,
  /// reset), so the payload vectors cannot reallocate under a reader.
  /// IntData requires a kInt64 column, DoubleData a kDouble column (no
  /// int promotion — callers branch on the schema type), CodeData a
  /// kString column.
  const int64_t* IntData(size_t col) const;
  const double* DoubleData(size_t col) const;
  const uint32_t* CodeData(size_t col) const;
  /// Dictionary string for `code` of string column `col` (stable ref).
  const std::string& DictEntry(size_t col, uint32_t code) const;

  /// Materializes row `row` (mostly for tests and debugging).
  Row GetRow(size_t row) const;

  /// Zone map for block `block` of numeric column `col`; returns false if
  /// the column is a string column (no zone map).
  bool BlockMinMax(size_t col, size_t block, double* min, double* max) const;

  /// Number of zone-map blocks covering `bound` rows.
  static size_t NumBlocks(size_t bound) {
    return (bound + kBlockRows - 1) / kBlockRows;
  }

  /// Overwrites row `row` in place (delta merge of an update). Zone maps
  /// are widened, never narrowed, so pruning stays conservative.
  Status UpdateRow(size_t row, const Row& values, WorkMeter* meter);

  /// Folds a commutative single-cell increment into row `row` in place
  /// (eager merge of a kDelta WAL op). Zone maps widen like UpdateRow.
  Status ApplyDelta(size_t row, size_t column, const Value& increment,
                    WorkMeter* meter);

  /// Drops every row and the unfolded version log, leaving the table as
  /// constructed (benchmark reset re-appends the load rows, which rebuilds
  /// dictionaries and zone maps exactly as the load did). Callers exclude
  /// running sessions, like FoldVersions.
  void Clear();

  // --- CSN-stamped version store (bitmap merge mode) -----------------
  //
  // Committed delta records land here instead of mutating the base:
  // inserts as append-segment versions, updates as per-rid differential
  // versions. The log is ordered by commit (CSN-ascending — callers
  // append from inside the commit critical section), so a snapshot at
  // CSN c is exactly a log prefix. FoldVersions() is the background
  // merge/GC: it replays a committed prefix into the base in commit
  // order, producing the same final base state (including zone-map
  // widening) as the eager merge path.

  /// Appends an insert version: row `rid` (== base rows + pending
  /// inserts, the row store's rid) committed at `csn`.
  void AppendVersion(uint64_t csn, size_t rid, const Row& row);

  /// Appends an update version for row `rid` committed at `csn`.
  void UpdateVersion(uint64_t csn, size_t rid, const Row& row);

  /// Appends a version for a commutative increment of one cell of row
  /// `rid` committed at `csn`. The increment is materialized into a full
  /// after-image (newest pending version of `rid`, found through the
  /// per-rid index without scanning the log, or the base row, plus the
  /// increment) and stored as an ordinary update version — safe because
  /// the commit tail calls this in CSN order, so the newest version at
  /// append time IS the delta's base. Snapshot and fold paths are
  /// untouched.
  void AppendDeltaVersion(uint64_t csn, size_t rid, size_t column,
                          const Value& increment);

  /// Committed-but-unfolded version ops (delta depth).
  size_t PendingVersions() const;

  /// Builds the immutable visibility snapshot for a session at CSN
  /// `snapshot` (pointers into the log; see ColumnDeltaSnapshot for
  /// their lifetime). Meters one version hop per log entry examined and
  /// the override/insert cells the session reads, charged to the
  /// requesting session — the bitmap path's (much cheaper) replacement
  /// for the eager path's merge-before-read charge. The meter models the
  /// materialization even though the rows are no longer copied.
  void SnapshotVersions(uint64_t snapshot, ColumnDeltaSnapshot* out,
                        WorkMeter* meter) const;

  /// Folds every version with csn <= `horizon` into the base, in commit
  /// order. Returns ops folded. Callers must exclude running sessions
  /// (the engine folds under its session pin latch) — the base payloads
  /// reallocate. Holds the version latch throughout, so concurrent
  /// commits stall for at most one watermark batch.
  size_t FoldVersions(uint64_t horizon, WorkMeter* meter);

 private:
  /// One committed, unfolded row version.
  struct VersionOp {
    enum class Kind { kInsert, kUpdate };
    Kind kind;
    uint64_t csn;
    size_t rid;
    Row row;
  };

  struct Column {
    DataType type;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    std::unordered_map<std::string, uint32_t> dict_index;
    // Zone maps, one entry per block (numeric columns only).
    std::vector<double> block_min;
    std::vector<double> block_max;
  };

  const Schema schema_;  // immutable after construction; never latched
  mutable SharedMutex latch_;
  /// Structural state: the latch guards all *mutation* (Append, UpdateRow,
  /// ApplyDelta and Clear run under the exclusive latch). The per-cell and
  /// raw-pointer read accessors intentionally take no latch: readers are
  /// synchronized externally by the engine's analytics session pin, which
  /// excludes every structural change for the life of the session (see
  /// AnalyticsSession::guard in engine/htap_engine.h) — a contract the
  /// thread-safety analysis cannot express without falsely requiring the
  /// latch at every call site, so `columns_` itself stays unannotated and
  /// only the row-count watermark is latch-checked.
  ///
  /// The version store below is NOT covered by that pin contract:
  /// commits append versions while sessions are live, so it gets its own
  /// internal latch (delta_mu_) and sessions read it only through the
  /// ColumnDeltaSnapshot taken at session open, whose row pointers the
  /// pin keeps valid (only pin-excluded calls drop log elements). Lock
  /// order is delta_mu_ before latch_ (FoldVersions holds delta_mu_
  /// while applying to the base; SnapshotVersions holds it shared while
  /// reading num_rows()); the two are never taken in the other order.
  std::vector<Column> columns_;
  size_t num_rows_ GUARDED_BY(latch_) = 0;

  mutable SharedMutex delta_mu_;
  /// CSN-ascending committed version log (bitmap merge mode).
  std::deque<VersionOp> delta_log_ GUARDED_BY(delta_mu_);
  /// Insert ops currently in the log, in log order; insert rids are
  /// contiguous from num_rows_ (asserted on every append), so the insert
  /// of rid r is pending_inserts_[r - num_rows_].
  std::deque<const VersionOp*> pending_inserts_ GUARDED_BY(delta_mu_);
  /// Newest update op in the log per rid: with pending_inserts_, the
  /// per-rid newest-version index AppendDeltaVersion materializes from.
  std::unordered_map<size_t, const VersionOp*> newest_update_
      GUARDED_BY(delta_mu_);
};

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_COLUMN_TABLE_H_
