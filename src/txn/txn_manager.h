#ifndef HATTRICK_TXN_TXN_MANAGER_H_
#define HATTRICK_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/work_meter.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "txn/mvcc.h"
#include "txn/timestamp.h"
#include "txn/wal.h"

namespace hattrick {

/// Transaction isolation levels evaluated by the paper (Section 6.2,
/// Figure 6a): PostgreSQL runs serializable by default in the experiments
/// and read committed in the isolation-level comparison; TiDB provides
/// snapshot-isolated reads.
enum class IsolationLevel {
  kReadCommitted,
  kSnapshot,
  kSerializable,
};

/// Returns "READ_COMMITTED" etc.
const char* IsolationLevelName(IsolationLevel level);

/// Rids at or above this value are provisional: assigned by BufferInsert
/// to rows the transaction has buffered but not committed, so the
/// transaction can read and index-look-up its own inserts. Real rids are
/// assigned at commit. Below the 40-bit PackRowKey rid space.
inline constexpr Rid kProvisionalRidBase = Rid{1} << 36;

/// A client-visible transaction handle. All state lives client-side until
/// commit; storage sees nothing until Commit installs pending version
/// nodes, so readers never see dirty data and aborts are free.
class Transaction {
 public:
  Ts snapshot() const { return snapshot_; }
  IsolationLevel isolation() const { return isolation_; }

 private:
  friend class TxnManager;

  struct Write {
    WalOp::Kind kind;
    TableId table_id;
    Rid rid;             // real rid for updates/deltas; provisional for inserts
    uint32_t column = 0;  // target column for deltas
    Row row;             // after-image; a single increment cell for deltas
    Row old_row;         // before-image for updates (index maintenance)
    /// Newest committed work folded into the read this update is based
    /// on (first-updater-wins validates commits after this, at every
    /// isolation level).
    Ts base_ts = 0;
  };
  struct ReadEntry {
    TableId table_id;
    Rid rid;
    Ts observed_full_ts;  // cts of the full version the read resolved to
    Ts observed_any_ts;   // newest committed work folded in (incl. deltas)
  };

  Ts snapshot_ = 0;
  IsolationLevel isolation_ = IsolationLevel::kSnapshot;
  uint32_t client_id_ = 0;
  uint64_t txn_num_ = 0;
  std::vector<Write> writes_;
  std::vector<ReadEntry> reads_;
};

/// Outcome of a successful commit.
struct CommitResult {
  Ts commit_ts = 0;
  uint64_t lsn = 0;  // 0 for read-only transactions (no WAL record)
  /// Identity of every row fully written ((table_id << 40) | rid),
  /// consumed by the simulator's row-lock contention model.
  std::vector<uint64_t> write_keys;
  /// Rows written via commutative deltas: held only for the short
  /// escrow window in the contention model, not the full write hold.
  std::vector<uint64_t> delta_keys;
};

/// Packs a row identity for CommitResult::write_keys.
inline uint64_t PackRowKey(TableId table_id, Rid rid) {
  return (static_cast<uint64_t>(table_id) << 40) | rid;
}

/// Optimistic multi-version transaction manager over a Catalog.
///
/// Protocol (Hekaton/STO-flavored OCC over lock-free MVCC chains):
///  - Begin: snapshot = oracle.last_committed().
///  - Reads: read-committed folds the newest committed state; snapshot /
///    serializable fold as of the snapshot (committed delta versions fold
///    over the resolved full version). Every read records what it
///    observed; serializable additionally meters predicate locks.
///  - Writes: buffered in the transaction. Full updates carry the
///    base_ts their read observed; BufferDelta buffers a commutative
///    single-cell increment; BufferInsert assigns a provisional rid so
///    the transaction sees its own inserts.
///  - Commit (no global latch):
///      1. install: CAS-install PENDING version nodes per written row —
///         a pending node is the row's write lock. First-updater-wins at
///         *every* isolation level: installing fails if a foreign pending
///         version exists or committed work newer than the write's
///         base_ts is found. Deltas conflict only with pending fulls.
///      2. register: allocate commit_ts and a commit-order ticket.
///      3. read validation (serializable): every read's resolved full
///         version must still be newest, with no foreign pending full in
///         flight. Registering *before* validating closes the classic
///         latch-free OCC window (any writer that publishes after our
///         validation must carry a larger commit_ts).
///      4. ordered tail (ticket order == commit_ts order): publish the
///         pending nodes, apply inserts (rids in LSN order), maintain
///         indexes, emit the WAL record, advance last_committed.
///    An install-phase abort consumes no timestamp, so the tail never
///    stalls on a gap.
///
/// Validation failures meter conflict_waits, which the simulator's cost
/// model converts into the blocking/wait time the paper attributes to
/// contention at small scale factors (Sections 6.2 and 6.4).
class TxnManager {
 public:
  /// `sink` may be null (no replication / no delta feed).
  TxnManager(Catalog* catalog, TimestampOracle* oracle, WalSink* sink);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  Catalog* catalog() const { return catalog_; }
  TimestampOracle* oracle() const { return oracle_; }
  void set_sink(WalSink* sink) { sink_ = sink; }
  WalSink* sink() const { return sink_; }

  /// Starts a transaction. `client_id`/`txn_num` tag the eventual WAL
  /// record (used by replication diagnostics).
  Transaction Begin(IsolationLevel isolation, uint32_t client_id = 0,
                    uint64_t txn_num = 0) const;

  /// Reads `rid`, honoring isolation and the transaction's own writes —
  /// including buffered inserts (via their provisional rid) and buffered
  /// deltas, which fold over the visible base. Returns NotFound if the
  /// row is invisible.
  Status Read(Transaction* txn, TableId table_id, Rid rid, Row* out,
              WorkMeter* meter) const;

  /// Visits each row whose indexed key equals `key_values` and is visible
  /// to `txn` — committed rows first (re-checked against the key; index
  /// entries may be stale after updates to indexed columns), then the
  /// transaction's own buffered inserts whose key matches (visited under
  /// their provisional rid). Returns the number of visible matches.
  size_t IndexLookup(Transaction* txn, const IndexInfo& index,
                     const std::vector<Value>& key_values,
                     const std::function<bool(Rid, const Row&)>& visitor,
                     WorkMeter* meter) const;

  /// Buffers an insert of `row` into `table_id`; returns the provisional
  /// rid under which the transaction can read it back.
  Rid BufferInsert(Transaction* txn, TableId table_id, Row row) const;

  /// Buffers a full-row update of `rid`. `old_row` must be the version the
  /// transaction read (used to detect indexed-column changes).
  void BufferUpdate(Transaction* txn, TableId table_id, Rid rid, Row old_row,
                    Row new_row) const;

  /// Buffers a commutative increment of `column` by `increment`:
  /// materialized at read time by folding over the base version, so
  /// concurrent increments to the same hot row commit without
  /// write-write conflicts (Payment's S_YTD / C_PAYMENTCNT path).
  void BufferDelta(Transaction* txn, TableId table_id, Rid rid,
                   uint32_t column, Value increment) const;

  /// Validates and applies the transaction. On conflict returns
  /// kAborted and applies nothing.
  StatusOr<CommitResult> Commit(Transaction* txn, WorkMeter* meter);

  /// Two-phase commit support (the sharded engine's coordinator). A
  /// successful Prepare runs the install / register / validate phases
  /// and parks the transaction as a prepared participant: the pending
  /// version nodes stay installed (they are the row write locks) and a
  /// commit slot is reserved, but nothing publishes and the ordered
  /// tail is NOT entered — so a prepared participant never sits in the
  /// tail waiting for a remote decision. Exactly one of CommitPrepared
  /// or AbortPrepared must eventually follow every successful Prepare,
  /// or later commits on this shard stall behind the reserved slot.
  struct Prepared {
    std::vector<mvcc::VersionNode*> installed;
    uint64_t ticket = 0;
    Ts commit_ts = 0;
    bool registered = false;  // a commit slot is reserved
    bool read_only = false;   // validated; nothing to publish
  };

  /// Phases 1-3 of the lock-free commit: install pending versions,
  /// reserve the commit slot, validate serializable reads. On conflict
  /// returns kAborted with everything rolled back (no slot leaked).
  Status Prepare(Transaction* txn, Prepared* prep, WorkMeter* meter);

  /// Phase 4 (the ordered publish tail) for a prepared transaction.
  /// Infallible: the decision to commit was made at Prepare time.
  CommitResult CommitPrepared(Transaction* txn, Prepared* prep,
                              WorkMeter* meter);

  /// Rolls back a prepared transaction: withdraws the installed
  /// versions and drains the reserved commit slot through the tail.
  void AbortPrepared(Transaction* txn, Prepared* prep);

  /// Discards the transaction (no-op on storage).
  void Abort(Transaction* txn) const;

  /// Injected sleep for retry backoff: the threaded driver installs a
  /// real sleep; the simulated driver leaves it null and schedules the
  /// reported backoff in virtual time. Must be set while quiesced.
  using RetrySleeper = std::function<void(double seconds)>;
  void SetRetrySleeper(RetrySleeper sleeper) {
    retry_sleeper_ = std::move(sleeper);
  }

  /// Deterministic capped exponential backoff before retry `attempt`
  /// (0-based): seeded by (client_id, txn_num, attempt) so same-seed runs
  /// replay identically and concurrent retriers jitter apart.
  static double RetryBackoffSeconds(uint32_t client_id, uint64_t txn_num,
                                    int attempt);

  /// Executes `body` as a transaction, retrying on kAborted up to
  /// `max_retries` times with deterministic exponential backoff; counts
  /// attempts and accumulated backoff. Convenience used by workload
  /// drivers, which retry aborted transactions (only successes count
  /// toward throughput, matching the paper's "successful transactions per
  /// second").
  StatusOr<CommitResult> RunWithRetries(
      IsolationLevel isolation, uint32_t client_id, uint64_t txn_num,
      const std::function<Status(Transaction*)>& body, WorkMeter* meter,
      int max_retries, int* attempts, double* backoff_seconds = nullptr);

  /// LSN that the next committed WAL record will receive. Safe to read
  /// concurrently with commits (atomic; commits advance it inside the
  /// ordered commit tail, but freshness probes read it from other
  /// threads).
  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed);
  }

  /// Resets the LSN counter (benchmark reset).
  void ResetLsn(uint64_t lsn) {
    next_lsn_.store(lsn, std::memory_order_relaxed);
  }

  /// Attaches run metrics (txn.commits, txn.aborts.*, txn.wal.*,
  /// txn.delta.installs, txn.retry.backoff_seconds); handles are resolved
  /// once here so Commit() only does counter increments. Pass nullptr to
  /// detach.
  void SetMetrics(obs::MetricsRegistry* registry);

 private:
  /// A slot in the commit order: tail work (publish, inserts, WAL,
  /// watermark) runs strictly in ticket order == commit_ts order, which
  /// keeps the WAL stream, replica rid assignment, and the bitmap column
  /// store's CSN-ascending append invariant intact without a global
  /// commit latch around install/validation.
  struct CommitSlot {
    uint64_t ticket = 0;
    Ts commit_ts = 0;
  };

  bool ValidateReads(const Transaction* txn, WorkMeter* meter) const;

  CommitSlot RegisterCommit() EXCLUDES(seq_mu_);
  void EnterTail(uint64_t ticket) EXCLUDES(seq_mu_);
  void ExitTail() EXCLUDES(seq_mu_);

  Catalog* catalog_;
  TimestampOracle* oracle_;
  WalSink* sink_;
  /// Atomic rather than GUARDED_BY: advanced only inside the ordered
  /// commit tail, but read lock-free by next_lsn() from driver/freshness
  /// threads while commits are in flight.
  std::atomic<uint64_t> next_lsn_{1};
  /// Commit sequencer: tickets admit committers to the ordered tail.
  /// Only the counters are guarded; tail work runs outside the mutex —
  /// ticket order itself serializes it.
  Mutex seq_mu_;
  CondVar seq_cv_;
  uint64_t seq_issued_ GUARDED_BY(seq_mu_) = 0;
  uint64_t seq_draining_ GUARDED_BY(seq_mu_) = 0;
  /// Total virtual/real seconds spent in retry backoff (gauge probe).
  std::atomic<uint64_t> backoff_nanos_{0};
  RetrySleeper retry_sleeper_;
  obs::Counter* commits_metric_ = nullptr;
  obs::Counter* write_conflicts_metric_ = nullptr;
  obs::Counter* read_conflicts_metric_ = nullptr;
  obs::Counter* wal_records_metric_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* delta_installs_metric_ = nullptr;
  obs::Gauge* backoff_gauge_ = nullptr;
};

}  // namespace hattrick

#endif  // HATTRICK_TXN_TXN_MANAGER_H_
