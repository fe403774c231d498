#ifndef HATTRICK_STORAGE_ROW_TABLE_H_
#define HATTRICK_STORAGE_ROW_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/work_meter.h"
#include "txn/mvcc.h"

namespace hattrick {

/// A multi-versioned in-memory row store over lock-free version chains.
///
/// Each slot holds an atomic head pointer to a newest-first chain of
/// CSN-stamped version nodes (see txn/mvcc.h). A version is visible to a
/// snapshot `s` iff it is committed with cts <= s and no newer committed
/// full version also has cts <= s; committed delta versions (single-cell
/// increments) above the resolved full version fold into the read.
/// Writers install PENDING nodes with a head CAS — a pending node is the
/// row's write lock — and the transaction manager publishes or withdraws
/// them; readers skip pending and aborted nodes, so they never observe
/// uncommitted data and never block.
///
/// `latch_` protects only the slot directory (the deque), not row
/// contents: reads, installs, and Vacuum all run under the shared side.
/// Vacuum unlinks superseded nodes with CAS and retires them through the
/// epoch manager, so garbage collection never blocks readers either.
///
/// This mirrors the Hekaton/STO-style MVCC design the paper's "shared"
/// and "hybrid" categories rely on (Section 2.2): readers never block
/// writers and vice versa; analytical queries traverse version chains to
/// find their snapshot (metered as version_hops).
class RowTable {
 public:
  explicit RowTable(Schema schema);
  ~RowTable();

  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;

  const Schema& schema() const { return schema_; }

  /// Appends a new row whose first version commits at `begin_ts`.
  /// Returns the new row id.
  Rid Insert(const Row& row, Ts begin_ts, WorkMeter* meter);

  /// Installs a committed full version of `rid` at `commit_ts` above the
  /// current head. The caller is responsible for conflict detection
  /// (replica replay and pre-validated single-writer paths).
  Status AddVersion(Rid rid, const Row& row, Ts commit_ts, WorkMeter* meter);

  /// Installs a committed delta version: `increment` folds into
  /// `column` of the visible full version at read time (replica replay
  /// of WalOp::Kind::kDelta records).
  Status AddDeltaVersion(Rid rid, uint32_t column, const Value& increment,
                         Ts commit_ts, WorkMeter* meter);

  /// Terminates visibility at `commit_ts` (logical delete): installs a
  /// committed tombstone version.
  Status MarkDeleted(Rid rid, Ts commit_ts, WorkMeter* meter);

  /// Installs a PENDING full after-image of `rid` for `owner`, validating
  /// first-updater-wins against `base_ts` (the newest committed work the
  /// writer's read folded in): fails — returning nullptr and metering a
  /// conflict_wait — if a foreign pending version exists or any committed
  /// version above (and including) the newest committed full has
  /// cts > base_ts. On success the returned node is the row's write lock;
  /// the caller publishes it with mvcc::Publish or rolls it back with
  /// mvcc::Withdraw.
  mvcc::VersionNode* TryInstallFull(Rid rid, const Row& row,
                                    const void* owner, Ts base_ts,
                                    WorkMeter* meter);

  /// Installs a PENDING delta version. Deltas commute with committed
  /// versions and with other deltas, so the only conflict is a foreign
  /// pending *full* version (a full overwrite racing the increment).
  mvcc::VersionNode* TryInstallDelta(Rid rid, uint32_t column,
                                     const Value& increment,
                                     const void* owner, WorkMeter* meter);

  /// Backward OCC read validation: true iff the newest committed full
  /// version of `rid` still has cts == observed_full_cts and no foreign
  /// pending full version is in flight. Committed/pending deltas never
  /// invalidate a read (commutative escrow relaxation; see DESIGN.md).
  bool ValidateRead(Rid rid, Ts observed_full_cts, const void* owner) const;

  /// Reads the version of `rid` visible at `snapshot`. Returns false if no
  /// visible version exists (row created later, or deleted).
  bool Read(Rid rid, Ts snapshot, Row* out, WorkMeter* meter) const;

  /// Like Read, also reporting what the fold observed (feeds write-write
  /// and read validation in the transaction manager).
  bool ReadObserved(Rid rid, Ts snapshot, Row* out,
                    mvcc::FoldObservation* obs, WorkMeter* meter) const;

  /// Reads the newest committed version regardless of snapshot (used for
  /// read-committed isolation). Returns false if the row is deleted.
  bool ReadLatest(Rid rid, Row* out, WorkMeter* meter) const;

  /// Like ReadLatest, also reporting what the fold observed.
  bool ReadLatestObserved(Rid rid, Row* out, mvcc::FoldObservation* obs,
                          WorkMeter* meter) const;

  /// cts of the newest committed full version of `rid` (0 if rid is out
  /// of range). Pending, aborted, and delta versions do not count.
  Ts LatestVersionTs(Rid rid) const;

  /// Visits every row visible at `snapshot` in rid order; return false
  /// from the visitor to stop. The row is passed without a copy when its
  /// visible version carries no deltas: the reference points into the
  /// version node and is valid only until the visitor returns (copy what
  /// must outlive the visit).
  void Scan(Ts snapshot,
            const std::function<bool(Rid, const Row&)>& visitor,
            WorkMeter* meter) const;

  /// Like Scan but restricted to rids in [begin, end) — the row-store
  /// morsel primitive for parallel heap scans. Metering per rid is
  /// identical to Scan (whole-chain version_hops, rows_read per visible
  /// row), so a full cover of disjoint ranges meters exactly like one
  /// Scan. `end` past the slot count is clamped.
  void ScanRange(Ts snapshot, Rid begin, Rid end,
                 const std::function<bool(Rid, const Row&)>& visitor,
                 WorkMeter* meter) const;

  /// Number of slots (including rows whose newest version is a delete).
  size_t NumSlots() const;

  /// Total number of version nodes across all slots, including pending
  /// and aborted ones (for GC diagnostics).
  size_t NumVersions() const;

  /// Unlinks versions no snapshot at or after `horizon` can reach:
  /// aborted nodes, and committed nodes superseded by a newer committed
  /// full version with cts <= horizon. Runs against the shared latch
  /// (readers are never blocked); unlinked nodes are retired through the
  /// epoch manager. Returns the number unlinked.
  size_t Vacuum(Ts horizon);

  /// Replaces contents with a deep copy of `other`'s committed versions
  /// (benchmark reset; pending/aborted nodes are not carried over).
  void CopyFrom(const RowTable& other);

 private:
  bool FoldAt(Rid rid, Ts snapshot, Row* out, mvcc::FoldObservation* obs,
              WorkMeter* meter) const;

  mutable SharedMutex latch_;
  /// Serializes Vacuum passes (concurrent unlinks of adjacent nodes
  /// could resurrect an unlinked node). Acquired before latch_.
  Mutex vacuum_mu_ ACQUIRED_BEFORE(latch_);
  const Schema schema_;  // immutable after construction; never latched
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
};

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_ROW_TABLE_H_
