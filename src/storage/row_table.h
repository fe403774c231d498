#ifndef HATTRICK_STORAGE_ROW_TABLE_H_
#define HATTRICK_STORAGE_ROW_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
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
/// `latch_` guards the slot directory (the deque) and node lifetime:
/// reads and installs run under the shared side, so they never block one
/// another, and a version node is freed only under the exclusive side
/// (Vacuum, Rewind, the destructor). A node or payload pointer read
/// from a chain is therefore valid while the latch is held. Vacuum never
/// folds deltas, and no benchmark driver calls it,
/// so a hot row's chain (Payment's S_YTD and C_PAYMENTCNT increments)
/// grows for a whole run. Reads stay cheap anyway: a read that folds
/// mvcc::kMemoMinDeltas or more deltas leaves an mvcc::FoldMemo on the
/// chain, and later reads and read validations stop at it, so each costs
/// the versions committed since the last memo (installs still walk to the
/// newest committed full version). Each chain also keeps its physical
/// length, which heap scans meter without a walk.
///
/// The post-load state is a snapshot inside the table itself: Seal marks
/// the loaded slots, each of whose chain tail is the version the load
/// committed, Vacuum never unlinks those tails, and Rewind (benchmark
/// reset) cuts every sealed chain back to its tail and drops the slots
/// appended since.
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
  /// visible version exists (row created later).
  bool Read(Rid rid, Ts snapshot, Row* out, WorkMeter* meter) const;

  /// Like Read, also reporting what the fold observed (feeds write-write
  /// and read validation in the transaction manager).
  bool ReadObserved(Rid rid, Ts snapshot, Row* out,
                    mvcc::FoldObservation* obs, WorkMeter* meter) const;

  /// Reads the newest committed version regardless of snapshot (used for
  /// read-committed isolation). Returns false if no version is committed.
  bool ReadLatest(Rid rid, Row* out, WorkMeter* meter) const;

  /// Like ReadLatest, also reporting what the fold observed.
  bool ReadLatestObserved(Rid rid, Row* out, mvcc::FoldObservation* obs,
                          WorkMeter* meter) const;

  /// cts of the newest committed full version of `rid` (0 if rid is out
  /// of range). Pending, aborted, and delta versions do not count.
  Ts LatestVersionTs(Rid rid) const;

  /// Visits every row visible at `snapshot` in rid order; return false
  /// from the visitor to stop. The latch is held shared for the whole
  /// visit, so the visitor must not call Vacuum, Insert or Rewind on
  /// this table. The row is passed without a copy when its visible
  /// version carries no deltas: the reference points into the version
  /// node and is valid only until the visitor returns (copy what must
  /// outlive the visit).
  template <typename Visitor>
  void Scan(Ts snapshot, Visitor&& visitor, WorkMeter* meter) const {
    ScanRange(snapshot, 0, kMaxTs, visitor, meter);
  }

  /// Like Scan but restricted to rids in [begin, end) — the row-store
  /// morsel primitive for parallel heap scans. Metering per rid is
  /// identical to Scan (whole-chain version_hops from the chain's stored
  /// length, rows_read per visible row), so a full cover of disjoint
  /// ranges meters exactly like one Scan. `end` past the slot count is
  /// clamped.
  ///
  /// The visitor is any callable `bool(Rid, const Row&)`, inlined into
  /// the loop. A head that is a committed full version at or below the
  /// snapshot, the chain of every row nobody updated, is resolved inline
  /// (mvcc::CommittedHeadAt); any other head goes through
  /// mvcc::ResolveVisible. Both give the same row, and neither meters:
  /// the loop sums the chain lengths and visible rows itself and charges
  /// them once per call, so the totals equal per-row charging.
  template <typename Visitor>
  void ScanRange(Ts snapshot, Rid begin, Rid end, Visitor&& visitor,
                 WorkMeter* meter) const {
    uint64_t hops = 0;
    uint64_t rows = 0;
    {
      SharedReaderLock lock(&latch_);
      end = std::min<Rid>(end, slots_.size());
      Row folded;  // written only for rows with deltas to fold
      for (Rid rid = begin; rid < end; ++rid) {
        const mvcc::VersionChain& chain = slots_[rid];
        const mvcc::VersionNode* head =
            chain.head.load(std::memory_order_acquire);
        // A heap scan reads every version physically present in the slot
        // (dead-tuple bloat, the PostgreSQL behaviour Vacuum exists to
        // fix); meter the whole chain, not just the hops to the visible
        // version.
        hops += chain.length.load(std::memory_order_relaxed);
        // Zero-copy: a delta-free visible version reaches the visitor as
        // a reference into its node, kept alive by `lock` until the visit
        // ends.
        const Row* row = mvcc::CommittedHeadAt(head, snapshot);
        if (row == nullptr) {
          row = mvcc::ResolveVisible(head, snapshot, &folded, nullptr,
                                     nullptr);
          if (row == nullptr) continue;
        }
        ++rows;
        if (!visitor(rid, *row)) break;
      }
    }
    if (meter != nullptr) {
      meter->version_hops += hops;
      meter->rows_read += rows;
    }
  }

  /// Visits the rows of `rids`, in order, each as Read would see it at
  /// `snapshot` but without a copy (the reference is valid only until the
  /// visitor returns); rids with no visible version, or out of range, are
  /// skipped. The latch is held shared for the whole visit, with the same
  /// rules for the visitor as Scan. Returns the number of rids consumed:
  /// all of them, or up to and including the one whose visit returned
  /// false. Each consumed rid is metered exactly like Read, walk hops and
  /// all.
  template <typename Visitor>
  size_t VisitRids(Ts snapshot, std::span<const Rid> rids, Visitor&& visitor,
                   WorkMeter* meter) const {
    SharedReaderLock lock(&latch_);
    Row folded;
    size_t i = 0;
    while (i < rids.size()) {
      const Rid rid = rids[i++];
      if (rid >= slots_.size()) continue;
      const Row* row = mvcc::ResolveVisible(
          slots_[rid].head.load(std::memory_order_acquire), snapshot,
          &folded, nullptr, meter);
      if (row != nullptr && !visitor(rid, *row)) break;
    }
    return i;
  }

  /// Number of slots (including rows whose newest version is a delete).
  size_t NumSlots() const;

  /// Total number of version nodes across all slots, including pending
  /// and aborted ones (for GC diagnostics).
  size_t NumVersions() const;

  /// Unlinks versions no snapshot at or after `horizon` can reach:
  /// aborted nodes, and committed nodes superseded by a newer committed
  /// full version with cts <= horizon. Deltas above the newest such full
  /// version stay linked (Vacuum does not fold them), and so does every
  /// sealed slot's load version (see Seal). Runs under the exclusive
  /// latch, so it waits for in-flight reads, installs and scans
  /// and blocks new ones; unlinked nodes, and the fold memos they carry,
  /// are freed at once. Callers quiesce snapshots older than `horizon`
  /// first. Returns the number unlinked.
  size_t Vacuum(Ts horizon);

  /// Records the current slots as the table's load state: from now on
  /// each of them keeps its oldest version (the load version) through
  /// Vacuum, so Rewind can always restore it. Called once, after the
  /// bulk load.
  void Seal();

  /// Restores the sealed load state in place (benchmark reset): every
  /// sealed slot keeps only its load version, so versions above it, and
  /// the fold memos they carry, are freed; slots appended after Seal are
  /// dropped. Runs under the exclusive latch. Callers quiesce
  /// transactions first (a pending node's owner would be left holding a
  /// freed node). An unsealed table rewinds to empty.
  void Rewind();

 private:
  bool FoldAt(Rid rid, Ts snapshot, Row* out, mvcc::FoldObservation* obs,
              WorkMeter* meter) const;

  mutable SharedMutex latch_;
  const Schema schema_;  // immutable after construction; never latched
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
  /// Slots [0, sealed_slots_) hold the load state (see Seal).
  size_t sealed_slots_ GUARDED_BY(latch_) = 0;
};

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_ROW_TABLE_H_
