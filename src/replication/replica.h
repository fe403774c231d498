#ifndef HATTRICK_REPLICATION_REPLICA_H_
#define HATTRICK_REPLICATION_REPLICA_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "replication/wal_stream.h"
#include "storage/catalog.h"
#include "txn/timestamp.h"

namespace hattrick {

/// A read-only standby that replays a primary's WAL stream into its own
/// catalog (the PostgreSQL-SR standby of Section 6.3).
///
/// The replica has its own timestamp domain: each applied record commits
/// at a fresh replica timestamp, and analytical queries snapshot the
/// replica's last_committed. The freshness a query observes is therefore
/// exactly the set of records replayed before the query started —
/// matching how a standby exposes stale snapshots in the paper.
///
/// The apply loop is fault tolerant:
///  - *Idempotent apply*: records at or below applied_lsn() (duplicate
///    deliveries) are consumed without re-applying.
///  - *Gap recovery*: a missing record is re-requested from the stream's
///    retention buffer with capped exponential backoff (1, 2, 4, ...
///    steps, capped at kMaxBackoffSteps); after kMaxResendAttempts
///    failed attempts the replica escalates to a full resync from its
///    last durably applied LSN, which always converges.
///  - *Crash/restart*: an injected crash discards all volatile state
///    (backoff timers, in-flight deliveries) and resyncs from
///    applied_lsn(), the durable replay position. Already-applied rows
///    survive the crash (apply is record-atomic and durable here), so
///    recovery re-delivers only the un-applied tail and duplicate
///    deliveries are skipped idempotently.
/// No path asserts or aborts; unexpected stream states surface as
/// kError with the Status preserved in last_error().
///
/// The owner (IsolatedEngine) decides *when* Step runs: in simulated
/// time it is a dedicated applier process on the standby's cores; in
/// threaded mode it is an applier thread.
class Replica {
 public:
  /// What one apply step did.
  enum class StepResult {
    kIdle,              // caught up: nothing shipped beyond applied_lsn
    kApplied,           // replayed one record
    kDuplicateSkipped,  // consumed a duplicate delivery without applying
    kResendRequested,   // detected a gap and requested retransmission
    kBackingOff,        // gap persists; waiting out the backoff window
    kRecovered,         // crashed and resynced (crash fault or escalation)
    kError,             // unrecoverable stream/apply error (last_error())
  };

  /// After this many lost resend attempts for one LSN the replica stops
  /// retrying record-by-record and resyncs the whole tail.
  static constexpr uint32_t kMaxResendAttempts = 6;
  /// Cap of the exponential backoff, in apply steps.
  static constexpr uint32_t kMaxBackoffSteps = 8;

  /// `catalog` must have the same table layout as the primary and is
  /// owned by the caller. `stream` is the shipping channel.
  Replica(Catalog* catalog, WalStream* stream);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Attaches the crash/slow-apply fault model (nullptr = no faults).
  /// Not owned; must outlive the replica or be detached first.
  void SetFaultInjector(const FaultInjector* injector);

  /// Runs one step of the apply loop (at most one record applied).
  /// Metering covers row writes, index maintenance, the decoded record
  /// (wal_records/wal_bytes = replay work), re-shipped bytes on resends
  /// and resyncs, and the slow-apply fault's extra work.
  StepResult Step(WorkMeter* meter);

  /// Replays the next shipped record if any, driving recovery steps as
  /// needed. Returns true if a record was applied, false once the
  /// stream is drained (or on kError).
  bool ApplyNext(WorkMeter* meter);

  /// Replays until the stream is drained; returns records applied.
  size_t CatchUp(WorkMeter* meter);

  /// Highest LSN durably applied. Safe to poll from other threads (a
  /// REMOTE_APPLY client waiting for its commit) while Step runs.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// Records shipped but not yet applied.
  size_t Lag() const { return stream_->PendingAfter(applied_lsn_); }

  /// Snapshot for analytical queries on the standby.
  Ts Snapshot() const { return oracle_.last_committed(); }

  /// Resets applied state back to `lsn` and the timestamp domain to `ts`
  /// (benchmark reset; the caller restores catalog contents). Clears all
  /// recovery state and fault/recovery counters.
  void ResetTo(uint64_t lsn, Ts ts);

  Catalog* catalog() const { return catalog_; }

  /// Recovery accounting (cumulative since ResetTo).
  uint64_t duplicate_skips() const { return duplicate_skips_; }
  uint64_t resend_requests() const { return resend_requests_; }
  uint64_t backoff_steps() const { return backoff_steps_; }
  uint64_t crash_recoveries() const { return crash_recoveries_; }

  /// The Status behind the last kError step (OK if none).
  const Status& last_error() const { return last_error_; }

 private:
  /// Applies one decoded record to the catalog. Returns non-OK (without
  /// advancing applied_lsn_) if the catalog diverged from the primary.
  Status ApplyRecord(const ShippedRecord& shipped, WorkMeter* meter);

  /// Discards volatile state and re-syncs the delivery queue from the
  /// last durably applied LSN. `meter` is charged the re-shipped tail.
  void Resync(WorkMeter* meter);

  Catalog* catalog_;
  WalStream* stream_;
  const FaultInjector* injector_ = nullptr;
  TimestampOracle oracle_;
  std::atomic<uint64_t> applied_lsn_{0};  // written only by Step/ResetTo

  // Volatile recovery state (lost on crash).
  uint64_t waiting_lsn_ = 0;      // LSN a resend is pending for (0 = none)
  uint32_t resend_attempts_ = 0;  // attempts for waiting_lsn_
  uint32_t backoff_remaining_ = 0;

  uint64_t steps_ = 0;  // apply-step sequence, keys the crash schedule
  uint64_t duplicate_skips_ = 0;
  uint64_t resend_requests_ = 0;
  uint64_t backoff_steps_ = 0;
  uint64_t crash_recoveries_ = 0;
  Status last_error_;
};

}  // namespace hattrick

#endif  // HATTRICK_REPLICATION_REPLICA_H_
