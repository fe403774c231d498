#ifndef HATTRICK_ENGINE_ENGINE_FACADE_H_
#define HATTRICK_ENGINE_ENGINE_FACADE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/work_meter.h"
#include "exec/operator.h"
#include "txn/txn_context.h"

namespace hattrick {

/// Declarative description of the database: tables plus the physical
/// schema (indexes). The paper's physical-schema experiment (Figure 6b)
/// varies the index list: none / T-accelerating only ("semi") / all.
struct TableSpec {
  std::string name;
  Schema schema;
};

struct IndexSpec {
  std::string name;
  std::string table;
  std::vector<size_t> key_columns;
  bool unique = false;
};

struct DatabaseSpec {
  std::vector<TableSpec> tables;
  std::vector<IndexSpec> indexes;
};

/// What a client must wait for after the local part of a commit finishes.
/// The benchmark driver (wall-clock or virtual-time) resolves the wait:
///  - kNone: commit already complete.
///  - kShipDelay: wait for the record to reach and be written by the
///    standby (PostgreSQL-SR synchronous_commit=ON); duration derived
///    from `bytes` by the cost model.
///  - kReplicaApplied: wait until the standby has replayed `lsn`
///    (synchronous_commit=remote_apply).
struct CommitWait {
  enum class Kind { kNone, kShipDelay, kReplicaApplied };
  Kind kind = Kind::kNone;
  uint64_t lsn = 0;
  uint64_t bytes = 0;
  /// Extra seconds the client is stalled on top of the wait itself:
  /// backpressure when the standby's unacknowledged backlog exceeds its
  /// bound, plus any injected ship-delay fault. Applies to every Kind
  /// (even kNone — async commits are throttled too, or the backlog
  /// would grow without bound exactly when replication is degraded).
  double throttle_s = 0;
};

/// Outcome of one transaction execution (after retries).
struct TxnOutcome {
  Status status;     // OK iff finally committed
  int attempts = 1;  // 1 + number of aborts
  Ts commit_ts = 0;
  uint64_t lsn = 0;
  CommitWait wait;
  /// Rows written ((table_id << 40) | rid); feeds the simulator's
  /// row-lock contention model.
  std::vector<uint64_t> write_keys;
  /// Rows touched only by commutative delta increments (same packing).
  /// Modeled separately: deltas hold their row "locks" for a tiny
  /// fraction of the transaction (install + publish, no read-validate
  /// span), which is what flattens the hot-row contention knee.
  std::vector<uint64_t> delta_keys;
  /// Simulated/real seconds spent in retry backoff across all attempts.
  double backoff_s = 0;
  /// Shards this transaction wrote or prepared on (1 on single-node
  /// engines). The simulator charges the cross-shard coordination
  /// round-trips proportionally to this count.
  int shards_touched = 1;
};

/// The analytical side of the engine at one instant: a scan source over a
/// consistent snapshot. For hybrid engines, constructing the session
/// merges the outstanding delta into the column store first (the paper's
/// "merge the tail of the log before every analytical query", Sections
/// 6.4-6.5), charging that work to the requesting query.
struct AnalyticsSession {
  std::unique_ptr<DataSource> source;
  /// Optional RAII guard the engine uses to pin its analytical state for
  /// the life of the session (e.g. the hybrid engine holds a pin so a
  /// concurrent delta merge cannot move data under a running query in
  /// wall-clock mode).
  ///
  /// Lifetime contract: the pin lasts until the LAST copy of this
  /// shared_ptr is destroyed, and engines must tolerate that release
  /// happening on any thread — morsel workers copy the guard into their
  /// ExecContext (ExecContext::session_pin) and may outlive both the
  /// session object and the thread that called BeginAnalytics. Engines
  /// must therefore back the guard with a primitive whose release is
  /// thread-agnostic (see engine/session_pin.h); thread-affine locks like
  /// std::shared_mutex are not safe here.
  std::shared_ptr<void> guard;
};

/// Transaction logic, expressed against the per-transaction execution
/// surface (txn/txn_context.h). The HATtrick transactions
/// (hattrick/transactions.h) are written as TxnBody callbacks, so every
/// engine — single-node or sharded — runs identical logic.
using TxnBody = std::function<Status(TxnContext*, WorkMeter*)>;

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_ENGINE_FACADE_H_
