#ifndef HATTRICK_ENGINE_ENGINE_CONFIG_H_
#define HATTRICK_ENGINE_ENGINE_CONFIG_H_

#include <string>

#include "fault/fault_injector.h"
#include "replication/wal_stream.h"
#include "txn/txn_manager.h"

namespace hattrick {

/// How the hybrid engine makes committed writes visible to analytics.
///  - kEager: the paper's protocol — BeginAnalytics merges the whole
///    outstanding delta into the column store under the merge latch
///    before the query starts (freshness 0, but every query stalls on
///    the merge and on running sessions).
///  - kBitmap: committed delta records become CSN-stamped versions on
///    the column tables; BeginAnalytics captures a snapshot CSN and an
///    immutable visibility snapshot (dirty bitmap + override/insert
///    rows) without taking the merge latch. A background fold — driven
///    by the maintenance pump, charged to the A side — merges cold
///    versions down once the delta depth crosses a watermark (freshness
///    still 0: the snapshot CSN is the newest committed timestamp).
enum class MergeMode { kEager, kBitmap };

/// Every engine retries a transaction aborted by validation up to this
/// many times; only the final success counts toward throughput.
inline constexpr int kMaxTxnRetries = 50;

/// Configuration of the shared-design engine.
struct SharedEngineConfig {
  std::string name = "shared";
  /// The paper's PostgreSQL experiments run serializable by default and
  /// read committed in the Figure 6a comparison.
  IsolationLevel isolation = IsolationLevel::kSerializable;
};

/// Configuration of the isolated-design engine.
struct IsolatedEngineConfig {
  std::string name = "isolated";
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// PostgreSQL-SR synchronous_commit: ON (sync ship, async replay) by
  /// default; REMOTE_APPLY for the zero-freshness mode of Figure 8a.
  ReplicationMode mode = ReplicationMode::kSyncShip;
  /// Number of standby nodes ("standby server(s)", Section 6.3).
  /// Analytical sessions round-robin across standbys; in REMOTE_APPLY
  /// mode a commit waits until *every* standby has replayed it.
  int num_replicas = 1;
  /// Replication-layer fault injection (disabled by default). Each
  /// standby gets its own injector whose seed mixes the standby index,
  /// so standbys see independent — but still deterministic — schedules.
  FaultConfig fault;
};

/// Configuration of the hybrid-design engine.
struct HybridEngineConfig {
  std::string name = "hybrid";
  /// System-X uses optimistic MVCC at serializable (Section 6.4); TiDB's
  /// default is snapshot-isolated repeatable read (Section 6.5).
  IsolationLevel isolation = IsolationLevel::kSerializable;
  MergeMode merge_mode = MergeMode::kEager;
  /// Bitmap mode: background fold triggers once the committed-but-
  /// unfolded version count (across all tables) reaches this depth.
  /// Below it, versions stay in the log and sessions pay only the
  /// (cheap) snapshot cost.
  size_t fold_watermark = 4096;
};

/// Returns a config matching the paper's System-X (memory-optimized OCC
/// engine with an in-memory clustered column store copy).
HybridEngineConfig SystemXConfig();

/// Returns a config matching single-node TiDB (TiKV row store + TiFlash
/// columnar learner, snapshot-isolated reads).
HybridEngineConfig TidbConfig();

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_ENGINE_CONFIG_H_
