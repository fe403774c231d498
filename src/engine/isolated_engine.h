#ifndef HATTRICK_ENGINE_ISOLATED_ENGINE_H_
#define HATTRICK_ENGINE_ISOLATED_ENGINE_H_

#include <atomic>
#include <string>
#include <vector>

#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "engine/shared_engine.h"
#include "engine/standby.h"
#include "replication/replica.h"
#include "replication/wal_stream.h"

namespace hattrick {

/// Isolated design (Section 2.2): a primary node — a SharedEngine —
/// executes transactions; standby node(s) fed by streaming WAL
/// replication (engine/standby.h) serve analytics (PostgreSQL-SR,
/// Section 6.3).
///
/// - Compute isolation: the driver places transactions on the primary's
///   core pool and queries plus WAL replay on the standby's pool, so the
///   frontier approaches the bounding box at large scale factors.
/// - Freshness: analytical queries snapshot the *replayed* state of the
///   standby serving them. In ON mode replay is asynchronous, so queries
///   observe stale snapshots when a standby falls behind — the paper's
///   non-zero freshness scores. In REMOTE_APPLY mode commits wait for
///   replay on every standby (freshness == 0, lower T-throughput).
class IsolatedEngine final : public HtapEngine {
 public:
  explicit IsolatedEngine(IsolatedEngineConfig config = {});

  const std::string& name() const override { return config_.name; }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  bool MaintenanceStep(WorkMeter* meter) override {
    return standbys_.Step(meter);
  }
  size_t MaintenancePending() const override { return standbys_.Pending(); }
  bool IsApplied(uint64_t lsn) const override;
  uint64_t applied_lsn() const override { return standbys_.AppliedLsn(); }
  /// Replication-mode wait (sync ship / remote apply) plus standby
  /// backpressure and injected ship-delay throttles for a write commit.
  CommitWait CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override { return primary_.primary_catalog(); }
  TxnManager* txn_manager() override { return primary_.txn_manager(); }

  ReplicationMode mode() const { return config_.mode; }
  int num_replicas() const { return config_.num_replicas; }
  /// Standby `i` (0-based; i < num_replicas()).
  Replica* replica(int i = 0) { return standbys_.chain(i).replica.get(); }
  /// Standby i's shipping stream (fault counters, retention depth).
  WalStream* stream(int i = 0) { return standbys_.chain(i).stream.get(); }
  /// Records shipped but not yet replayed on the furthest-behind standby.
  size_t ReplicationLag() const { return standbys_.Lag(); }

 protected:
  void OnObservabilityChanged() override;

 private:
  IsolatedEngineConfig config_;
  SharedEngine primary_;
  StandbySet standbys_;
  std::atomic<uint64_t> next_session_{0};  // round-robin standby selector
};

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_ISOLATED_ENGINE_H_
