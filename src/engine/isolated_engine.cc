#include "engine/isolated_engine.h"

#include <cassert>

namespace hattrick {

IsolatedEngine::IsolatedEngine(IsolatedEngineConfig config)
    : config_(std::move(config)),
      primary_(SharedEngineConfig{config_.name, config_.isolation}),
      standbys_(static_cast<size_t>(config_.num_replicas), config_.fault) {
  assert(config_.num_replicas >= 1);
}

Status IsolatedEngine::Create(const DatabaseSpec& spec) {
  HATTRICK_RETURN_IF_ERROR(primary_.Create(spec));
  standbys_.Create(spec);
  standbys_.Attach(primary_.txn_manager(), 0, standbys_.size());
  return Status::OK();
}

Status IsolatedEngine::BulkLoad(const std::string& table,
                                const std::vector<Row>& rows) {
  // Base backup: every node loads the same data outside the WAL channel.
  HATTRICK_RETURN_IF_ERROR(primary_.BulkLoad(table, rows));
  for (size_t i = 0; i < standbys_.size(); ++i) {
    HATTRICK_RETURN_IF_ERROR(standbys_.BulkLoad(i, table, rows));
  }
  return Status::OK();
}

Status IsolatedEngine::FinishLoad() {
  HATTRICK_RETURN_IF_ERROR(primary_.FinishLoad());
  standbys_.FinishLoad();
  return Status::OK();
}

TxnOutcome IsolatedEngine::ExecuteTransaction(const TxnBody& body,
                                              uint32_t client_id,
                                              uint64_t txn_num,
                                              WorkMeter* meter) {
  const uint64_t bytes_before = meter != nullptr ? meter->wal_bytes : 0;
  TxnOutcome outcome =
      primary_.ExecuteTransaction(body, client_id, txn_num, meter);
  if (outcome.lsn != 0) {  // write transaction: replication semantics apply
    outcome.wait = CommitWaitFor(
        outcome.lsn, meter != nullptr ? meter->wal_bytes - bytes_before : 0);
  }
  return outcome;
}

CommitWait IsolatedEngine::CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) {
  CommitWait wait;
  switch (config_.mode) {
    case ReplicationMode::kAsync:
      break;
    case ReplicationMode::kSyncShip:
      wait.kind = CommitWait::Kind::kShipDelay;
      wait.lsn = lsn;
      wait.bytes = wal_bytes;
      break;
    case ReplicationMode::kRemoteApply:
      wait.kind = CommitWait::Kind::kReplicaApplied;
      wait.lsn = lsn;
      break;
  }
  wait.throttle_s = standbys_.Throttle(lsn);
  return wait;
}

AnalyticsSession IsolatedEngine::BeginAnalytics(WorkMeter* meter) {
  (void)meter;  // replay runs as MaintenanceStep, not inside queries
  // Round-robin load balancing across the standbys.
  const size_t index = next_session_.fetch_add(1) % standbys_.size();
  const StandbyChain& standby = standbys_.chain(index);
  AnalyticsSession session;
  session.source = std::make_unique<RowDataSource>(
      standby.catalog.get(), standby.replica->Snapshot());
  return session;
}

bool IsolatedEngine::IsApplied(uint64_t lsn) const {
  // REMOTE_APPLY with multiple synchronous standbys: all must replay.
  return applied_lsn() >= lsn;
}

size_t IsolatedEngine::Vacuum() {
  return primary_.Vacuum() + standbys_.Vacuum();
}

void IsolatedEngine::OnObservabilityChanged() {
  primary_.SetObservability(obs_);
  standbys_.SetObservability(obs_);
}

Status IsolatedEngine::Reset() {
  HATTRICK_RETURN_IF_ERROR(primary_.Reset());
  standbys_.Reset();
  next_session_.store(0);
  return Status::OK();
}

}  // namespace hattrick
