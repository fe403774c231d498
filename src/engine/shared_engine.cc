#include "engine/shared_engine.h"

#include <cassert>

namespace hattrick {

void BuildCatalog(const DatabaseSpec& spec, bool with_indexes,
                  Catalog* catalog) {
  for (const TableSpec& table : spec.tables) {
    catalog->CreateTable(table.name, table.schema);
  }
  if (with_indexes) {
    for (const IndexSpec& index : spec.indexes) {
      catalog->CreateIndex(index.name, index.table, index.key_columns,
                           index.unique);
    }
  }
}

Status BulkLoadInto(Catalog* catalog, const std::string& table,
                    const std::vector<Row>& rows) {
  RowTable* t = catalog->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  const TableId id = catalog->GetTableId(table);
  for (const Row& row : rows) {
    HATTRICK_RETURN_IF_ERROR(t->schema().ValidateRow(row));
    const Rid rid = t->Insert(row, /*begin_ts=*/1, /*meter=*/nullptr);
    for (const IndexInfo* index : catalog->TableIndexes(id)) {
      index->tree->Insert(index->KeyFor(row, rid), rid, /*meter=*/nullptr);
    }
  }
  return Status::OK();
}

SharedEngine::SharedEngine(SharedEngineConfig config)
    : config_(std::move(config)) {}

Status SharedEngine::Create(const DatabaseSpec& spec) {
  if (created_) return Status::Internal("Create called twice");
  BuildCatalog(spec, /*with_indexes=*/true, &catalog_);
  txn_manager_ = std::make_unique<TxnManager>(&catalog_, &oracle_,
                                              /*sink=*/nullptr);
  created_ = true;
  return Status::OK();
}

Status SharedEngine::BulkLoad(const std::string& table,
                              const std::vector<Row>& rows) {
  if (!created_) return Status::Internal("Create not called");
  if (loaded_) return Status::Internal("load already finished");
  return BulkLoadInto(&catalog_, table, rows);
}

Status SharedEngine::FinishLoad() {
  if (loaded_) return Status::Internal("load already finished");
  catalog_.Seal();
  oracle_.ResetTo(1);
  loaded_ = true;
  return Status::OK();
}

TxnOutcome SharedEngine::ExecuteTransaction(const TxnBody& body,
                                            uint32_t client_id,
                                            uint64_t txn_num,
                                            WorkMeter* meter) {
  TxnOutcome outcome;
  StatusOr<CommitResult> result = txn_manager_->RunWithRetries(
      config_.isolation, client_id, txn_num,
      [&](Transaction* txn) {
        LocalTxnContext ctx(txn_manager_.get(), txn);
        return body(&ctx, meter);
      },
      meter, kMaxTxnRetries, &outcome.attempts, &outcome.backoff_s);
  if (!result.ok()) {
    outcome.status = result.status();
    return outcome;
  }
  outcome.status = Status::OK();
  outcome.commit_ts = result->commit_ts;
  outcome.lsn = result->lsn;
  outcome.write_keys = std::move(result.value().write_keys);
  outcome.delta_keys = std::move(result.value().delta_keys);
  return outcome;
}

AnalyticsSession SharedEngine::BeginAnalytics(WorkMeter* meter) {
  (void)meter;  // no maintenance needed: single up-to-date copy
  AnalyticsSession session;
  session.snapshot = oracle_.last_committed();
  session.source =
      std::make_unique<RowDataSource>(&catalog_, session.snapshot);
  return session;
}

size_t SharedEngine::Vacuum() {
  // Every snapshot taken from now on sees last_committed; versions that
  // ended at or before it are unreachable.
  obs::ScopedSpan span(obs_.tracer, obs_.clock, "vacuum", "maint",
                       obs::kTrackEngine);
  const size_t dropped = catalog_.VacuumAll(oracle_.last_committed());
  if (obs_.metrics != nullptr) {
    obs_.metrics->GetCounter(obs::kStoreVacuumedVersions)->Inc(dropped);
  }
  span.AppendArgs("\"versions\":" + std::to_string(dropped));
  return dropped;
}

Status SharedEngine::Reset() {
  if (!loaded_) return Status::Internal("FinishLoad not called");
  catalog_.Rewind();
  oracle_.ResetTo(1);
  txn_manager_->ResetLsn(1);
  return Status::OK();
}

}  // namespace hattrick
