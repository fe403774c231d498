#include "engine/hybrid_engine.h"

#include <cassert>

#include "engine/shared_engine.h"

namespace hattrick {

HybridEngineConfig SystemXConfig() {
  HybridEngineConfig config;
  config.name = "System-X";
  config.isolation = IsolationLevel::kSerializable;
  return config;
}

HybridEngineConfig TidbConfig() {
  HybridEngineConfig config;
  config.name = "TiDB";
  config.isolation = IsolationLevel::kSnapshot;
  return config;
}

HybridEngine::HybridEngine(HybridEngineConfig config)
    : config_(std::move(config)),
      primary_(SharedEngineConfig{config_.name, config_.isolation}) {}

Ts HybridEngine::last_committed() {
  return primary_.txn_manager()->oracle()->last_committed();
}

void HybridEngine::DeltaFeed::OnCommit(const WalRecord& record) {
  if (engine_->config_.merge_mode == MergeMode::kBitmap) {
    // Runs inside the commit critical section, before the oracle
    // advances to this commit's timestamp: versions append in commit
    // order (the per-table logs stay CSN-ascending), and a session
    // snapshotting at last_committed() always sees a complete prefix.
    for (const WalOp& op : record.ops) {
      ColumnTable* column = engine_->columns_[op.table_id].get();
      // Exhaustive over WalOp::Kind; an unhandled new kind is a compile
      // warning here, not a silent replay-as-update.
      switch (op.kind) {
        case WalOp::Kind::kInsert:
          column->AppendVersion(record.commit_ts, op.rid, op.row);
          break;
        case WalOp::Kind::kDelta:
          column->AppendDeltaVersion(record.commit_ts, op.rid, op.column,
                                     op.row[0]);
          break;
        case WalOp::Kind::kUpdate:
          column->UpdateVersion(record.commit_ts, op.rid, op.row);
          break;
      }
    }
    return;
  }
  MutexLock lock(&engine_->delta_mutex_);
  engine_->delta_.push_back(record);
}

Status HybridEngine::Create(const DatabaseSpec& spec) {
  HATTRICK_RETURN_IF_ERROR(primary_.Create(spec));
  columns_.reserve(spec.tables.size());
  for (const TableSpec& table : spec.tables) {
    columns_.push_back(std::make_unique<ColumnTable>(table.schema));
  }
  primary_.txn_manager()->set_sink(&feed_);
  return Status::OK();
}

Status HybridEngine::BulkLoad(const std::string& table,
                              const std::vector<Row>& rows) {
  HATTRICK_RETURN_IF_ERROR(primary_.BulkLoad(table, rows));
  ColumnTable* column =
      columns_[primary_.primary_catalog()->GetTableId(table)].get();
  for (const Row& row : rows) {
    HATTRICK_RETURN_IF_ERROR(column->Append(row, /*meter=*/nullptr));
  }
  return Status::OK();
}

Status HybridEngine::FinishLoad() { return primary_.FinishLoad(); }

TxnOutcome HybridEngine::ExecuteTransaction(const TxnBody& body,
                                            uint32_t client_id,
                                            uint64_t txn_num,
                                            WorkMeter* meter) {
  // No commit wait: merge happens on the analytical side.
  return primary_.ExecuteTransaction(body, client_id, txn_num, meter);
}

void HybridEngine::MergeDelta(WorkMeter* meter) {
  // Serialize whole merge passes so batches apply in commit order, then
  // drain the queue under the delta mutex and apply under the merge
  // latch (which excludes running analytical sessions, not commits).
  MutexLock order(&merge_order_);
  std::deque<WalRecord> batch;
  {
    MutexLock lock(&delta_mutex_);
    batch.swap(delta_);
  }
  if (batch.empty()) return;
  obs::ScopedSpan span(obs_.tracer, obs_.clock, "delta-merge", "merge",
                       obs::kTrackEngine);
  uint64_t rows_merged = 0;
  merge_latch_.WithExclusive([&] {
    for (const WalRecord& record : batch) {
      for (const WalOp& op : record.ops) {
        ColumnTable* column = columns_[op.table_id].get();
        // Exhaustive over WalOp::Kind; an unhandled new kind is a
        // compile warning here, not a silent merge-as-update.
        switch (op.kind) {
          case WalOp::Kind::kInsert: {
            assert(column->num_rows() == op.rid &&
                   "column copy out of sync with row store");
            const Status s = column->Append(op.row, meter);
            assert(s.ok());
            (void)s;
            break;
          }
          case WalOp::Kind::kDelta: {
            const Status s =
                column->ApplyDelta(op.rid, op.column, op.row[0], meter);
            assert(s.ok());
            (void)s;
            break;
          }
          case WalOp::Kind::kUpdate: {
            const Status s = column->UpdateRow(op.rid, op.row, meter);
            assert(s.ok());
            (void)s;
            break;
          }
        }
        ++rows_merged;
        if (meter != nullptr) ++meter->merged_rows;
      }
      if (meter != nullptr) {
        ++meter->wal_records;
        meter->wal_bytes += record.Encode().size();
      }
    }
  });
  if (merge_passes_metric_ != nullptr) {
    merge_passes_metric_->Inc();
    merge_rows_metric_->Inc(rows_merged);
    merge_records_metric_->Inc(batch.size());
  }
  span.AppendArgs("\"records\":" + std::to_string(batch.size()) +
                  ",\"rows\":" + std::to_string(rows_merged));
}

AnalyticsSession HybridEngine::BeginAnalytics(WorkMeter* meter) {
  const Catalog& catalog = *primary_.primary_catalog();
  if (config_.merge_mode == MergeMode::kBitmap) {
    AnalyticsSession session;
    // Pin FIRST, then read the snapshot CSN. The pin excludes folds for
    // the life of the session, and every version already folded had
    // csn <= some earlier last_committed() <= this snapshot — so the
    // base plus the snapshotted log prefix is exactly the committed
    // state at the CSN, never half-folded. (Snapshotting before
    // pinning would race a fold whose horizon passed the CSN.)
    session.guard = merge_latch_.AcquirePin();
    const Ts snapshot = last_committed();
    auto source = std::make_unique<ColumnDataSource>();
    for (size_t id = 0; id < columns_.size(); ++id) {
      auto delta = std::make_shared<ColumnDeltaSnapshot>();
      columns_[id]->SnapshotVersions(snapshot, delta.get(), meter);
      const size_t bound = delta->bound;
      // An empty snapshot degrades to the plain merged-base scan.
      source->AddTable(catalog.table_name(static_cast<TableId>(id)),
                       columns_[id].get(), bound,
                       delta->Empty() ? nullptr : std::move(delta));
    }
    session.source = std::move(source);
    return session;
  }
  // Merge the tail of the log so the query sees all committed updates —
  // the zero-freshness design of System-X and TiDB (Sections 6.4, 6.5).
  MergeDelta(meter);
  AnalyticsSession session;
  std::shared_ptr<void> guard = merge_latch_.AcquirePin();
  auto source = std::make_unique<ColumnDataSource>();
  for (size_t id = 0; id < columns_.size(); ++id) {
    source->AddTable(catalog.table_name(static_cast<TableId>(id)),
                     columns_[id].get(), columns_[id]->num_rows());
  }
  session.source = std::move(source);
  session.guard = std::move(guard);
  return session;
}

size_t HybridEngine::FoldPass(WorkMeter* meter) {
  // Serialized with eager merges and other folds; the horizon is read
  // after taking the order lock so two passes never fold out of order.
  MutexLock order(&merge_order_);
  const Ts horizon = last_committed();
  if (TotalPendingVersions() == 0) return 0;
  obs::ScopedSpan span(obs_.tracer, obs_.clock, "delta-fold", "merge",
                       obs::kTrackEngine);
  size_t folded = 0;
  // The exclusive latch waits out running sessions (their snapshots
  // reference base payloads that the fold reallocates) and blocks new
  // pins until the pass completes — the GC side of visibility.
  merge_latch_.WithExclusive([&] {
    for (auto& column : columns_) {
      folded += column->FoldVersions(horizon, meter);
    }
  });
  if (fold_passes_metric_ != nullptr && folded > 0) {
    fold_passes_metric_->Inc();
    fold_rows_metric_->Inc(folded);
  }
  span.AppendArgs("\"ops\":" + std::to_string(folded));
  return folded;
}

size_t HybridEngine::TotalPendingVersions() const {
  size_t total = 0;
  for (const auto& column : columns_) total += column->PendingVersions();
  return total;
}

bool HybridEngine::MaintenanceStep(WorkMeter* meter) {
  if (config_.merge_mode != MergeMode::kBitmap) return false;
  if (TotalPendingVersions() < config_.fold_watermark) return false;
  return FoldPass(meter) > 0;
}

size_t HybridEngine::MaintenancePending() const {
  // Below the watermark this must report 0: the maintenance pump
  // re-polls while it is nonzero, and shallow deltas are served by
  // session snapshots, not folds.
  if (config_.merge_mode != MergeMode::kBitmap) return 0;
  const size_t pending = TotalPendingVersions();
  return pending >= config_.fold_watermark ? pending : 0;
}

void HybridEngine::FoldAll(WorkMeter* meter) {
  if (config_.merge_mode == MergeMode::kBitmap) {
    FoldPass(meter);
  } else {
    MergeDelta(meter);
  }
}

size_t HybridEngine::Vacuum() { return primary_.Vacuum(); }

void HybridEngine::OnObservabilityChanged() {
  primary_.SetObservability(obs_);
  if (obs_.metrics == nullptr) {
    merge_passes_metric_ = merge_rows_metric_ = merge_records_metric_ =
        nullptr;
    fold_passes_metric_ = fold_rows_metric_ = nullptr;
    return;
  }
  merge_passes_metric_ = obs_.metrics->GetCounter(obs::kStoreMergePasses);
  merge_rows_metric_ = obs_.metrics->GetCounter(obs::kStoreMergeRows);
  merge_records_metric_ = obs_.metrics->GetCounter(obs::kStoreMergeRecords);
  fold_passes_metric_ = obs_.metrics->GetCounter(obs::kStoreFoldPasses);
  fold_rows_metric_ = obs_.metrics->GetCounter(obs::kStoreFoldRows);
  obs_.metrics->GetGauge(obs::kStoreDeltaPending)->SetProbe([this] {
    return static_cast<double>(PendingDelta());
  });
  obs_.metrics->GetGauge(obs::kStoreVersionDepth)->SetProbe([this] {
    return static_cast<double>(TotalPendingVersions());
  });
}

Status HybridEngine::Reset() {
  Status status;
  merge_latch_.WithExclusive([&] {
    status = primary_.Reset();
    if (!status.ok()) return;
    {
      MutexLock lock(&delta_mutex_);
      delta_.clear();
    }
    // The rewound row copy holds exactly the loaded rows, in the order
    // BulkLoad appended them to the columns, so re-appending them
    // rebuilds the same dictionaries and zone maps.
    const Catalog& rows = *primary_.primary_catalog();
    for (size_t id = 0; id < columns_.size(); ++id) {
      ColumnTable* column = columns_[id].get();
      column->Clear();
      rows.GetTable(static_cast<TableId>(id))
          ->Scan(
              kMaxTs - 1,
              [column](Rid, const Row& row) {
                const Status s = column->Append(row, /*meter=*/nullptr);
                assert(s.ok());
                (void)s;
                return true;
              },
              /*meter=*/nullptr);
    }
  });
  return status;
}

size_t HybridEngine::PendingDelta() const {
  if (config_.merge_mode == MergeMode::kBitmap) {
    return TotalPendingVersions();
  }
  MutexLock lock(&delta_mutex_);
  return delta_.size();
}

const ColumnTable* HybridEngine::column_table(const std::string& table) {
  return columns_[primary_.primary_catalog()->GetTableId(table)].get();
}

}  // namespace hattrick
