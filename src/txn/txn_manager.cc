#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/key_encoding.h"

namespace hattrick {

namespace {

/// splitmix64: deterministic jitter source for retry backoff (seeded by
/// transaction identity, so same-seed runs replay identical schedules).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadCommitted:
      return "READ_COMMITTED";
    case IsolationLevel::kSnapshot:
      return "SNAPSHOT";
    case IsolationLevel::kSerializable:
      return "SERIALIZABLE";
  }
  return "UNKNOWN";
}

TxnManager::TxnManager(Catalog* catalog, TimestampOracle* oracle,
                       WalSink* sink)
    : catalog_(catalog),
      oracle_(oracle),
      sink_(sink) {
  // Real sleep by default: any caller driving the manager from real
  // threads gets livelock-free retries out of the box. Virtual-time
  // drivers replace this with a no-op and schedule the reported backoff
  // in simulated time instead (single-threaded sim bodies never abort,
  // so the default is never reached there anyway).
  retry_sleeper_ = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
}

Transaction TxnManager::Begin(IsolationLevel isolation, uint32_t client_id,
                              uint64_t txn_num) const {
  Transaction txn;
  txn.snapshot_ = oracle_->last_committed();
  txn.isolation_ = isolation;
  txn.client_id_ = client_id;
  txn.txn_num_ = txn_num;
  return txn;
}

Status TxnManager::Read(Transaction* txn, TableId table_id, Rid rid, Row* out,
                        WorkMeter* meter) const {
  // Read-your-own-writes: find the newest buffered full image (update, or
  // insert via its provisional rid; newest last), then fold buffered
  // deltas recorded after it.
  size_t base_idx = txn->writes_.size();
  for (size_t i = txn->writes_.size(); i-- > 0;) {
    const Transaction::Write& w = txn->writes_[i];
    if (w.table_id != table_id || w.rid != rid) continue;
    if (w.kind == WalOp::Kind::kDelta) continue;
    base_idx = i;
    break;
  }
  if (base_idx < txn->writes_.size()) {
    *out = txn->writes_[base_idx].row;
  } else {
    RowTable* table = catalog_->GetTable(table_id);
    if (table == nullptr) return Status::NotFound("no such table");
    mvcc::FoldObservation obs;
    bool found;
    if (txn->isolation_ == IsolationLevel::kReadCommitted) {
      found = table->ReadLatestObserved(rid, out, &obs, meter);
    } else {
      found = table->ReadObserved(rid, txn->snapshot_, out, &obs, meter);
    }
    if (!found) return Status::NotFound("row invisible");
    // Every isolation level records what it observed: BufferUpdate bases
    // its first-updater-wins window on the read (a read-committed read
    // of newer-than-snapshot state must not be treated as a conflict
    // with itself), and serializable validates the full set at commit.
    txn->reads_.push_back(Transaction::ReadEntry{table_id, rid, obs.full_cts,
                                                 obs.any_cts});
    if (txn->isolation_ == IsolationLevel::kSerializable) {
      if (meter != nullptr) ++meter->predicate_locks;
    }
  }
  // Own buffered deltas fold over whichever base was resolved. Deltas
  // buffered before an own full image are already part of it (BufferUpdate
  // collapses them); later ones apply here.
  for (size_t i = base_idx < txn->writes_.size() ? base_idx + 1 : 0;
       i < txn->writes_.size(); ++i) {
    const Transaction::Write& w = txn->writes_[i];
    if (w.table_id == table_id && w.rid == rid &&
        w.kind == WalOp::Kind::kDelta) {
      mvcc::ApplyDeltaValue(&(*out)[w.column], w.row[0]);
    }
  }
  return Status::OK();
}

size_t TxnManager::IndexLookup(
    Transaction* txn, const IndexInfo& index,
    const std::vector<Value>& key_values,
    const std::function<bool(Rid, const Row&)>& visitor,
    WorkMeter* meter) const {
  const std::string prefix = key::EncodeKey(key_values);
  size_t matches = 0;
  std::vector<Rid> rids;
  if (index.unique) {
    uint64_t rid = 0;
    if (index.tree->Lookup(prefix, &rid, meter)) rids.push_back(rid);
  } else {
    index.tree->ScanPrefix(
        prefix,
        [&](const std::string&, uint64_t rid) {
          rids.push_back(rid);
          return true;
        },
        meter);
  }
  Row row;
  bool stopped = false;
  for (const Rid rid : rids) {
    if (!Read(txn, index.table_id, rid, &row, meter).ok()) continue;
    // Re-check the key: index entries can be stale if an update changed
    // an indexed column (old entries are not removed eagerly).
    bool key_matches = true;
    for (size_t i = 0; i < index.key_columns.size(); ++i) {
      if (!(row[index.key_columns[i]] == key_values[i])) {
        key_matches = false;
        break;
      }
    }
    if (!key_matches) continue;
    ++matches;
    if (!visitor(rid, row)) {
      stopped = true;
      break;
    }
  }
  if (stopped) return matches;
  // Read-your-own-inserts: buffered rows are not in the index yet, so
  // surface matching ones under their provisional rids (deltas buffered
  // against them are already collapsed into the insert image).
  for (const Transaction::Write& w : txn->writes_) {
    if (w.kind != WalOp::Kind::kInsert || w.table_id != index.table_id) {
      continue;
    }
    bool key_matches = true;
    for (size_t i = 0; i < index.key_columns.size(); ++i) {
      if (!(w.row[index.key_columns[i]] == key_values[i])) {
        key_matches = false;
        break;
      }
    }
    if (!key_matches) continue;
    ++matches;
    if (!visitor(w.rid, w.row)) break;
  }
  return matches;
}

Rid TxnManager::BufferInsert(Transaction* txn, TableId table_id,
                             Row row) const {
  const Rid provisional = kProvisionalRidBase + txn->writes_.size();
  txn->writes_.push_back(Transaction::Write{WalOp::Kind::kInsert, table_id,
                                            provisional, 0, std::move(row),
                                            Row{}, 0});
  return provisional;
}

void TxnManager::BufferUpdate(Transaction* txn, TableId table_id, Rid rid,
                              Row old_row, Row new_row) const {
  if (rid >= kProvisionalRidBase) {
    // Updating an own buffered insert: collapse into the insert image.
    for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
      if (it->kind == WalOp::Kind::kInsert && it->table_id == table_id &&
          it->rid == rid) {
        it->row = std::move(new_row);
        return;
      }
    }
    return;  // unknown provisional rid: nothing to update
  }
  // First-updater-wins window: conflicts are commits newer than what the
  // transaction's read of this row actually folded in (falling back to
  // the begin snapshot for blind writes).
  Ts base_ts = txn->snapshot_;
  for (auto it = txn->reads_.rbegin(); it != txn->reads_.rend(); ++it) {
    if (it->table_id == table_id && it->rid == rid) {
      base_ts = it->observed_any_ts;
      break;
    }
  }
  txn->writes_.push_back(Transaction::Write{WalOp::Kind::kUpdate, table_id,
                                            rid, 0, std::move(new_row),
                                            std::move(old_row), base_ts});
}

void TxnManager::BufferDelta(Transaction* txn, TableId table_id, Rid rid,
                             uint32_t column, Value increment) const {
  if (rid >= kProvisionalRidBase) {
    // Increment against an own buffered insert: fold it in directly.
    for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
      if (it->kind == WalOp::Kind::kInsert && it->table_id == table_id &&
          it->rid == rid) {
        mvcc::ApplyDeltaValue(&it->row[column], increment);
        return;
      }
    }
    return;
  }
  txn->writes_.push_back(Transaction::Write{WalOp::Kind::kDelta, table_id,
                                            rid, column,
                                            Row{std::move(increment)}, Row{},
                                            0});
}

bool TxnManager::ValidateReads(const Transaction* txn,
                               WorkMeter* meter) const {
  for (const auto& r : txn->reads_) {
    if (r.rid >= kProvisionalRidBase) continue;  // own uncommitted insert
    RowTable* table = catalog_->GetTable(r.table_id);
    if (table == nullptr || !table->ValidateRead(r.rid, r.observed_full_ts,
                                                 txn)) {
      if (meter != nullptr) ++meter->conflict_waits;
      return false;
    }
  }
  return true;
}

TxnManager::CommitSlot TxnManager::RegisterCommit() {
  MutexLock lock(&seq_mu_);
  CommitSlot slot;
  slot.ticket = seq_issued_++;
  // Allocating under seq_mu_ makes ticket order == commit_ts order, the
  // invariant the ordered tail relies on (WAL in cts order, insert rids
  // in LSN order, publishes in cts order).
  slot.commit_ts = oracle_->Allocate();
  return slot;
}

void TxnManager::EnterTail(uint64_t ticket) {
  MutexLock lock(&seq_mu_);
  while (seq_draining_ != ticket) seq_cv_.Wait(&seq_mu_);
}

void TxnManager::ExitTail() {
  MutexLock lock(&seq_mu_);
  ++seq_draining_;
  seq_cv_.NotifyAll();
}

StatusOr<CommitResult> TxnManager::Commit(Transaction* txn, WorkMeter* meter) {
  Prepared prep;
  HATTRICK_RETURN_IF_ERROR(Prepare(txn, &prep, meter));
  return CommitPrepared(txn, &prep, meter);
}

Status TxnManager::Prepare(Transaction* txn, Prepared* prep,
                           WorkMeter* meter) {
  if (txn->writes_.empty()) {
    if (txn->isolation_ == IsolationLevel::kSerializable &&
        !ValidateReads(txn, meter)) {
      if (read_conflicts_metric_ != nullptr) read_conflicts_metric_->Inc();
      return Status::Aborted("read validation failure");
    }
    // Read-only: will commit at its snapshot, no timestamp consumed.
    prep->read_only = true;
    return Status::OK();
  }

  // Phase 1 — install: CAS pending version nodes, one per written row
  // (inserts materialize in the ordered tail; they cannot conflict). A
  // pending node is the row's write lock; installation performs
  // first-updater-wins validation at every isolation level.
  //
  // Installs run in canonical (table, rid) order, not buffer order. With
  // a shared order, two transactions contending on the same row set
  // collide at their FIRST shared row, so exactly one of them aborts —
  // the unordered alternative lets each install the row the other needs
  // next and both abort, which under a tight retry loop degenerates
  // into livelock on hot rows.
  std::vector<size_t> install_order;
  install_order.reserve(txn->writes_.size());
  for (size_t i = 0; i < txn->writes_.size(); ++i) {
    if (txn->writes_[i].kind != WalOp::Kind::kInsert) {
      install_order.push_back(i);
    }
  }
  std::stable_sort(install_order.begin(), install_order.end(),
                   [&](size_t a, size_t b) {
                     const Transaction::Write& wa = txn->writes_[a];
                     const Transaction::Write& wb = txn->writes_[b];
                     return PackRowKey(wa.table_id, wa.rid) <
                            PackRowKey(wb.table_id, wb.rid);
                   });
  std::vector<mvcc::VersionNode*>& installed = prep->installed;
  installed.assign(txn->writes_.size(), nullptr);
  for (const size_t i : install_order) {
    const Transaction::Write& w = txn->writes_[i];
    RowTable* table = catalog_->GetTable(w.table_id);
    mvcc::VersionNode* node =
        w.kind == WalOp::Kind::kUpdate
            ? table->TryInstallFull(w.rid, w.row, txn, w.base_ts, meter)
            : table->TryInstallDelta(w.rid, w.column, w.row[0], txn, meter);
    if (node == nullptr) {
      for (mvcc::VersionNode* n : installed) {
        if (n != nullptr) mvcc::Withdraw(n);
      }
      installed.clear();
      // No commit_ts was allocated, so the ordered tail sees no gap.
      if (write_conflicts_metric_ != nullptr) write_conflicts_metric_->Inc();
      return Status::Aborted("write-write conflict");
    }
    installed[i] = node;
  }

  // Phase 2 — register: allocate commit_ts and the tail ticket.
  const CommitSlot slot = RegisterCommit();
  prep->ticket = slot.ticket;
  prep->commit_ts = slot.commit_ts;
  prep->registered = true;

  // Phase 3 — serializable read validation. Registering first closes the
  // latch-free OCC window: any writer that publishes a conflicting
  // version after this validation must have registered after us, so its
  // commit_ts exceeds ours and the serialization order stays consistent;
  // writers registered but not yet published are caught as pending.
  if (txn->isolation_ == IsolationLevel::kSerializable &&
      !ValidateReads(txn, meter)) {
    if (read_conflicts_metric_ != nullptr) read_conflicts_metric_->Inc();
    AbortPrepared(txn, prep);
    return Status::Aborted("read validation failure");
  }
  return Status::OK();
}

void TxnManager::AbortPrepared(Transaction* txn, Prepared* prep) {
  (void)txn;
  for (mvcc::VersionNode* n : prep->installed) {
    if (n != nullptr) mvcc::Withdraw(n);
  }
  prep->installed.clear();
  if (prep->registered) {
    // The reserved slot must still pass through the tail or every later
    // committer would wait forever on the gap.
    EnterTail(prep->ticket);
    ExitTail();
    prep->registered = false;
  }
}

CommitResult TxnManager::CommitPrepared(Transaction* txn, Prepared* prep,
                                        WorkMeter* meter) {
  CommitResult result;
  if (prep->read_only) {
    // Read-only: commits at its snapshot, no timestamp consumed.
    result.commit_ts = txn->snapshot_;
    result.lsn = 0;
    if (commits_metric_ != nullptr) commits_metric_->Inc();
    return result;
  }

  // Phase 4 — ordered tail, strictly in commit_ts order: publish the
  // pending nodes, apply inserts (rids assigned in LSN order — the
  // replica and the bitmap column store both assert this), maintain
  // indexes, emit WAL, advance the watermark.
  EnterTail(prep->ticket);
  prep->registered = false;  // the slot drains via ExitTail below
  const Ts commit_ts = prep->commit_ts;
  uint64_t delta_installs = 0;

  for (mvcc::VersionNode* n : prep->installed) {
    if (n != nullptr) mvcc::Publish(n, commit_ts);
  }

  WalRecord record;
  record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  record.commit_ts = commit_ts;
  record.client_id = txn->client_id_;
  record.txn_num = txn->txn_num_;
  record.ops.reserve(txn->writes_.size());

  for (auto& w : txn->writes_) {
    RowTable* table = catalog_->GetTable(w.table_id);
    // Exhaustive over WalOp::Kind: this is the commit publish path, so a
    // new kind must decide its index-maintenance story here explicitly
    // rather than silently riding the delta arm.
    switch (w.kind) {
      case WalOp::Kind::kInsert: {
        const Rid rid = table->Insert(w.row, commit_ts, meter);
        w.rid = rid;
        for (const IndexInfo* index : catalog_->TableIndexes(w.table_id)) {
          index->tree->Insert(index->KeyFor(w.row, rid), rid, meter);
        }
        break;
      }
      case WalOp::Kind::kUpdate: {
        // Maintain only indexes whose key actually changed; stale old
        // entries are tolerated and filtered by IndexLookup's re-check.
        for (const IndexInfo* index : catalog_->TableIndexes(w.table_id)) {
          const std::string new_key = index->KeyFor(w.row, w.rid);
          if (!w.old_row.empty() &&
              new_key == index->KeyFor(w.old_row, w.rid)) {
            continue;
          }
          index->tree->Insert(new_key, w.rid, meter);
        }
        break;
      }
      case WalOp::Kind::kDelta:
        ++delta_installs;  // deltas never touch indexed key columns
        break;
    }
    WalOp op;
    op.kind = w.kind;
    op.table_id = w.table_id;
    op.rid = w.rid;
    op.column = w.column;
    op.row = w.row;
    record.ops.push_back(std::move(op));
    if (w.kind == WalOp::Kind::kDelta) {
      result.delta_keys.push_back(PackRowKey(w.table_id, w.rid));
    } else {
      result.write_keys.push_back(PackRowKey(w.table_id, w.rid));
    }
  }

  if (meter != nullptr || commits_metric_ != nullptr) {
    const uint64_t encoded_bytes = record.Encode().size();
    if (meter != nullptr) {
      ++meter->wal_records;
      meter->wal_bytes += encoded_bytes;
    }
    if (commits_metric_ != nullptr) {
      commits_metric_->Inc();
      wal_records_metric_->Inc();
      wal_bytes_metric_->Inc(encoded_bytes);
      if (delta_installs > 0) delta_installs_metric_->Inc(delta_installs);
    }
  }
  if (sink_ != nullptr) sink_->OnCommit(record);
  oracle_->AdvanceCommitted(commit_ts);
  ExitTail();

  result.commit_ts = commit_ts;
  result.lsn = record.lsn;
  return result;
}

void TxnManager::SetMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    if (backoff_gauge_ != nullptr) backoff_gauge_->SetProbe(nullptr);
    commits_metric_ = write_conflicts_metric_ = read_conflicts_metric_ =
        wal_records_metric_ = wal_bytes_metric_ = delta_installs_metric_ =
            nullptr;
    backoff_gauge_ = nullptr;
    return;
  }
  commits_metric_ = registry->GetCounter(obs::kTxnCommits);
  write_conflicts_metric_ = registry->GetCounter(obs::kTxnAbortsWriteConflict);
  read_conflicts_metric_ = registry->GetCounter(obs::kTxnAbortsReadConflict);
  wal_records_metric_ = registry->GetCounter(obs::kTxnWalRecords);
  wal_bytes_metric_ = registry->GetCounter(obs::kTxnWalBytes);
  delta_installs_metric_ = registry->GetCounter(obs::kTxnDeltaInstalls);
  backoff_gauge_ = registry->GetGauge(obs::kTxnRetryBackoffSeconds);
  backoff_gauge_->SetProbe([this] {
    return static_cast<double>(backoff_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  });
}

void TxnManager::Abort(Transaction* txn) const {
  txn->writes_.clear();
  txn->reads_.clear();
}

double TxnManager::RetryBackoffSeconds(uint32_t client_id, uint64_t txn_num,
                                       int attempt) {
  constexpr double kBaseSeconds = 100e-6;
  constexpr double kCapSeconds = 10e-3;
  const int exponent = std::min(attempt, 10);
  const double window =
      std::min(kCapSeconds, kBaseSeconds * static_cast<double>(1 << exponent));
  const uint64_t h = Mix64((static_cast<uint64_t>(client_id) << 32) ^
                           Mix64(txn_num) ^ static_cast<uint64_t>(attempt));
  // Jitter in [0.5, 1.0) of the window: retriers spread apart instead of
  // re-colliding in lockstep, but never retry immediately.
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return window * jitter;
}

StatusOr<CommitResult> TxnManager::RunWithRetries(
    IsolationLevel isolation, uint32_t client_id, uint64_t txn_num,
    const std::function<Status(Transaction*)>& body, WorkMeter* meter,
    int max_retries, int* attempts, double* backoff_seconds) {
  Status last = Status::Internal("not run");
  double backoff_total = 0;
  if (backoff_seconds != nullptr) *backoff_seconds = 0;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff between attempts: hot-row conflicts
      // under the threaded driver would otherwise livelock in a tight
      // retry loop. Virtual-time drivers schedule the reported backoff;
      // the threaded driver installs a real sleeper.
      const double delay =
          RetryBackoffSeconds(client_id, txn_num, attempt - 1);
      backoff_total += delay;
      backoff_nanos_.fetch_add(static_cast<uint64_t>(delay * 1e9),
                               std::memory_order_relaxed);
      if (retry_sleeper_) retry_sleeper_(delay);
    }
    if (attempts != nullptr) *attempts = attempt + 1;
    Transaction txn = Begin(isolation, client_id, txn_num);
    const Status body_status = body(&txn);
    if (!body_status.ok()) {
      Abort(&txn);
      if (body_status.code() == StatusCode::kAborted) {
        last = body_status;
        continue;
      }
      if (backoff_seconds != nullptr) *backoff_seconds = backoff_total;
      return body_status;
    }
    StatusOr<CommitResult> commit = Commit(&txn, meter);
    if (backoff_seconds != nullptr) *backoff_seconds = backoff_total;
    if (commit.ok()) return commit;
    if (commit.status().code() != StatusCode::kAborted) return commit;
    last = commit.status();
  }
  if (backoff_seconds != nullptr) *backoff_seconds = backoff_total;
  return last;
}

}  // namespace hattrick
