#include "shard/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "exec/scan.h"

namespace hattrick {

namespace {

/// Drains its children in order — the union of per-shard scans of one
/// logical table. Children produce disjoint row sets (each shard scans
/// its own copy/partition), so concatenation is the exact table scan.
class ConcatOperator final : public Operator {
 public:
  explicit ConcatOperator(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}

  void Open(ExecContext* ctx) override {
    for (OperatorPtr& child : children_) child->Open(ctx);
    index_ = 0;
  }

  bool Next(ExecContext* ctx, Row* out) override {
    while (index_ < children_.size()) {
      if (children_[index_]->Next(ctx, out)) return true;
      ++index_;
    }
    return false;
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    while (index_ < children_.size()) {
      if (children_[index_]->NextBatch(ctx, out)) return true;
      ++index_;
    }
    return false;
  }

 private:
  std::vector<OperatorPtr> children_;
  size_t index_ = 0;
};

class ShardedDataSource;

/// The DataSource one shard contributes to a scatter/gather plan: the
/// fact table resolves to this shard's local partition, every other
/// hashed table to the all-shard union (join partners are not
/// necessarily co-located with the fact partition), broadcast tables to
/// the local full copy, single-shard tables to their owner.
class RoutedShardSource final : public DataSource {
 public:
  RoutedShardSource(const ShardedDataSource* parent, uint32_t shard)
      : parent_(parent), shard_(shard) {}

  OperatorPtr Scan(const ScanSpec& spec) const override;
  size_t ScanExtent(const std::string& table) const override;

 private:
  const ShardedDataSource* parent_;
  uint32_t shard_;
};

/// Top-level analytics source over N per-shard sessions. Queries planned
/// against it either go through ShardViews() (the scatter/gather path)
/// or call Scan directly (freshness read-backs, serial fallbacks), which
/// routes by placement: hashed tables scan the all-shard union.
class ShardedDataSource final : public DataSource {
 public:
  ShardedDataSource(std::vector<AnalyticsSession> sessions,
                    const ShardRouter* router, const Catalog* catalog,
                    std::string fact_table)
      : sessions_(std::move(sessions)),
        router_(router),
        catalog_(catalog),
        fact_table_(std::move(fact_table)) {
    views_.reserve(sessions_.size());
    for (uint32_t s = 0; s < sessions_.size(); ++s) {
      views_.push_back(std::make_unique<RoutedShardSource>(this, s));
    }
  }

  OperatorPtr Scan(const ScanSpec& spec) const override {
    switch (PlacementFor(spec.table).placement) {
      case Placement::kHashed:
        return ConcatAll(spec);
      case Placement::kBroadcast:
        return sessions_[0].source->Scan(spec);
      case Placement::kSingleShard:
        return sessions_[OwnerOf(spec.table)].source->Scan(spec);
    }
    return nullptr;
  }

  size_t ScanExtent(const std::string& table) const override {
    // The global source cannot be morselized (rid spaces are per-shard);
    // parallelism comes from the per-shard views instead.
    (void)table;
    return 0;
  }

  std::vector<const DataSource*> ShardViews() const override {
    std::vector<const DataSource*> views;
    views.reserve(views_.size());
    for (const auto& view : views_) views.push_back(view.get());
    return views;
  }

  OperatorPtr ScanForShard(const ScanSpec& spec, uint32_t shard) const {
    switch (PlacementFor(spec.table).placement) {
      case Placement::kHashed:
        if (spec.table == fact_table_) {
          return sessions_[shard].source->Scan(spec);
        }
        return ConcatAll(spec);
      case Placement::kBroadcast:
        return sessions_[shard].source->Scan(spec);
      case Placement::kSingleShard:
        return sessions_[OwnerOf(spec.table)].source->Scan(spec);
    }
    return nullptr;
  }

  size_t ExtentForShard(const std::string& table, uint32_t shard) const {
    if (table != fact_table_) return 0;
    return sessions_[shard].source->ScanExtent(table);
  }

  const std::vector<AnalyticsSession>& sessions() const { return sessions_; }

 private:
  const TablePlacement& PlacementFor(const std::string& table) const {
    return router_->PlacementOf(catalog_->GetTableId(table));
  }

  uint32_t OwnerOf(const std::string& table) const {
    return router_->OwnerShard(catalog_->GetTableId(table));
  }

  OperatorPtr ConcatAll(const ScanSpec& spec) const {
    std::vector<OperatorPtr> children;
    children.reserve(sessions_.size());
    for (const AnalyticsSession& session : sessions_) {
      children.push_back(session.source->Scan(spec));
    }
    return std::make_unique<ConcatOperator>(std::move(children));
  }

  std::vector<AnalyticsSession> sessions_;
  const ShardRouter* router_;
  const Catalog* catalog_;
  std::string fact_table_;
  std::vector<std::unique_ptr<RoutedShardSource>> views_;
};

OperatorPtr RoutedShardSource::Scan(const ScanSpec& spec) const {
  return parent_->ScanForShard(spec, shard_);
}

size_t RoutedShardSource::ScanExtent(const std::string& table) const {
  return parent_->ExtentForShard(table, shard_);
}

/// Pins held for the life of an analytics session: one per shard. The
/// top-level guard owns copies so morsel workers (which only copy the
/// top-level guard into their ExecContext) keep every shard pinned even
/// if they outlive the session object.
struct SessionGuards {
  std::vector<std::shared_ptr<void>> pins;
};

}  // namespace

/// Routed per-transaction surface: every operation lands on the shard(s)
/// its table placement dictates; rids cross the boundary in global
/// encoding (shard bits | local rid). One lazy transaction leg per shard.
class ShardedTxnContext final : public TxnContext {
 public:
  ShardedTxnContext(ShardedEngine* engine, IsolationLevel isolation,
                    uint32_t client_id, uint64_t txn_num)
      : engine_(engine),
        isolation_(isolation),
        client_id_(client_id),
        txn_num_(txn_num),
        legs_(engine->config_.shards) {}

  struct Leg {
    std::unique_ptr<Transaction> txn;
    bool has_writes = false;
  };

  Ts snapshot() const override {
    // The coordinator (shard 0) snapshot; per-shard snapshots are only
    // loosely aligned (atomicity comes from 2PC, not a global TSO).
    if (legs_[0].txn != nullptr) return legs_[0].txn->snapshot();
    return Manager(0)->oracle()->last_committed();
  }

  IsolationLevel isolation() const override { return isolation_; }

  Status Read(TableId table_id, Rid rid, Row* out, WorkMeter* meter) override {
    switch (Placement(table_id).placement) {
      case Placement::kHashed: {
        const uint32_t shard = RidShard(rid);
        return Manager(shard)->Read(Txn(shard), table_id, LocalRid(rid), out,
                                    meter);
      }
      case Placement::kBroadcast:
        return Manager(0)->Read(Txn(0), table_id, rid, out, meter);
      case Placement::kSingleShard: {
        const uint32_t owner = Owner(table_id);
        return Manager(owner)->Read(Txn(owner), table_id, LocalRid(rid), out,
                                    meter);
      }
    }
    return Status::Internal("unreachable placement");
  }

  size_t IndexLookup(const IndexInfo& index,
                     const std::vector<Value>& key_values,
                     const std::function<bool(Rid, const Row&)>& visitor,
                     WorkMeter* meter) override {
    const TableId table_id = index.table_id;
    const TablePlacement& placement = Placement(table_id);
    switch (placement.placement) {
      case Placement::kHashed:
        // Lookup by the distribution key routes to exactly one shard;
        // any other key scatters across all of them.
        if (index.key_columns.size() == 1 && key_values.size() == 1 &&
            index.key_columns[0] == placement.hash_column) {
          const uint32_t shard = engine_->router_->ShardForValue(key_values[0]);
          return LookupOn(shard, index, key_values, visitor, meter);
        }
        {
          size_t matches = 0;
          bool stopped = false;
          for (uint32_t shard = 0; shard < legs_.size() && !stopped; ++shard) {
            matches += LookupOn(
                shard, index, key_values,
                [&](Rid rid, const Row& row) {
                  if (!visitor(rid, row)) {
                    stopped = true;
                    return false;
                  }
                  return true;
                },
                meter);
          }
          return matches;
        }
      case Placement::kBroadcast:
        return LookupOn(0, index, key_values, visitor, meter);
      case Placement::kSingleShard:
        return LookupOn(Owner(table_id), index, key_values, visitor, meter);
    }
    return 0;
  }

  Rid BufferInsert(TableId table_id, Row row) override {
    switch (Placement(table_id).placement) {
      case Placement::kHashed: {
        const uint32_t shard = engine_->router_->ShardForRow(table_id, row);
        Leg& leg = LegFor(shard);
        leg.has_writes = true;
        const Rid provisional =
            Manager(shard)->BufferInsert(leg.txn.get(), table_id,
                                         std::move(row));
        return GlobalRid(shard, provisional);
      }
      case Placement::kBroadcast: {
        // All copies take the insert; read-back goes through shard 0's
        // provisional rid (broadcast reads route to shard 0).
        Rid first = 0;
        for (uint32_t shard = 0; shard < legs_.size(); ++shard) {
          Leg& leg = LegFor(shard);
          leg.has_writes = true;
          const Rid provisional =
              Manager(shard)->BufferInsert(leg.txn.get(), table_id, row);
          if (shard == 0) first = provisional;
        }
        return first;
      }
      case Placement::kSingleShard: {
        const uint32_t owner = Owner(table_id);
        Leg& leg = LegFor(owner);
        leg.has_writes = true;
        const Rid provisional = Manager(owner)->BufferInsert(
            leg.txn.get(), table_id, std::move(row));
        return GlobalRid(owner, provisional);
      }
    }
    return 0;
  }

  void BufferUpdate(TableId table_id, Rid rid, Row old_row,
                    Row new_row) override {
    switch (Placement(table_id).placement) {
      case Placement::kHashed: {
        const uint32_t shard = RidShard(rid);
        Leg& leg = LegFor(shard);
        leg.has_writes = true;
        Manager(shard)->BufferUpdate(leg.txn.get(), table_id, LocalRid(rid),
                                     std::move(old_row), std::move(new_row));
        return;
      }
      case Placement::kBroadcast:
        // Loaded broadcast rows carry identical rids on every shard (the
        // workload never inserts into broadcast tables).
        for (uint32_t shard = 0; shard < legs_.size(); ++shard) {
          Leg& leg = LegFor(shard);
          leg.has_writes = true;
          Manager(shard)->BufferUpdate(leg.txn.get(), table_id, rid, old_row,
                                       new_row);
        }
        return;
      case Placement::kSingleShard: {
        const uint32_t owner = Owner(table_id);
        Leg& leg = LegFor(owner);
        leg.has_writes = true;
        Manager(owner)->BufferUpdate(leg.txn.get(), table_id, LocalRid(rid),
                                     std::move(old_row), std::move(new_row));
        return;
      }
    }
  }

  void BufferDelta(TableId table_id, Rid rid, uint32_t column,
                   Value increment) override {
    switch (Placement(table_id).placement) {
      case Placement::kHashed: {
        const uint32_t shard = RidShard(rid);
        Leg& leg = LegFor(shard);
        leg.has_writes = true;
        Manager(shard)->BufferDelta(leg.txn.get(), table_id, LocalRid(rid),
                                    column, std::move(increment));
        return;
      }
      case Placement::kBroadcast:
        for (uint32_t shard = 0; shard < legs_.size(); ++shard) {
          Leg& leg = LegFor(shard);
          leg.has_writes = true;
          Manager(shard)->BufferDelta(leg.txn.get(), table_id, rid, column,
                                      increment);
        }
        return;
      case Placement::kSingleShard: {
        const uint32_t owner = Owner(table_id);
        Leg& leg = LegFor(owner);
        leg.has_writes = true;
        Manager(owner)->BufferDelta(leg.txn.get(), table_id, LocalRid(rid),
                                    column, std::move(increment));
        return;
      }
    }
  }

  void ScanVisible(TableId table_id,
                   const std::function<bool(Rid, const Row&)>& visitor,
                   WorkMeter* meter) override {
    switch (Placement(table_id).placement) {
      case Placement::kHashed: {
        bool stopped = false;
        for (uint32_t shard = 0; shard < legs_.size() && !stopped; ++shard) {
          ScanOn(shard, table_id,
                 [&](Rid rid, const Row& row) {
                   if (!visitor(GlobalRid(shard, rid), row)) {
                     stopped = true;
                     return false;
                   }
                   return true;
                 },
                 meter);
        }
        return;
      }
      case Placement::kBroadcast:
        ScanOn(0, table_id, visitor, meter);
        return;
      case Placement::kSingleShard: {
        const uint32_t owner = Owner(table_id);
        ScanOn(owner, table_id,
               [&](Rid rid, const Row& row) {
                 return visitor(GlobalRid(owner, rid), row);
               },
               meter);
        return;
      }
    }
  }

  void AbortAll() {
    for (uint32_t shard = 0; shard < legs_.size(); ++shard) {
      if (legs_[shard].txn != nullptr) {
        Manager(shard)->Abort(legs_[shard].txn.get());
      }
    }
  }

  std::vector<Leg>& legs() { return legs_; }

 private:
  TxnManager* Manager(uint32_t shard) const {
    return engine_->shards_[shard].engine->txn_manager();
  }

  const TablePlacement& Placement(TableId table_id) const {
    return engine_->router_->PlacementOf(table_id);
  }

  uint32_t Owner(TableId table_id) const {
    return engine_->router_->OwnerShard(table_id);
  }

  Leg& LegFor(uint32_t shard) {
    Leg& leg = legs_[shard];
    if (leg.txn == nullptr) {
      leg.txn = std::make_unique<Transaction>(
          Manager(shard)->Begin(isolation_, client_id_, txn_num_));
    }
    return leg;
  }

  Transaction* Txn(uint32_t shard) { return LegFor(shard).txn.get(); }

  size_t LookupOn(uint32_t shard, const IndexInfo& index,
                  const std::vector<Value>& key_values,
                  const std::function<bool(Rid, const Row&)>& visitor,
                  WorkMeter* meter) {
    // Map the shard-0 index onto this shard's equivalent by name; table
    // ids and index definitions are identical across shards.
    const IndexInfo* local =
        shard == 0 ? &index
                   : engine_->shards_[shard].engine->primary_catalog()->GetIndex(
                         index.name);
    assert(local != nullptr);
    return Manager(shard)->IndexLookup(
        Txn(shard), *local, key_values,
        [&](Rid rid, const Row& row) {
          return visitor(GlobalRid(shard, rid), row);
        },
        meter);
  }

  void ScanOn(uint32_t shard, TableId table_id,
              const std::function<bool(Rid, const Row&)>& visitor,
              WorkMeter* meter) {
    LocalTxnContext local(Manager(shard), Txn(shard));
    local.ScanVisible(table_id, visitor, meter);
  }

  ShardedEngine* engine_;
  IsolationLevel isolation_;
  uint32_t client_id_;
  uint64_t txn_num_;
  std::vector<Leg> legs_;
};

ShardedEngine::ShardedEngine(ShardedEngineConfig config)
    : config_(std::move(config)),
      standbys_(config_.replicate ? config_.shards : 0, config_.fault) {
  assert(config_.shards >= 1);
}

ShardedEngine::~ShardedEngine() = default;

Status ShardedEngine::Create(const DatabaseSpec& spec) {
  if (created_) return Status::Internal("Create called twice");
  router_ = std::make_unique<ShardRouter>(config_.shards, config_.seed,
                                          config_.plan);
  shards_.resize(config_.shards);
  standbys_.Create(spec);
  for (uint32_t i = 0; i < config_.shards; ++i) {
    Shard& shard = shards_[i];
    HybridEngineConfig node = config_.node;
    node.name = config_.name + "/shard" + std::to_string(i);
    shard.engine = std::make_unique<HybridEngine>(std::move(node));
    HATTRICK_RETURN_IF_ERROR(shard.engine->Create(spec));
    if (config_.replicate) {
      standbys_.Attach(shard.engine->txn_manager(), i, 1);
      shard.chain = &standbys_.chain(i);
    }
  }
  router_->Bind(*shards_[0].engine->primary_catalog());
  created_ = true;
  return Status::OK();
}

Status ShardedEngine::BulkLoad(const std::string& table,
                               const std::vector<Row>& rows) {
  if (!created_) return Status::Internal("Create not called");
  if (loaded_) return Status::Internal("load already finished");
  const TableId table_id =
      shards_[0].engine->primary_catalog()->GetTableId(table);
  const TablePlacement& placement = router_->PlacementOf(table_id);
  auto load_shard = [&](uint32_t shard, const std::vector<Row>& part) {
    HATTRICK_RETURN_IF_ERROR(shards_[shard].engine->BulkLoad(table, part));
    if (config_.replicate) {
      HATTRICK_RETURN_IF_ERROR(standbys_.BulkLoad(shard, table, part));
    }
    return Status::OK();
  };
  switch (placement.placement) {
    case Placement::kHashed: {
      std::vector<std::vector<Row>> parts(config_.shards);
      for (const Row& row : rows) {
        parts[router_->ShardForRow(table_id, row)].push_back(row);
      }
      for (uint32_t shard = 0; shard < config_.shards; ++shard) {
        HATTRICK_RETURN_IF_ERROR(load_shard(shard, parts[shard]));
      }
      return Status::OK();
    }
    case Placement::kBroadcast:
      for (uint32_t shard = 0; shard < config_.shards; ++shard) {
        HATTRICK_RETURN_IF_ERROR(load_shard(shard, rows));
      }
      return Status::OK();
    case Placement::kSingleShard:
      return load_shard(router_->OwnerShard(table_id), rows);
  }
  return Status::Internal("unreachable placement");
}

Status ShardedEngine::FinishLoad() {
  if (loaded_) return Status::Internal("load already finished");
  for (Shard& shard : shards_) {
    HATTRICK_RETURN_IF_ERROR(shard.engine->FinishLoad());
  }
  standbys_.FinishLoad();
  loaded_ = true;
  return Status::OK();
}

TxnOutcome ShardedEngine::ExecuteTransaction(const TxnBody& body,
                                             uint32_t client_id,
                                             uint64_t txn_num,
                                             WorkMeter* meter) {
  if (config_.shards == 1) {
    // Bit-identical single-node fast path: no routing, no 2PC.
    return shards_[0].engine->ExecuteTransaction(body, client_id, txn_num,
                                                 meter);
  }
  // Retries charge shard 0's manager; the backoff gauge sums every
  // shard's (see OnObservabilityChanged).
  TxnOutcome outcome;
  outcome.status = txn_manager()->RetryAborted(
      client_id, txn_num, kMaxTxnRetries,
      [&] {
        ShardedTxnContext ctx(this, config_.node.isolation, client_id,
                              txn_num);
        const Status body_status = body(&ctx, meter);
        if (!body_status.ok()) {
          ctx.AbortAll();
          return body_status;
        }
        // An injected coordinator crash (or hard error) is not kAborted,
        // so it ends the retries.
        return CommitRouted(&ctx, client_id, txn_num, meter, &outcome);
      },
      &outcome.attempts, &outcome.backoff_s);
  return outcome;
}

Status ShardedEngine::CommitRouted(ShardedTxnContext* ctx, uint32_t client_id,
                                   uint64_t txn_num, WorkMeter* meter,
                                   TxnOutcome* outcome) {
  (void)txn_num;
  // Per-shard 2PC child spans land on the issuing client's track, so
  // they nest under the driver's transaction span in the trace.
  const uint32_t track = client_id >= 1
                             ? obs::kTrackTClientBase + (client_id - 1)
                             : obs::kTrackEngine;
  outcome->commit_ts = 0;
  outcome->lsn = 0;
  outcome->wait = CommitWait{};
  outcome->write_keys.clear();
  outcome->delta_keys.clear();
  const uint64_t bytes_before = meter != nullptr ? meter->wal_bytes : 0;

  std::vector<Participant> participants;
  for (uint32_t shard = 0; shard < config_.shards; ++shard) {
    ShardedTxnContext::Leg& leg = ctx->legs()[shard];
    if (leg.txn == nullptr) continue;
    Participant p;
    p.shard = shard;
    p.txn = std::move(leg.txn);
    p.has_writes = leg.has_writes;
    participants.push_back(std::move(p));
  }
  if (participants.empty()) {
    outcome->shards_touched = 1;
    return Status::OK();
  }

  auto fold_result = [&](uint32_t shard, const CommitResult& result) {
    outcome->commit_ts = std::max(outcome->commit_ts, result.commit_ts);
    outcome->lsn = std::max(outcome->lsn, result.lsn);
    for (const uint64_t key : result.write_keys) {
      outcome->write_keys.push_back(ShardLockKey(shard, key));
    }
    for (const uint64_t key : result.delta_keys) {
      outcome->delta_keys.push_back(ShardLockKey(shard, key));
    }
  };

  outcome->shards_touched = static_cast<int>(participants.size());

  if (participants.size() == 1) {
    Participant& p = participants[0];
    TxnManager* manager = shards_[p.shard].engine->txn_manager();
    StatusOr<CommitResult> result = manager->Commit(p.txn.get(), meter);
    if (!result.ok()) return result.status();
    fold_result(p.shard, result.value());
    if (outcome->lsn != 0) {
      outcome->wait = CommitWaitFor(
          outcome->lsn,
          meter != nullptr ? meter->wal_bytes - bytes_before : 0);
    }
    return Status::OK();
  }

  // Two-phase commit. Participants prepare and publish in ascending
  // shard order; a prepared participant never blocks in its shard's
  // commit tail, and the fixed publish order makes any coordinator wait
  // chain strictly descend the shard index — so 2PC cannot deadlock.
  const uint64_t gtid = next_gtid_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint32_t> shard_ids;
  shard_ids.reserve(participants.size());
  for (const Participant& p : participants) shard_ids.push_back(p.shard);

  for (uint32_t k = 0; k < participants.size(); ++k) {
    if (ShouldCrash(TwoPcCrash::Point::kMidPrepare, k)) {
      ParkCrashed(gtid, std::move(participants), /*decided=*/false,
                  /*commit=*/false);
      return Status::Internal("2pc coordinator crash (injected): mid-prepare");
    }
    Participant& p = participants[k];
    TxnManager* manager = shards_[p.shard].engine->txn_manager();
    obs::ScopedSpan span(obs_.tracer, obs_.clock, "2pc-prepare", "shard",
                         track);
    span.AppendArgs("\"gtid\":" + std::to_string(gtid) +
                    ",\"shard\":" + std::to_string(p.shard));
    const Status prepared =
        manager->Prepare(p.txn.get(), &p.prepared, meter);
    if (prepares_metric_ != nullptr) prepares_metric_->Inc();
    if (!prepared.ok()) {
      // Roll back everyone already prepared; participant k is already
      // rolled back by the failed Prepare itself.
      for (uint32_t j = 0; j < k; ++j) {
        Participant& q = participants[j];
        shards_[q.shard].engine->txn_manager()->AbortPrepared(q.txn.get(),
                                                              &q.prepared);
      }
      if (aborts_2pc_metric_ != nullptr) aborts_2pc_metric_->Inc();
      return prepared;
    }
  }

  TwoPcRecord prepare_record;
  prepare_record.kind = TwoPcRecord::Kind::kPrepare;
  prepare_record.gtid = gtid;
  prepare_record.participants = shard_ids;
  two_pc_log_.Append(prepare_record);
  if (ShouldCrash(TwoPcCrash::Point::kAfterPrepareLog, 0)) {
    ParkCrashed(gtid, std::move(participants), /*decided=*/false,
                /*commit=*/false);
    return Status::Internal("2pc coordinator crash (injected): after prepare");
  }

  TwoPcRecord decide_record;
  decide_record.kind = TwoPcRecord::Kind::kDecide;
  decide_record.gtid = gtid;
  decide_record.participants = shard_ids;
  decide_record.commit = true;
  two_pc_log_.Append(decide_record);
  if (ShouldCrash(TwoPcCrash::Point::kAfterDecideLog, 0)) {
    ParkCrashed(gtid, std::move(participants), /*decided=*/true,
                /*commit=*/true);
    return Status::Internal("2pc coordinator crash (injected): after decide");
  }

  for (uint32_t k = 0; k < participants.size(); ++k) {
    if (ShouldCrash(TwoPcCrash::Point::kMidCommit, k)) {
      ParkCrashed(gtid, std::move(participants), /*decided=*/true,
                  /*commit=*/true);
      return Status::Internal("2pc coordinator crash (injected): mid-commit");
    }
    Participant& p = participants[k];
    TxnManager* manager = shards_[p.shard].engine->txn_manager();
    obs::ScopedSpan span(obs_.tracer, obs_.clock, "2pc-publish", "shard",
                         track);
    span.AppendArgs("\"gtid\":" + std::to_string(gtid) +
                    ",\"shard\":" + std::to_string(p.shard));
    const CommitResult result =
        manager->CommitPrepared(p.txn.get(), &p.prepared, meter);
    p.done = true;
    fold_result(p.shard, result);
  }
  if (commits_2pc_metric_ != nullptr) commits_2pc_metric_->Inc();
  if (obs_.tracer != nullptr && obs_.clock != nullptr) {
    obs_.tracer->Instant(
        "2pc-commit", "shard", obs::kTrackEngine, obs_.clock->Now(),
        "\"gtid\":" + std::to_string(gtid) +
            ",\"participants\":" + std::to_string(participants.size()));
  }
  if (outcome->lsn != 0) {
    outcome->wait = CommitWaitFor(
        outcome->lsn, meter != nullptr ? meter->wal_bytes - bytes_before : 0);
  }
  return Status::OK();
}

void ShardedEngine::SetTwoPcCrash(TwoPcCrash crash) {
  MutexLock lock(&crash_mu_);
  armed_crash_ = crash;
}

bool ShardedEngine::ShouldCrash(TwoPcCrash::Point point, uint32_t k) {
  MutexLock lock(&crash_mu_);
  if (armed_crash_.point != point) return false;
  const bool mid = point == TwoPcCrash::Point::kMidPrepare ||
                   point == TwoPcCrash::Point::kMidCommit;
  if (mid && armed_crash_.after_k != k) return false;
  armed_crash_ = TwoPcCrash{};  // one-shot
  return true;
}

void ShardedEngine::ParkCrashed(uint64_t gtid,
                                std::vector<Participant> participants,
                                bool decided, bool commit) {
  MutexLock lock(&pending_mu_);
  PendingGlobalTxn pending;
  pending.gtid = gtid;
  pending.participants = std::move(participants);
  pending.decided = decided;
  pending.commit = commit;
  pending_.emplace(gtid, std::move(pending));
}

size_t ShardedEngine::RecoverCoordinator() {
  MutexLock lock(&pending_mu_);
  if (pending_.empty()) return 0;
  // The coordinator log is the source of truth: a logged decision is
  // replayed; without one the transaction is presumed aborted.
  std::map<uint64_t, bool> decisions;
  for (const TwoPcRecord& record : two_pc_log_.Records()) {
    if (record.kind == TwoPcRecord::Kind::kDecide) {
      decisions[record.gtid] = record.commit;
    }
  }
  size_t recovered = 0;
  for (auto& [gtid, pending] : pending_) {
    const auto decision = decisions.find(gtid);
    const bool commit = decision != decisions.end() && decision->second;
    for (Participant& p : pending.participants) {
      if (p.done) continue;
      TxnManager* manager = shards_[p.shard].engine->txn_manager();
      if (commit) {
        manager->CommitPrepared(p.txn.get(), &p.prepared, /*meter=*/nullptr);
      } else {
        // Never-prepared participants (mid-prepare crash) have nothing
        // installed and no slot; AbortPrepared degrades to a no-op.
        manager->AbortPrepared(p.txn.get(), &p.prepared);
      }
      p.done = true;
    }
    if (recoveries_metric_ != nullptr) recoveries_metric_->Inc();
    ++recovered;
  }
  pending_.clear();
  return recovered;
}

size_t ShardedEngine::PendingGlobalTxns() const {
  MutexLock lock(&pending_mu_);
  return pending_.size();
}

AnalyticsSession ShardedEngine::BeginAnalytics(WorkMeter* meter) {
  if (config_.shards == 1) {
    return shards_[0].engine->BeginAnalytics(meter);
  }
  std::vector<AnalyticsSession> sessions;
  sessions.reserve(config_.shards);
  for (Shard& shard : shards_) {
    sessions.push_back(shard.engine->BeginAnalytics(meter));
  }
  auto guards = std::make_shared<SessionGuards>();
  guards->pins.reserve(sessions.size());
  for (const AnalyticsSession& inner : sessions) {
    guards->pins.push_back(inner.guard);
  }
  AnalyticsSession session;
  session.snapshot = sessions[0].snapshot;
  session.source = std::make_unique<ShardedDataSource>(
      std::move(sessions), router_.get(),
      shards_[0].engine->primary_catalog(), config_.fact_table);
  session.guard = std::move(guards);
  return session;
}

bool ShardedEngine::MaintenanceStep(WorkMeter* meter) {
  // Replication first, then the inner engines' own maintenance
  // (bitmap-mode folds).
  if (standbys_.Step(meter)) return true;
  for (Shard& shard : shards_) {
    if (shard.engine->MaintenanceStep(meter)) return true;
  }
  return false;
}

size_t ShardedEngine::MaintenancePending() const {
  size_t pending = standbys_.Pending();
  for (const Shard& shard : shards_) {
    pending += shard.engine->MaintenancePending();
  }
  return pending;
}

CommitWait ShardedEngine::CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) {
  // Replication is an asynchronous learner tail: commits never wait for
  // shipping or apply, only for backpressure once a shard's standby
  // backlog grows too deep (plus any injected ship-delay fault).
  (void)wal_bytes;
  CommitWait wait;
  wait.throttle_s = standbys_.Throttle(lsn);
  return wait;
}

size_t ShardedEngine::Vacuum() {
  size_t dropped = standbys_.Vacuum();
  for (Shard& shard : shards_) dropped += shard.engine->Vacuum();
  return dropped;
}

Status ShardedEngine::Reset() {
  if (!loaded_) return Status::Internal("FinishLoad not called");
  // Drain any parked distributed transactions first: their reserved
  // commit slots would stall the inner engines' ordered tails forever.
  RecoverCoordinator();
  for (Shard& shard : shards_) {
    HATTRICK_RETURN_IF_ERROR(shard.engine->Reset());
  }
  standbys_.Reset();
  two_pc_log_.Reset();
  next_gtid_.store(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedEngine::OnObservabilityChanged() {
  // Every inner engine gets the same bundle (its manager metrics, merge
  // counters, index split counters). Shard 0's manager was already wired
  // by the base class; re-wiring is idempotent.
  for (Shard& shard : shards_) {
    shard.engine->SetObservability(obs_);
  }
  if (config_.replicate) standbys_.SetObservability(obs_);
  if (obs_.metrics == nullptr) {
    prepares_metric_ = commits_2pc_metric_ = aborts_2pc_metric_ =
        recoveries_metric_ = nullptr;
    return;
  }
  prepares_metric_ = obs_.metrics->GetCounter(obs::kShard2pcPrepares);
  commits_2pc_metric_ = obs_.metrics->GetCounter(obs::kShard2pcCommits);
  aborts_2pc_metric_ = obs_.metrics->GetCounter(obs::kShard2pcAborts);
  recoveries_metric_ =
      obs_.metrics->GetCounter(obs::kShard2pcCoordinatorRecoveries);
  // Each shard's SetMetrics just pointed the backoff gauge at its own
  // manager; the engine's total is the sum over every shard's.
  obs_.metrics->GetGauge(obs::kTxnRetryBackoffSeconds)->SetProbe([this] {
    double total = 0;
    for (const Shard& shard : shards_) {
      total += shard.engine->txn_manager()->backoff_seconds();
    }
    return total;
  });
  for (uint32_t i = 0; i < config_.shards; ++i) {
    Shard* shard = &shards_[i];
    obs_.metrics
        ->GetGauge(std::string(obs::kShardBacklogPrefix) + std::to_string(i))
        ->SetProbe([shard] {
          return static_cast<double>(
              shard->chain != nullptr ? shard->chain->stream->RetainedRecords()
                                      : shard->engine->MaintenancePending());
        });
  }
}

}  // namespace hattrick
