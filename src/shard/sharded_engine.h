#ifndef HATTRICK_SHARD_SHARDED_ENGINE_H_
#define HATTRICK_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "engine/hybrid_engine.h"
#include "engine/standby.h"
#include "fault/fault_injector.h"
#include "replication/replica.h"
#include "replication/wal_stream.h"
#include "shard/shard_router.h"
#include "shard/two_pc.h"
#include "txn/txn_context.h"

namespace hattrick {

/// Configuration of the sharded scale-out engine.
struct ShardedEngineConfig {
  std::string name = "sharded";
  /// Number of shard nodes (>= 1). 1 degenerates to the inner engine:
  /// every call delegates straight to shard 0, so results, rids, and
  /// metered work are bit-identical to an unsharded deployment.
  uint32_t shards = 3;
  /// Router seed (routing is a pure function of seed + key bytes).
  uint64_t seed = 42;
  /// Table placement; tables absent from the plan are broadcast.
  ShardPlan plan;
  /// The hash-partitioned fact table that scatter/gather analytics
  /// partition by: per-shard subplans scan it locally and scan every
  /// other hashed table across all shards (join partners are not
  /// necessarily co-located with the fact partition).
  std::string fact_table = "LINEORDER";
  /// Each shard node is one hybrid (row + column copy) engine.
  HybridEngineConfig node;
  /// Per-shard replication chain (WAL stream -> row-store standby, from
  /// engine/standby.h), pumped by MaintenanceStep. Replication is
  /// asynchronous — a learner tail like TiFlash's: it never gates commit
  /// visibility, only backpressures commits once a standby's backlog
  /// grows too deep.
  bool replicate = true;
  /// Replication-layer fault injection (per-shard injectors with mixed
  /// seeds, as in IsolatedEngineConfig).
  FaultConfig fault;
};

/// Coordinator crash injection for 2PC chaos tests: the next multi-shard
/// commit stops dead at `point` (after `after_k` per-participant steps
/// for the mid-phase points), leaving its prepared state parked until
/// RecoverCoordinator() runs. One-shot.
struct TwoPcCrash {
  enum class Point {
    kNone,
    kMidPrepare,       // after preparing after_k participants
    kAfterPrepareLog,  // all prepared, kPrepare logged, no decision
    kAfterDecideLog,   // kDecide(commit) logged, nothing published
    kMidCommit,        // after publishing on after_k participants
  };
  Point point = Point::kNone;
  uint32_t after_k = 0;
};

/// Horizontal scale-out behind the single-node facade: N hybrid engines
/// (one per shard), a deterministic hash router over the table placement
/// plan, two-phase commit for cross-shard transactions, per-shard
/// asynchronous replication chains, and scatter/gather analytics via
/// per-shard session views (DataSource::ShardViews).
///
/// Transactions run against a routed TxnContext: each operation lands on
/// the shard(s) its placement dictates, and commit runs 1PC when a
/// single shard was touched, else 2PC — prepare every participant
/// (install + validate, never blocking in the commit tail), log the
/// decision in the coordinator log, then publish in ascending shard
/// order. Publishing in a fixed shard order makes coordinator deadlock
/// impossible: any wait chain strictly descends the shard index.
///
/// Snapshot semantics: per-shard snapshots, aligned only by 2PC
/// atomicity (TiDB-without-TSO). TxnContext::snapshot() reports the
/// coordinator (shard 0) snapshot.
class ShardedEngine final : public HtapEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config = {});
  ~ShardedEngine() override;

  const std::string& name() const override { return config_.name; }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  bool MaintenanceStep(WorkMeter* meter) override;
  size_t MaintenancePending() const override;
  CommitWait CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override {
    return shards_[0].engine->primary_catalog();
  }
  TxnManager* txn_manager() override { return shards_[0].engine->txn_manager(); }

  uint32_t num_shards() const { return config_.shards; }
  const ShardRouter& router() const { return *router_; }
  HtapEngine* shard_engine(uint32_t shard) {
    return shards_[shard].engine.get();
  }
  /// Shard `shard`'s standby replica and shipping stream (replicate
  /// only).
  Replica* shard_replica(uint32_t shard) {
    return shards_[shard].chain->replica.get();
  }
  const WalStream* shard_stream(uint32_t shard) const {
    return shards_[shard].chain->stream.get();
  }
  const TwoPcLog& two_pc_log() const { return two_pc_log_; }

  /// Arms a one-shot coordinator crash (tests). The crashed commit
  /// returns a non-retryable Internal status and its prepared state
  /// stays parked; RecoverCoordinator() finishes it.
  void SetTwoPcCrash(TwoPcCrash crash);

  /// Coordinator crash recovery: replays the coordinator log decision
  /// for every parked distributed transaction — commit if a kDecide
  /// record exists, else presumed abort. Returns transactions recovered.
  size_t RecoverCoordinator();

  /// Distributed transactions currently parked (crashed coordinators).
  size_t PendingGlobalTxns() const;

 protected:
  void OnObservabilityChanged() override;

 private:
  friend class ShardedTxnContext;

  /// One shard node: the inner engine plus its replication chain.
  struct Shard {
    std::unique_ptr<HybridEngine> engine;
    StandbyChain* chain = nullptr;  // in standbys_; null if !replicate
  };

  /// Per-participant state of one distributed commit.
  struct Participant {
    uint32_t shard = 0;
    std::unique_ptr<Transaction> txn;
    TxnManager::Prepared prepared;
    bool has_writes = false;
    bool done = false;  // published (or rolled back)
  };

  /// A distributed transaction whose coordinator crashed mid-commit.
  struct PendingGlobalTxn {
    uint64_t gtid = 0;
    std::vector<Participant> participants;
    bool decided = false;
    bool commit = false;
  };

  /// Runs one commit attempt for the routed context. Returns kAborted on
  /// conflict (retryable), Internal on injected coordinator crash.
  Status CommitRouted(class ShardedTxnContext* ctx, uint32_t client_id,
                      uint64_t txn_num, WorkMeter* meter, TxnOutcome* outcome);

  /// True (and consumes the armed crash) when the current commit should
  /// stop at `point` with `k` per-participant steps done.
  bool ShouldCrash(TwoPcCrash::Point point, uint32_t k);

  void ParkCrashed(uint64_t gtid, std::vector<Participant> participants,
                   bool decided, bool commit);

  ShardedEngineConfig config_;
  std::vector<Shard> shards_;
  StandbySet standbys_;  // chain i replicates shard i
  std::unique_ptr<ShardRouter> router_;
  TwoPcLog two_pc_log_;
  std::atomic<uint64_t> next_gtid_{1};

  mutable Mutex pending_mu_;
  std::map<uint64_t, PendingGlobalTxn> pending_ GUARDED_BY(pending_mu_);

  mutable Mutex crash_mu_;
  TwoPcCrash armed_crash_ GUARDED_BY(crash_mu_);

  obs::Counter* prepares_metric_ = nullptr;
  obs::Counter* commits_2pc_metric_ = nullptr;
  obs::Counter* aborts_2pc_metric_ = nullptr;
  obs::Counter* recoveries_metric_ = nullptr;

  bool created_ = false;
  bool loaded_ = false;
};

}  // namespace hattrick

#endif  // HATTRICK_SHARD_SHARDED_ENGINE_H_
