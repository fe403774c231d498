#ifndef HATTRICK_ENGINE_HTAP_ENGINE_H_
#define HATTRICK_ENGINE_HTAP_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/work_meter.h"
#include "engine/engine_facade.h"
#include "obs/observability.h"
#include "storage/catalog.h"
#include "txn/txn_manager.h"

namespace hattrick {

/// An HTAP database engine: transaction execution, analytics sessions,
/// the maintenance pump and the replication hooks callers use, plus the
/// administrative lifecycle (create / load / reset) and observability
/// wiring that only drivers and benchmark setup touch. Value types
/// exchanged across this interface live in engine/engine_facade.h.
///
/// Three single-node implementations mirror the paper's design
/// classification (Section 2.2), and compose the way the classes do:
///  - SharedEngine: single copy, single engine (PostgreSQL-like).
///  - IsolatedEngine: a SharedEngine primary plus log-shipped standbys
///    (engine/standby.h; PostgreSQL-SR-like).
///  - HybridEngine: a SharedEngine row copy for T plus a columnar copy
///    for A in one engine (System-X / TiDB-like).
/// The shard layer (src/shard/) composes N hybrid nodes, each with a
/// standby chain from the same standby module, behind this interface
/// for horizontal scale-out.
class HtapEngine {
 public:
  virtual ~HtapEngine() = default;

  virtual const std::string& name() const = 0;

  /// Creates tables and indexes. Must be called exactly once.
  virtual Status Create(const DatabaseSpec& spec) = 0;

  /// Loads initial rows into `table` (before FinishLoad; not replicated
  /// through the WAL, like a base backup).
  virtual Status BulkLoad(const std::string& table,
                          const std::vector<Row>& rows) = 0;

  /// Finalizes loading and seals the loaded rows as the state Reset()
  /// restores (Catalog::Seal: each loaded row keeps the version the load
  /// committed; no copy of the data is made).
  virtual Status FinishLoad() = 0;

  /// Executes `body` as one transaction with retry-on-abort at the
  /// engine's configured isolation level. Work is metered into `meter`.
  virtual TxnOutcome ExecuteTransaction(const TxnBody& body,
                                        uint32_t client_id, uint64_t txn_num,
                                        WorkMeter* meter) = 0;

  /// Opens an analytical snapshot. Merge/maintenance work performed to
  /// serve the query is metered into `meter`.
  virtual AnalyticsSession BeginAnalytics(WorkMeter* meter) = 0;

  /// Performs one unit of background maintenance (standby WAL replay,
  /// column folds); the driver pumps it on the analytical side's
  /// resources. Returns false if there is nothing to do.
  virtual bool MaintenanceStep(WorkMeter* meter) {
    (void)meter;
    return false;
  }

  /// Outstanding maintenance units (shipped-but-unreplayed records).
  /// Nonzero while MaintenanceStep returns false means the engine is
  /// backing off from a fault, not caught up — the driver should poll
  /// again later instead of parking the applier until the next commit.
  virtual size_t MaintenancePending() const { return 0; }

  /// True once the standby (if any) has replayed through `lsn`
  /// (resolves CommitWait::kReplicaApplied). Engines without a standby
  /// report "everything applied" (no replication lag).
  virtual bool IsApplied(uint64_t lsn) const {
    (void)lsn;
    return true;
  }

  /// Highest LSN replayed by the standby.
  virtual uint64_t applied_lsn() const { return UINT64_MAX; }

  /// The wait a write commit at `lsn` that emitted `wal_bytes` bytes
  /// must resolve before the client proceeds (replication mode, standby
  /// backpressure, injected ship-delay faults). Engines without
  /// replication return the default no-wait. The shard layer folds the
  /// per-participant waits of a distributed commit through this hook.
  virtual CommitWait CommitWaitFor(uint64_t lsn, uint64_t wal_bytes) {
    (void)lsn;
    (void)wal_bytes;
    return CommitWait{};
  }

  /// Garbage-collects row versions that no possible snapshot can see
  /// (older than the newest committed state). Callers must quiesce
  /// in-flight snapshots first. Returns versions dropped.
  virtual size_t Vacuum() { return 0; }

  /// Restores the state sealed by FinishLoad() in place (benchmark reset
  /// between runs, Section 6.1: "Before each benchmark run we reset the
  /// data to their initial state"): every row table rewinds to its load
  /// versions and indexes and columnar copies are rebuilt from them.
  /// Callers quiesce transactions and sessions first.
  virtual Status Reset() = 0;

  /// Primary catalog (transactions resolve indexes/tables through it).
  /// Sharded engines expose shard 0's catalog — table ids and index
  /// names are identical on every shard by construction.
  virtual Catalog* primary_catalog() = 0;

  /// The primary's transaction manager (shard 0's for sharded engines).
  virtual TxnManager* txn_manager() = 0;

  /// Attaches (or, with a default-constructed bundle, detaches) run
  /// observability. Wires the txn manager's metrics, the B+-tree split
  /// counters, and the engine-specific hooks (replication gauges, merge
  /// counters/spans, vacuum spans) via OnObservabilityChanged(). Call
  /// after Create(); a driver attaches before a run and detaches after
  /// its final registry snapshot.
  void SetObservability(const obs::Observability& observability) {
    obs_ = observability;
    TxnManager* txns = txn_manager();
    if (txns != nullptr) txns->SetMetrics(obs_.metrics);
    Catalog* catalog = primary_catalog();
    if (catalog != nullptr) {
      obs::Counter* splits =
          obs_.metrics == nullptr
              ? nullptr
              : obs_.metrics->GetCounter(obs::kStoreBtreeSplits);
      for (IndexInfo* index : catalog->AllIndexes()) {
        index->tree->set_split_counter(splits);
      }
    }
    OnObservabilityChanged();
  }

  const obs::Observability& observability() const { return obs_; }

 protected:
  /// Engine-specific observability wiring (replication probes, merge
  /// counters, ...). Called from SetObservability; obs_ is already set.
  virtual void OnObservabilityChanged() {}

  obs::Observability obs_;
};

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_HTAP_ENGINE_H_
