#ifndef HATTRICK_ENGINE_STANDBY_H_
#define HATTRICK_ENGINE_STANDBY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/work_meter.h"
#include "engine/engine_facade.h"
#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "replication/replica.h"
#include "replication/wal_stream.h"
#include "storage/catalog.h"
#include "txn/txn_manager.h"

namespace hattrick {

/// Backpressure: once a standby's unacknowledged retention buffer
/// exceeds this many records, write commits are throttled (see
/// CommitWait::throttle_s) so a degraded standby bounds the backlog
/// instead of letting the primary run away from it.
inline constexpr size_t kMaxBacklogRecords = 4096;
/// Per-excess-record commit stall, and its cap per commit.
inline constexpr double kBackpressureStallSeconds = 20e-6;
inline constexpr double kBackpressureStallCapSeconds = 5e-3;

/// One log-shipped standby: a row-store catalog (indexes included) that
/// a Replica replays a WalStream into, plus the chain's fault injector.
struct StandbyChain {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<FaultInjector> injector;  // null when faults disabled
  std::unique_ptr<WalStream> stream;
  std::unique_ptr<Replica> replica;
};

/// The standby side of a replicated deployment: N chains and everything
/// an engine does with them. The isolated design feeds every chain from
/// one primary (PostgreSQL-SR standbys); the sharded design gives each
/// shard node one chain (a TiFlash-style learner tail).
///
/// Lifecycle mirrors HtapEngine's: Create, Attach (install the WAL sink
/// on a primary's TxnManager), BulkLoad per chain, FinishLoad, then
/// Reset/Vacuum between runs. The maintenance pump (Step) advances the
/// furthest-behind healthy chain that has records pending and reports
/// the repl.* counters and trace instants.
class StandbySet {
 public:
  /// `count` chains; with `fault.enabled`, chain i's injector seed mixes
  /// in i, so chains fail independently while each schedule stays
  /// seed-deterministic.
  StandbySet(size_t count, const FaultConfig& fault);
  ~StandbySet();

  StandbySet(const StandbySet&) = delete;
  StandbySet& operator=(const StandbySet&) = delete;

  /// Builds every chain's catalog, stream, replica and injector.
  void Create(const DatabaseSpec& spec);

  /// Installs a WAL sink on `manager` that forwards each committed
  /// record to the manager's current sink (if any) and then ships it to
  /// chains [first, first + count), in commit order.
  void Attach(TxnManager* manager, size_t first, size_t count);

  /// Base backup: loads `rows` into chain `chain`'s catalog outside the
  /// WAL channel.
  Status BulkLoad(size_t chain, const std::string& table,
                  const std::vector<Row>& rows);

  /// Seals every chain's catalog at its loaded state and starts every
  /// replica's timestamp domain.
  void FinishLoad();

  /// Benchmark reset: every chain's catalog rewinds to its sealed load
  /// state, its stream is cleared and its replica rewound.
  void Reset();

  /// Garbage-collects standby versions no replica snapshot can see.
  size_t Vacuum();

  /// One maintenance unit: steps the furthest-behind healthy chain with
  /// records pending. Returns false if there was nothing to do, or the
  /// chain is backing off or has failed.
  bool Step(WorkMeter* meter);

  /// Records shipped but not yet replayed on the furthest-behind chain.
  size_t Lag() const;
  /// Records pending across healthy chains (an errored applier never
  /// makes progress, so its lag would have the driver poll forever).
  size_t Pending() const;
  /// Deepest unacknowledged retention buffer — the backpressure signal.
  size_t MaxRetained() const;
  /// Lowest replayed LSN across chains (UINT64_MAX with no chains).
  uint64_t AppliedLsn() const;

  /// Commit stall for a write commit at `lsn`: backpressure once the
  /// deepest retention buffer exceeds kMaxBacklogRecords, or an injected
  /// ship delay, whichever is larger.
  double Throttle(uint64_t lsn);

  /// Wires the repl.* counters, gauge probes and trace instants, and the
  /// standby indexes' split counter (detaches with a null registry).
  void SetObservability(const obs::Observability& observability);

  size_t size() const { return chains_.size(); }
  StandbyChain& chain(size_t i) { return chains_[i]; }

 private:
  class Sink;

  FaultConfig fault_;
  std::vector<StandbyChain> chains_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::atomic<double> throttle_seconds_total_{0};
  obs::Observability obs_;
  obs::Counter* applied_records_metric_ = nullptr;
  obs::Counter* crash_recoveries_metric_ = nullptr;
};

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_STANDBY_H_
