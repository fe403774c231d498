#ifndef HATTRICK_ENGINE_HYBRID_ENGINE_H_
#define HATTRICK_ENGINE_HYBRID_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "engine/session_pin.h"
#include "engine/shared_engine.h"
#include "storage/column_table.h"

namespace hattrick {

/// Hybrid design (Section 2.2): one engine and shared compute, but two
/// copies of the data — a row store (a SharedEngine) executing
/// transactions and a columnar copy serving analytics. Committed writes
/// queue as a delta; in eager mode, opening an analytical session first
/// merges the outstanding delta into the column store ("every
/// analytical query ... has to fetch the changes from the transactional
/// log or the tail of the T copy"), so the freshness score is
/// identically zero and merge cost lands on the analytical side. In bitmap mode (see MergeMode) commits append
/// CSN-stamped versions instead and sessions scan through per-session
/// visibility snapshots, killing the merge-before-read stall while
/// keeping freshness 0 and bit-identical query results.
class HybridEngine final : public HtapEngine {
 public:
  explicit HybridEngine(HybridEngineConfig config = {});

  const std::string& name() const override { return config_.name; }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  /// Bitmap mode: folds versions down once the delta depth crosses the
  /// watermark (the driver schedules this on A-side resources). Eager
  /// mode has no background maintenance and always returns false.
  bool MaintenanceStep(WorkMeter* meter) override;
  /// Bitmap mode: the unfolded version count once it reaches the
  /// watermark, else 0 (below the watermark there is nothing the pump
  /// should wake for — sessions read through their snapshots).
  size_t MaintenancePending() const override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override { return primary_.primary_catalog(); }
  TxnManager* txn_manager() override { return primary_.txn_manager(); }

  /// Forces full visibility of the committed state into the columnar
  /// base: merges the delta queue (eager) or folds every version
  /// (bitmap). For tests and benchmark quiesce points; not on the query
  /// path. Must not be called while this thread holds an open session
  /// guard (the fold excludes running sessions).
  void FoldAll(WorkMeter* meter);

  MergeMode merge_mode() const { return config_.merge_mode; }

  /// Committed-but-unmerged delta work: queued records (eager) or
  /// unfolded versions (bitmap). After BeginAnalytics (eager) or
  /// FoldAll (both modes) this is zero.
  size_t PendingDelta() const EXCLUDES(delta_mutex_);

  /// The columnar copy of `table` (tests/benchmarks).
  const ColumnTable* column_table(const std::string& table) const;

  /// The row copy's post-load state (a sharded node's standby resets
  /// from it).
  const Catalog& post_load_rows() const { return primary_.post_load(); }

 protected:
  void OnObservabilityChanged() override;

 private:
  /// WalSink feeding the delta queue; separate object so the engine's
  /// public surface stays an HtapEngine.
  class DeltaFeed final : public WalSink {
   public:
    explicit DeltaFeed(HybridEngine* engine) : engine_(engine) {}
    void OnCommit(const WalRecord& record) override;

   private:
    HybridEngine* engine_;
  };

  void MergeDelta(WorkMeter* meter) EXCLUDES(merge_order_, delta_mutex_);

  /// Bitmap mode: one whole fold pass — folds every version with
  /// csn <= the newest committed timestamp into the columnar base,
  /// under the session pin latch (base payloads reallocate). Returns
  /// ops folded.
  size_t FoldPass(WorkMeter* meter) EXCLUDES(merge_order_);

  /// Unfolded versions across all column tables (bitmap mode).
  size_t TotalPendingVersions() const;

  /// The last committed timestamp of the row copy.
  Ts last_committed();

  HybridEngineConfig config_;
  SharedEngine primary_;  // the row copy
  std::vector<std::unique_ptr<ColumnTable>> columns_;  // by TableId
  /// Post-load columnar state for Reset(). TruncateTo is insufficient
  /// because merged *updates* mutate loaded rows in place.
  std::vector<std::unique_ptr<ColumnTable>> column_snapshots_;
  DeltaFeed feed_{this};
  mutable Mutex delta_mutex_;
  std::deque<WalRecord> delta_ GUARDED_BY(delta_mutex_);
  /// Orders whole merge passes: without it two concurrent BeginAnalytics
  /// calls could drain delta batches and then apply them out of commit
  /// order (inserts must land at their row-store rids). Acquired before
  /// delta_mutex_ and before the merge latch's internal mutex.
  Mutex merge_order_ ACQUIRED_BEFORE(delta_mutex_);
  /// Pins running analytical sessions (and their morsel workers) against
  /// delta merges and resets. A pin latch rather than a shared_mutex
  /// because the session guard may be released from a worker thread (see
  /// engine/session_pin.h and AnalyticsSession::guard).
  SessionPinLatch merge_latch_;
  obs::Counter* merge_passes_metric_ = nullptr;
  obs::Counter* merge_rows_metric_ = nullptr;
  obs::Counter* merge_records_metric_ = nullptr;
  obs::Counter* fold_passes_metric_ = nullptr;
  obs::Counter* fold_rows_metric_ = nullptr;
};

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_HYBRID_ENGINE_H_
