#ifndef WALLBENCH_HARNESS_PROBE_H_
#define WALLBENCH_HARNESS_PROBE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/htap_engine.h"
#include "hattrick/queries.h"
#include "span_log.h"

namespace wallbench {

/// Maps the scans a query plan requests to the SSB query that requested
/// them. The drivers pick queries internally; the sequence of ScanSpecs a
/// plan asks its DataSource for identifies the query without relying on
/// how the driver draws it. Built once per engine by running each query.
class QueryCatalog {
 public:
  /// Runs all 13 queries once against `engine`'s current state and
  /// records each one's scan fingerprint and result row count. Returns
  /// false when two queries share a fingerprint.
  bool Build(hattrick::HtapEngine* engine, uint32_t num_freshness_tables,
             size_t batch_rows);

  /// Query id for `fingerprint`, or -1.
  int Lookup(const std::string& fingerprint) const;

  /// Result rows of query `qid` on the freshly loaded data.
  size_t rows(int qid) const { return rows_[qid]; }

 private:
  std::map<std::string, int> by_fingerprint_;
  std::array<size_t, hattrick::kNumQueries> rows_{};
};

/// One stable text rendering of a scan request.
std::string ScanFingerprint(const hattrick::ScanSpec& spec);

/// Whole-run operation counts of one ProbeEngine (relaxed atomics: the
/// threaded driver's clients update them concurrently).
struct ProbeCounts {
  std::atomic<uint64_t> txn_issued{0};
  std::atomic<uint64_t> txn_committed{0};
  std::atomic<uint64_t> txn_failed{0};     // failed after all retries
  std::atomic<uint64_t> txn_attempts{0};   // 1 + retries, summed
  std::atomic<uint64_t> txn_backoff_ns{0};
  std::atomic<uint64_t> txn_wal_bytes{0};
  std::atomic<uint64_t> query_issued{0};
  std::atomic<uint64_t> query_completed{0};
  std::atomic<uint64_t> query_unidentified{0};
  std::atomic<uint64_t> maint_calls{0};
  std::atomic<uint64_t> maint_useful{0};
  std::atomic<uint64_t> maint_busy_ns{0};
  std::atomic<uint64_t> maint_useful_ns{0};
  std::atomic<uint64_t> maint_wal_records{0};
  std::atomic<uint64_t> backlog_max{0};
  std::atomic<uint64_t> version_depth_max{0};
  std::atomic<uint64_t> scan_examined{0};  // row versions + column cells
};

/// A forwarding HtapEngine handed to the drivers in place of the engine
/// under test. Every call goes straight to `inner`; around it the probe
/// counts operations and times the call into `log`. With a detailed log
/// it also wraps each TxnBody's TxnContext and each analytics session's
/// DataSource and scan operators, so reads, index lookups and scans are
/// timed at their own boundaries. The wrappers never touch a WorkMeter or
/// alter control flow, so modeled results are unchanged.
class ProbeEngine final : public hattrick::HtapEngine {
 public:
  /// `catalog` (may be null) names each query by its scans. `inner`,
  /// `log` and `catalog` must outlive the probe and every session it
  /// returns.
  ProbeEngine(hattrick::HtapEngine* inner, SpanLog* log,
              const QueryCatalog* catalog);

  const std::string& name() const override { return inner_->name(); }
  hattrick::Status Create(const hattrick::DatabaseSpec& spec) override {
    return inner_->Create(spec);
  }
  hattrick::Status BulkLoad(const std::string& table,
                            const std::vector<hattrick::Row>& rows) override {
    return inner_->BulkLoad(table, rows);
  }
  hattrick::Status FinishLoad() override { return inner_->FinishLoad(); }
  size_t Vacuum() override { return inner_->Vacuum(); }
  hattrick::Status Reset() override;
  hattrick::Catalog* primary_catalog() override {
    return inner_->primary_catalog();
  }
  hattrick::TxnManager* txn_manager() override {
    return inner_->txn_manager();
  }

  hattrick::TxnOutcome ExecuteTransaction(const hattrick::TxnBody& body,
                                          uint32_t client_id,
                                          uint64_t txn_num,
                                          hattrick::WorkMeter* meter) override;
  hattrick::AnalyticsSession BeginAnalytics(
      hattrick::WorkMeter* meter) override;
  bool MaintenanceStep(hattrick::WorkMeter* meter) override;
  size_t MaintenancePending() const override {
    return inner_->MaintenancePending();
  }
  bool IsApplied(uint64_t lsn) const override {
    return inner_->IsApplied(lsn);
  }
  uint64_t applied_lsn() const override { return inner_->applied_lsn(); }
  hattrick::CommitWait CommitWaitFor(uint64_t lsn,
                                     uint64_t wal_bytes) override {
    return inner_->CommitWaitFor(lsn, wal_bytes);
  }

  const ProbeCounts& counts() const { return counts_; }

  /// Per-query wall times (ms) by query id; empty without a catalog.
  std::array<hattrick::Sampler, hattrick::kNumQueries> QueryMillis() const;

 protected:
  void OnObservabilityChanged() override;

 private:
  struct QueryState;
  void OnQueryEnd(const QueryState& state);
  void SampleDepths();

  hattrick::HtapEngine* inner_;
  SpanLog* log_;
  const QueryCatalog* catalog_;
  ProbeCounts counts_;
  std::atomic<hattrick::obs::Gauge*> depth_gauge_{nullptr};
  std::atomic<int64_t> last_depth_sample_ns_{0};
  mutable hattrick::Mutex query_mu_;
  std::array<hattrick::Sampler, hattrick::kNumQueries> query_ms_
      GUARDED_BY(query_mu_);
};

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_PROBE_H_
