#include "probe.h"

#include <cstdio>
#include <utility>

#include "exec/batch.h"
#include "obs/metrics.h"

namespace wallbench {

using hattrick::AnalyticsSession;
using hattrick::Batch;
using hattrick::DataSource;
using hattrick::ExecContext;
using hattrick::HtapEngine;
using hattrick::IndexInfo;
using hattrick::Operator;
using hattrick::OperatorPtr;
using hattrick::Rid;
using hattrick::Row;
using hattrick::ScanSpec;
using hattrick::Status;
using hattrick::TableId;
using hattrick::TxnBody;
using hattrick::TxnContext;
using hattrick::TxnOutcome;
using hattrick::Value;
using hattrick::WorkMeter;

namespace {

/// Closes a span when it goes out of scope.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanKind kind) : log_(log), sid_(log->Open(kind)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { log_->Close(sid_); }

 private:
  SpanLog* log_;
  uint64_t sid_;
};

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Times the calls a transaction body makes into its TxnContext. The
/// Buffer* calls only append to the transaction's write set and are
/// forwarded untimed.
class ProbeTxnContext final : public TxnContext {
 public:
  ProbeTxnContext(TxnContext* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  hattrick::Ts snapshot() const override { return inner_->snapshot(); }
  hattrick::IsolationLevel isolation() const override {
    return inner_->isolation();
  }

  Status Read(TableId table_id, Rid rid, Row* out,
              WorkMeter* meter) override {
    SpanScope span(log_, SpanKind::kTxnRead);
    return inner_->Read(table_id, rid, out, meter);
  }

  size_t IndexLookup(const IndexInfo& index,
                     const std::vector<Value>& key_values,
                     const std::function<bool(Rid, const Row&)>& visitor,
                     WorkMeter* meter) override {
    SpanScope span(log_, SpanKind::kTxnIndexLookup);
    return inner_->IndexLookup(index, key_values, visitor, meter);
  }

  Rid BufferInsert(TableId table_id, Row row) override {
    return inner_->BufferInsert(table_id, std::move(row));
  }

  void BufferUpdate(TableId table_id, Rid rid, Row old_row,
                    Row new_row) override {
    inner_->BufferUpdate(table_id, rid, std::move(old_row),
                         std::move(new_row));
  }

  void BufferDelta(TableId table_id, Rid rid, uint32_t column,
                   Value increment) override {
    inner_->BufferDelta(table_id, rid, column, std::move(increment));
  }

  void ScanVisible(TableId table_id,
                   const std::function<bool(Rid, const Row&)>& visitor,
                   WorkMeter* meter) override {
    SpanScope span(log_, SpanKind::kTxnScanVisible);
    inner_->ScanVisible(table_id, visitor, meter);
  }

 private:
  TxnContext* inner_;
  SpanLog* log_;
};

/// Times every call into one scan operator. A scan is a leaf of the
/// plan, so its span time is its self time. Also counts the storage work
/// it metered (row versions read plus column cells evaluated).
class ProbeScanOp final : public Operator {
 public:
  ProbeScanOp(OperatorPtr inner, SpanLog* log, ProbeCounts* counts)
      : inner_(std::move(inner)), log_(log), counts_(counts) {}

  void Open(ExecContext* ctx) override {
    Timed(ctx, [&] {
      inner_->Open(ctx);
      return true;
    });
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return Timed(ctx, [&] { return inner_->Next(ctx, out); });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return Timed(ctx, [&] { return inner_->NextBatch(ctx, out); });
  }

 private:
  static uint64_t Examined(const ExecContext* ctx) {
    if (ctx->meter == nullptr) return 0;
    return ctx->meter->rows_read + ctx->meter->column_values;
  }

  template <typename Fn>
  bool Timed(ExecContext* ctx, Fn&& fn) {
    const uint64_t before = Examined(ctx);
    bool ok;
    {
      SpanScope span(log_, SpanKind::kScan);
      ok = fn();
    }
    counts_->scan_examined.fetch_add(Examined(ctx) - before,
                                     std::memory_order_relaxed);
    return ok;
  }

  OperatorPtr inner_;
  SpanLog* log_;
  ProbeCounts* counts_;
};

}  // namespace

std::string ScanFingerprint(const ScanSpec& spec) {
  std::string out = spec.table + "|p";
  for (size_t c : spec.projection) out += "," + std::to_string(c);
  out += "|r";
  char buf[96];
  for (const hattrick::NumRange& r : spec.ranges) {
    std::snprintf(buf, sizeof(buf), ",%zu:%.17g:%.17g", r.column, r.lo, r.hi);
    out += buf;
  }
  out += "|s";
  for (const hattrick::StrIn& s : spec.str_in) {
    out += "," + std::to_string(s.column) + ":";
    for (const std::string& v : s.values) out += v + "/";
  }
  out += "|i" + spec.index_hint + ";";
  return out;
}

/// Shared by a probed session's DataSource and its guard: the source
/// appends the plan's scan fingerprints, the guard's release ends the
/// query span. (Drivers may destroy the source before the guard.)
struct ProbeEngine::QueryState {
  uint64_t sid = 0;
  std::string fingerprint;
};

namespace {

/// Session source of a probed query: records each scan request and, with
/// a log, wraps the returned operator in a ProbeScanOp.
class ProbeDataSource final : public DataSource {
 public:
  ProbeDataSource(std::unique_ptr<DataSource> inner,
                  std::shared_ptr<std::string> fingerprint, SpanLog* log,
                  ProbeCounts* counts)
      : inner_(std::move(inner)),
        fingerprint_(std::move(fingerprint)),
        log_(log),
        counts_(counts) {}

  OperatorPtr Scan(const ScanSpec& spec) const override {
    if (fingerprint_ != nullptr) *fingerprint_ += ScanFingerprint(spec);
    if (log_ == nullptr) return inner_->Scan(spec);
    return std::make_unique<ProbeScanOp>(inner_->Scan(spec), log_, counts_);
  }

  size_t ScanExtent(const std::string& table) const override {
    return inner_->ScanExtent(table);
  }

  std::vector<const DataSource*> ShardViews() const override {
    return inner_->ShardViews();
  }

 private:
  std::unique_ptr<DataSource> inner_;
  std::shared_ptr<std::string> fingerprint_;
  SpanLog* log_;
  ProbeCounts* counts_;
};

}  // namespace

bool QueryCatalog::Build(HtapEngine* engine, uint32_t num_freshness_tables,
                         size_t batch_rows) {
  by_fingerprint_.clear();
  for (int qid = 0; qid < hattrick::kNumQueries; ++qid) {
    WorkMeter meter;
    AnalyticsSession session = engine->BeginAnalytics(&meter);
    auto fingerprint = std::make_shared<std::string>();
    ProbeDataSource source(std::move(session.source), fingerprint, nullptr,
                           nullptr);
    ExecContext ctx;
    ctx.meter = &meter;
    ctx.batch_rows = batch_rows;
    ctx.session_pin = session.guard;
    const hattrick::QueryResult result =
        hattrick::RunQuery(qid, source, num_freshness_tables, &ctx);
    rows_[qid] = result.rows;
    if (!by_fingerprint_.emplace(*fingerprint, qid).second) return false;
  }
  return true;
}

int QueryCatalog::Lookup(const std::string& fingerprint) const {
  auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? -1 : it->second;
}

ProbeEngine::ProbeEngine(HtapEngine* inner, SpanLog* log,
                         const QueryCatalog* catalog)
    : inner_(inner), log_(log), catalog_(catalog) {}

Status ProbeEngine::Reset() {
  SpanScope span(log_, SpanKind::kReset);
  return inner_->Reset();
}

TxnOutcome ProbeEngine::ExecuteTransaction(const TxnBody& body,
                                           uint32_t client_id,
                                           uint64_t txn_num,
                                           WorkMeter* meter) {
  counts_.txn_issued.fetch_add(1, std::memory_order_relaxed);
  const uint64_t wal_before = meter != nullptr ? meter->wal_bytes : 0;
  TxnOutcome outcome;
  {
    SpanScope span(log_, SpanKind::kTxn);
    if (log_->detailed()) {
      SpanLog* log = log_;
      const TxnBody probed = [&body, log](TxnContext* ctx, WorkMeter* m) {
        ProbeTxnContext probe(ctx, log);
        SpanScope attempt(log, SpanKind::kTxnBody);
        return body(&probe, m);
      };
      outcome = inner_->ExecuteTransaction(probed, client_id, txn_num, meter);
    } else {
      outcome = inner_->ExecuteTransaction(body, client_id, txn_num, meter);
    }
  }
  counts_.txn_attempts.fetch_add(static_cast<uint64_t>(outcome.attempts),
                                 std::memory_order_relaxed);
  counts_.txn_backoff_ns.fetch_add(
      static_cast<uint64_t>(outcome.backoff_s * 1e9),
      std::memory_order_relaxed);
  if (meter != nullptr) {
    counts_.txn_wal_bytes.fetch_add(meter->wal_bytes - wal_before,
                                    std::memory_order_relaxed);
  }
  if (outcome.status.ok()) {
    counts_.txn_committed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counts_.txn_failed.fetch_add(1, std::memory_order_relaxed);
  }
  return outcome;
}

AnalyticsSession ProbeEngine::BeginAnalytics(WorkMeter* meter) {
  counts_.query_issued.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<QueryState>();
  state->sid = log_->Open(SpanKind::kQuery);
  AnalyticsSession session;
  if (log_->detailed()) {
    {
      SpanScope span(log_, SpanKind::kBeginAnalytics);
      session = inner_->BeginAnalytics(meter);
    }
    SampleDepths();
  } else {
    session = inner_->BeginAnalytics(meter);
  }
  if (log_->detailed() || catalog_ != nullptr) {
    // The source appends into the state's fingerprint through an aliasing
    // pointer, so the state lives as long as either the source or guard.
    // Only a detailed log times the scans themselves.
    std::shared_ptr<std::string> fingerprint(state, &state->fingerprint);
    session.source = std::make_unique<ProbeDataSource>(
        std::move(session.source), std::move(fingerprint),
        log_->detailed() ? log_ : nullptr, &counts_);
  }
  // The query ends when the driver releases the session guard; the
  // engine's own guard (if any) is released first.
  struct Holder {
    std::shared_ptr<void> inner;
  };
  session.guard = std::shared_ptr<void>(
      new Holder{std::move(session.guard)}, [this, state](Holder* holder) {
        delete holder;
        OnQueryEnd(*state);
      });
  return session;
}

void ProbeEngine::OnQueryEnd(const QueryState& state) {
  const int64_t ns = log_->Close(state.sid);
  counts_.query_completed.fetch_add(1, std::memory_order_relaxed);
  if (catalog_ == nullptr) return;
  const int qid = catalog_->Lookup(state.fingerprint);
  if (qid < 0) {
    counts_.query_unidentified.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  hattrick::MutexLock lock(&query_mu_);
  query_ms_[qid].Add(static_cast<double>(ns) * 1e-6);
}

std::array<hattrick::Sampler, hattrick::kNumQueries> ProbeEngine::QueryMillis()
    const {
  hattrick::MutexLock lock(&query_mu_);
  return query_ms_;
}

bool ProbeEngine::MaintenanceStep(WorkMeter* meter) {
  counts_.maint_calls.fetch_add(1, std::memory_order_relaxed);
  if (log_->detailed()) {
    // The threaded driver polls every 50us; a fold/replay backlog sample
    // per millisecond is enough to catch the peak.
    const int64_t now = log_->NowNs();
    if (now - last_depth_sample_ns_.load(std::memory_order_relaxed) >
        1000000) {
      last_depth_sample_ns_.store(now, std::memory_order_relaxed);
      AtomicMax(&counts_.backlog_max, inner_->MaintenancePending());
      SampleDepths();
    }
  }
  const uint64_t records_before = meter != nullptr ? meter->wal_records : 0;
  const int64_t begin = log_->NowNs();
  const bool useful = inner_->MaintenanceStep(meter);
  const int64_t end = log_->NowNs();
  counts_.maint_busy_ns.fetch_add(static_cast<uint64_t>(end - begin),
                                  std::memory_order_relaxed);
  if (useful) {
    counts_.maint_useful.fetch_add(1, std::memory_order_relaxed);
    counts_.maint_useful_ns.fetch_add(static_cast<uint64_t>(end - begin),
                                      std::memory_order_relaxed);
    if (meter != nullptr) {
      counts_.maint_wal_records.fetch_add(meter->wal_records - records_before,
                                          std::memory_order_relaxed);
    }
    log_->AddFinished(SpanKind::kMaintenance, begin, end);
  }
  return useful;
}

void ProbeEngine::SampleDepths() {
  hattrick::obs::Gauge* gauge = depth_gauge_.load(std::memory_order_acquire);
  if (gauge == nullptr) return;
  AtomicMax(&counts_.version_depth_max,
            static_cast<uint64_t>(gauge->Value()));
}

void ProbeEngine::OnObservabilityChanged() {
  inner_->SetObservability(obs_);
  hattrick::obs::Gauge* gauge =
      obs_.metrics != nullptr && log_->detailed()
          ? obs_.metrics->GetGauge(hattrick::obs::kStoreVersionDepth)
          : nullptr;
  depth_gauge_.store(gauge, std::memory_order_release);
}

}  // namespace wallbench
