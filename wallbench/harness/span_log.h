#ifndef WALLBENCH_HARNESS_SPAN_LOG_H_
#define WALLBENCH_HARNESS_SPAN_LOG_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace wallbench {

/// The layer boundaries the probes time. Each is a call into one public
/// surface of the program under test.
enum class SpanKind : uint8_t {
  kTxn,              // HtapEngine::ExecuteTransaction
  kTxnBody,          // one attempt of the TxnBody
  kTxnRead,          // TxnContext::Read
  kTxnIndexLookup,   // TxnContext::IndexLookup
  kTxnScanVisible,   // TxnContext::ScanVisible
  kQuery,            // BeginAnalytics .. release of the session guard
  kBeginAnalytics,   // HtapEngine::BeginAnalytics
  kScan,             // one call into a scan operator of the session source
  kMaintenance,      // HtapEngine::MaintenanceStep that did work
  kReset,            // HtapEngine::Reset
};
inline constexpr int kNumSpanKinds = 10;

const char* SpanKindName(SpanKind kind);

/// Per-kind totals of one thread (or merged over threads).
struct SpanStat {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;        // total minus time covered by child spans
  std::vector<float> dur_us;  // one sample per span
  std::vector<float> self_us;

  void Merge(const SpanStat& other);
};

/// One finished span as kept in memory until the run ends.
struct SpanRecord {
  uint64_t sid = 0;
  uint64_t parent = 0;  // 0 for a top-level span
  uint64_t request = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kTxn;
  uint32_t thread = 0;
};

/// Everything one thread recorded. Owned by the SpanLog, so it outlives
/// the thread (the threaded driver's clients exit before the run ends).
struct ThreadLog {
  struct Frame {
    uint64_t sid = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    SpanKind kind = SpanKind::kTxn;
    int64_t begin_ns = 0;
    int64_t child_ns = 0;
  };

  uint32_t index = 0;
  std::vector<Frame> stack;
  std::array<SpanStat, kNumSpanKinds> stats;
  std::vector<SpanRecord> records;
  uint64_t records_dropped = 0;
  /// Spans closed while a span opened after them was still open: a child
  /// that outlasted its parent.
  uint64_t nesting_violations = 0;
  /// Wall time covered by top-level spans, and the interval from the
  /// first top-level span's begin to the last one's end.
  int64_t top_level_ns = 0;
  int64_t first_ns = -1;
  int64_t last_ns = 0;
};

/// In-memory span recorder. Spans nest per thread like the calls they
/// time; a span's request id is its top-level ancestor's, so the spans of
/// one transaction or query share it. With `detailed` false only the
/// per-kind totals are kept (the untraced runs time transactions and
/// queries this way); with it true every span is also kept as a record,
/// up to `max_records_per_thread`, and exported through obs::Tracer.
class SpanLog {
 public:
  SpanLog(bool detailed, size_t max_records_per_thread);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool detailed() const { return detailed_; }

  /// Nanoseconds since the log was created (steady clock).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span on the calling thread and returns its id.
  uint64_t Open(SpanKind kind);

  /// Closes span `sid` on the calling thread; returns its duration in ns.
  int64_t Close(uint64_t sid);

  /// Records an already finished span [begin_ns, end_ns] under the
  /// calling thread's innermost open span (used where whether to keep a
  /// span is known only after the call, e.g. maintenance steps).
  void AddFinished(SpanKind kind, int64_t begin_ns, int64_t end_ns);

  /// Read-side accessors; call only once every recording thread is done.
  std::vector<const ThreadLog*> Threads() const;
  SpanStat Merged(SpanKind kind) const;
  uint64_t NestingViolations() const;
  uint64_t RecordsKept() const;
  uint64_t RecordsDropped() const;

  /// Checks every kept record against its kept parent: the parent must
  /// begin no later and end no earlier than the child. Returns the
  /// number of children that fall outside their parent.
  uint64_t CountUncontainedChildren() const;

  /// Replays the kept records into `tracer` (track = recording thread;
  /// args carry sid, parent and request id) for Chrome-trace export.
  void ExportTo(hattrick::obs::Tracer* tracer) const;

 private:
  ThreadLog* Local();
  void Finish(ThreadLog* t, const ThreadLog::Frame& frame, int64_t end_ns);

  const bool detailed_;
  const size_t max_records_;
  const uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_sid_{1};
  std::atomic<uint64_t> next_request_{1};
  mutable hattrick::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> threads_ GUARDED_BY(mu_);
};

/// Nearest-rank p-quantile (p in [0,1]) of `samples`; 0 when empty.
double Percentile(std::vector<float> samples, double p);

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_SPAN_LOG_H_
