#include "span_log.h"

#include <algorithm>
#include <cmath>

namespace wallbench {

namespace {

std::atomic<uint64_t> g_next_generation{1};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kTxnBody:
      return "txn.body";
    case SpanKind::kTxnRead:
      return "txn.read";
    case SpanKind::kTxnIndexLookup:
      return "txn.index_lookup";
    case SpanKind::kTxnScanVisible:
      return "txn.scan_visible";
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kBeginAnalytics:
      return "engine.begin_analytics";
    case SpanKind::kScan:
      return "storage.scan";
    case SpanKind::kMaintenance:
      return "engine.maintenance";
    case SpanKind::kReset:
      return "engine.reset";
  }
  return "?";
}

void SpanStat::Merge(const SpanStat& other) {
  count += other.count;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  dur_us.insert(dur_us.end(), other.dur_us.begin(), other.dur_us.end());
  self_us.insert(self_us.end(), other.self_us.begin(), other.self_us.end());
}

SpanLog::SpanLog(bool detailed, size_t max_records_per_thread)
    : detailed_(detailed),
      max_records_(max_records_per_thread),
      generation_(g_next_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadLog* SpanLog::Local() {
  // One ThreadLog per (thread, SpanLog); the generation tells a thread
  // that its cached pointer belongs to an earlier log.
  thread_local uint64_t tls_generation = 0;
  thread_local ThreadLog* tls_log = nullptr;
  if (tls_generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    tls_log = log.get();
    tls_generation = generation_;
    hattrick::MutexLock lock(&mu_);
    log->index = static_cast<uint32_t>(threads_.size());
    threads_.push_back(std::move(log));
  }
  return tls_log;
}

uint64_t SpanLog::Open(SpanKind kind) {
  ThreadLog* t = Local();
  ThreadLog::Frame frame;
  frame.sid = next_sid_.fetch_add(1, std::memory_order_relaxed);
  frame.kind = kind;
  if (t->stack.empty()) {
    frame.request = next_request_.fetch_add(1, std::memory_order_relaxed);
  } else {
    frame.parent = t->stack.back().sid;
    frame.request = t->stack.back().request;
  }
  frame.begin_ns = NowNs();
  t->stack.push_back(frame);
  return frame.sid;
}

int64_t SpanLog::Close(uint64_t sid) {
  const int64_t now = NowNs();
  ThreadLog* t = Local();
  auto it = std::find_if(t->stack.rbegin(), t->stack.rend(),
                         [sid](const ThreadLog::Frame& f) {
                           return f.sid == sid;
                         });
  if (it == t->stack.rend()) {
    // Closed on another thread than it was opened on.
    ++t->nesting_violations;
    return 0;
  }
  if (it != t->stack.rbegin()) ++t->nesting_violations;
  const ThreadLog::Frame frame = *it;
  t->stack.erase(std::next(it).base());
  Finish(t, frame, now);
  return now - frame.begin_ns;
}

void SpanLog::AddFinished(SpanKind kind, int64_t begin_ns, int64_t end_ns) {
  ThreadLog* t = Local();
  ThreadLog::Frame frame;
  frame.sid = next_sid_.fetch_add(1, std::memory_order_relaxed);
  frame.kind = kind;
  frame.begin_ns = begin_ns;
  if (t->stack.empty()) {
    frame.request = next_request_.fetch_add(1, std::memory_order_relaxed);
  } else {
    frame.parent = t->stack.back().sid;
    frame.request = t->stack.back().request;
  }
  Finish(t, frame, end_ns);
}

void SpanLog::Finish(ThreadLog* t, const ThreadLog::Frame& frame,
                     int64_t end_ns) {
  const int64_t dur = end_ns - frame.begin_ns;
  const int64_t self = dur - frame.child_ns;
  SpanStat& stat = t->stats[static_cast<int>(frame.kind)];
  ++stat.count;
  stat.total_ns += dur;
  stat.self_ns += self;
  stat.dur_us.push_back(static_cast<float>(dur * 1e-3));
  stat.self_us.push_back(static_cast<float>(self * 1e-3));
  if (!t->stack.empty()) {
    t->stack.back().child_ns += dur;
  } else {
    t->top_level_ns += dur;
    if (t->first_ns < 0) t->first_ns = frame.begin_ns;
    t->last_ns = end_ns;
  }
  if (!detailed_) return;
  if (t->records.size() >= max_records_) {
    ++t->records_dropped;
    return;
  }
  SpanRecord record;
  record.sid = frame.sid;
  record.parent = frame.parent;
  record.request = frame.request;
  record.begin_ns = frame.begin_ns;
  record.end_ns = end_ns;
  record.kind = frame.kind;
  record.thread = t->index;
  t->records.push_back(record);
}

std::vector<const ThreadLog*> SpanLog::Threads() const {
  hattrick::MutexLock lock(&mu_);
  std::vector<const ThreadLog*> out;
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

SpanStat SpanLog::Merged(SpanKind kind) const {
  SpanStat out;
  for (const ThreadLog* t : Threads()) {
    out.Merge(t->stats[static_cast<int>(kind)]);
  }
  return out;
}

uint64_t SpanLog::NestingViolations() const {
  uint64_t n = 0;
  for (const ThreadLog* t : Threads()) n += t->nesting_violations;
  return n;
}

uint64_t SpanLog::RecordsKept() const {
  uint64_t n = 0;
  for (const ThreadLog* t : Threads()) n += t->records.size();
  return n;
}

uint64_t SpanLog::RecordsDropped() const {
  uint64_t n = 0;
  for (const ThreadLog* t : Threads()) n += t->records_dropped;
  return n;
}

uint64_t SpanLog::CountUncontainedChildren() const {
  std::vector<const SpanRecord*> all;
  for (const ThreadLog* t : Threads()) {
    for (const SpanRecord& r : t->records) all.push_back(&r);
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->sid < b->sid;
            });
  uint64_t bad = 0;
  for (const SpanRecord* child : all) {
    if (child->parent == 0) continue;
    auto it = std::lower_bound(all.begin(), all.end(), child->parent,
                               [](const SpanRecord* r, uint64_t sid) {
                                 return r->sid < sid;
                               });
    if (it == all.end() || (*it)->sid != child->parent) continue;  // dropped
    const SpanRecord* parent = *it;
    if (parent->begin_ns > child->begin_ns || parent->end_ns < child->end_ns) {
      ++bad;
    }
  }
  return bad;
}

void SpanLog::ExportTo(hattrick::obs::Tracer* tracer) const {
  for (const ThreadLog* t : Threads()) {
    tracer->SetTrackName(t->index, "thread " + std::to_string(t->index));
    for (const SpanRecord& r : t->records) {
      tracer->RecordSpan(SpanKindName(r.kind), "wallbench", r.thread,
                         static_cast<double>(r.begin_ns) * 1e-9,
                         static_cast<double>(r.end_ns) * 1e-9,
                         "\"sid\":" + std::to_string(r.sid) +
                             ",\"parent\":" + std::to_string(r.parent) +
                             ",\"request\":" + std::to_string(r.request));
    }
  }
}

double Percentile(std::vector<float> samples, double p) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace wallbench
