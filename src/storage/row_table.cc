#include "storage/row_table.h"

#include <algorithm>
#include <cassert>

namespace hattrick {

namespace {

using mvcc::VersionChain;
using mvcc::VersionNode;
using mvcc::VersionStatus;

VersionNode* NewCommittedFull(const Row& row, Ts cts, bool tombstone) {
  auto* node = new VersionNode();
  node->tombstone = tombstone;
  node->payload = row;
  mvcc::Publish(node, cts);
  return node;
}

VersionNode* NewCommittedDelta(uint32_t column, const Value& increment,
                               Ts cts) {
  auto* node = new VersionNode();
  node->is_delta = true;
  node->delta_column = column;
  node->payload = Row{increment};
  mvcc::Publish(node, cts);
  return node;
}

}  // namespace

RowTable::RowTable(Schema schema) : schema_(std::move(schema)) {}

RowTable::~RowTable() {
  SharedMutexLock lock(&latch_);
  for (VersionChain& chain : slots_) {
    mvcc::FreeChain(chain.head.load(std::memory_order_acquire));
    chain.head.store(nullptr, std::memory_order_relaxed);
  }
}

Rid RowTable::Insert(const Row& row, Ts begin_ts, WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  const Rid rid = slots_.size();
  slots_.emplace_back();
  slots_.back().length.store(1, std::memory_order_relaxed);
  slots_.back().head.store(NewCommittedFull(row, begin_ts, false),
                           std::memory_order_release);
  if (meter != nullptr) ++meter->rows_written;
  return rid;
}

Status RowTable::AddVersion(Rid rid, const Row& row, Ts commit_ts,
                            WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::PushHead(&slots_[rid], NewCommittedFull(row, commit_ts, false));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

Status RowTable::AddDeltaVersion(Rid rid, uint32_t column,
                                 const Value& increment, Ts commit_ts,
                                 WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::PushHead(&slots_[rid], NewCommittedDelta(column, increment,
                                                 commit_ts));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

Status RowTable::MarkDeleted(Rid rid, Ts commit_ts, WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::PushHead(&slots_[rid], NewCommittedFull(Row{}, commit_ts, true));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

mvcc::VersionNode* RowTable::TryInstallFull(Rid rid, const Row& row,
                                            const void* owner, Ts base_ts,
                                            WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return nullptr;
  VersionChain& chain = slots_[rid];
  auto* node = new VersionNode();
  node->owner = owner;
  node->payload = row;
  for (;;) {
    VersionNode* head = chain.head.load(std::memory_order_acquire);
    // Validate the prefix above (and including) the newest committed
    // full version. Any committed work there with cts > base_ts was not
    // seen by the read this write is based on (first-updater-wins), and
    // any foreign pending version is a concurrent writer holding the
    // row's write lock.
    bool conflict = false;
    for (VersionNode* cur = head; cur != nullptr;
         cur = cur->prev.load(std::memory_order_acquire)) {
      const VersionStatus st = mvcc::StatusOf(cur);
      if (st == VersionStatus::kAborted) continue;
      if (st == VersionStatus::kPending) {
        if (cur->owner != owner) {
          conflict = true;
          break;
        }
        continue;  // own earlier pending write to the same row
      }
      if (cur->cts.load(std::memory_order_relaxed) > base_ts) {
        conflict = true;
        break;
      }
      if (st == VersionStatus::kCommitted) break;  // newest committed full
    }
    if (conflict) {
      delete node;
      if (meter != nullptr) ++meter->conflict_waits;
      return nullptr;
    }
    // The CAS is the linearization point: success means the validated
    // prefix is still the chain prefix.
    if (mvcc::TryPushHead(&chain, node, head)) {
      if (meter != nullptr) ++meter->rows_written;
      return node;
    }
  }
}

mvcc::VersionNode* RowTable::TryInstallDelta(Rid rid, uint32_t column,
                                             const Value& increment,
                                             const void* owner,
                                             WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return nullptr;
  VersionChain& chain = slots_[rid];
  auto* node = new VersionNode();
  node->owner = owner;
  node->is_delta = true;
  node->delta_column = column;
  node->payload = Row{increment};
  for (;;) {
    VersionNode* head = chain.head.load(std::memory_order_acquire);
    // Deltas commute with committed versions and with other deltas; the
    // only conflict is a foreign pending full version (its after-image
    // was computed without this increment, so letting both publish would
    // lose one of the writes — the full-vs-delta race).
    bool conflict = false;
    for (VersionNode* cur = head; cur != nullptr;
         cur = cur->prev.load(std::memory_order_acquire)) {
      const VersionStatus st = mvcc::StatusOf(cur);
      if (st == VersionStatus::kPending && !cur->is_delta &&
          cur->owner != owner) {
        conflict = true;
        break;
      }
      if (st == VersionStatus::kCommitted) break;
      // Aborted, committed-delta, pending-delta, own pending: keep going
      // until the newest committed full version bounds the window.
    }
    if (conflict) {
      delete node;
      if (meter != nullptr) ++meter->conflict_waits;
      return nullptr;
    }
    if (mvcc::TryPushHead(&chain, node, head)) {
      if (meter != nullptr) ++meter->rows_written;
      return node;
    }
  }
}

bool RowTable::ValidateRead(Rid rid, Ts observed_full_cts,
                            const void* owner) const {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return false;
  for (const VersionNode* node =
           slots_[rid].head.load(std::memory_order_acquire);
       node != nullptr; node = node->prev.load(std::memory_order_acquire)) {
    const VersionStatus st = mvcc::StatusOf(node);
    if (st == VersionStatus::kPending) {
      // A foreign in-flight full write may commit with a timestamp below
      // ours; conservatively treat it as a conflict (deltas commute and
      // are exempt). Our own pending writes are fine.
      if (!node->is_delta && node->owner != owner) return false;
      continue;
    }
    if (st == VersionStatus::kCommitted) {
      return node->cts.load(std::memory_order_relaxed) == observed_full_cts;
    }
    // A memo tops a committed suffix whose only full version is F: no
    // pending node below, and F is the newest committed full version.
    if (const mvcc::FoldMemo* memo = mvcc::MemoOf(node)) {
      return memo->full_cts == observed_full_cts;
    }
  }
  return observed_full_cts == 0;
}

bool RowTable::FoldAt(Rid rid, Ts snapshot, Row* out,
                      mvcc::FoldObservation* obs, WorkMeter* meter) const {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return false;
  return mvcc::FoldVisible(slots_[rid].head.load(std::memory_order_acquire),
                           snapshot, out, obs, meter);
}

bool RowTable::Read(Rid rid, Ts snapshot, Row* out, WorkMeter* meter) const {
  return FoldAt(rid, snapshot, out, nullptr, meter);
}

bool RowTable::ReadObserved(Rid rid, Ts snapshot, Row* out,
                            mvcc::FoldObservation* obs,
                            WorkMeter* meter) const {
  return FoldAt(rid, snapshot, out, obs, meter);
}

bool RowTable::ReadLatest(Rid rid, Row* out, WorkMeter* meter) const {
  return FoldAt(rid, kMaxTs, out, nullptr, meter);
}

bool RowTable::ReadLatestObserved(Rid rid, Row* out,
                                  mvcc::FoldObservation* obs,
                                  WorkMeter* meter) const {
  return FoldAt(rid, kMaxTs, out, obs, meter);
}

Ts RowTable::LatestVersionTs(Rid rid) const {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return 0;
  return mvcc::NewestCommittedFullCts(
      slots_[rid].head.load(std::memory_order_acquire));
}

void RowTable::Scan(Ts snapshot,
                    const std::function<bool(Rid, const Row&)>& visitor,
                    WorkMeter* meter) const {
  ScanRange(snapshot, 0, kMaxTs, visitor, meter);
}

void RowTable::ScanRange(Ts snapshot, Rid begin, Rid end,
                         const std::function<bool(Rid, const Row&)>& visitor,
                         WorkMeter* meter) const {
  SharedReaderLock lock(&latch_);
  end = std::min<Rid>(end, slots_.size());
  Row folded;  // written only for rows with deltas to fold
  for (Rid rid = begin; rid < end; ++rid) {
    const VersionChain& chain = slots_[rid];
    const VersionNode* head = chain.head.load(std::memory_order_acquire);
    // A heap scan reads every version physically present in the slot
    // (dead-tuple bloat, the PostgreSQL behaviour Vacuum exists to fix);
    // meter the whole chain, not just the hops to the visible version.
    if (meter != nullptr) {
      meter->version_hops += chain.length.load(std::memory_order_relaxed);
    }
    // Zero-copy: a delta-free visible version reaches the visitor as a
    // reference into its node, kept alive by `lock` until the visit ends.
    const Row* row =
        mvcc::ResolveVisible(head, snapshot, &folded, nullptr, nullptr);
    if (row != nullptr) {
      if (meter != nullptr) ++meter->rows_read;
      if (!visitor(rid, *row)) return;
    }
  }
}

size_t RowTable::NumSlots() const {
  SharedReaderLock lock(&latch_);
  return slots_.size();
}

size_t RowTable::NumVersions() const {
  SharedReaderLock lock(&latch_);
  size_t n = 0;
  for (const VersionChain& chain : slots_) {
    n += chain.length.load(std::memory_order_relaxed);
  }
  return n;
}

size_t RowTable::Vacuum(Ts horizon) {
  // Safety. Vacuum is an ordinary exclusive section: every chain reader
  // and installer holds latch_ shared, so none can be between a chain
  // load and its last use of a node here, and unlinked nodes (with their
  // fold memos) are deleted at once with plain stores. Publish and
  // Withdraw run outside the latch, but they only touch pending nodes,
  // which Vacuum never frees, and an aborter never touches a node after
  // Withdraw; a node read here as pending is kept, whatever its status
  // becomes during the pass. The unlink rule (aborted nodes, and
  // committed nodes below the newest committed full version at or under
  // the horizon) is the one FoldMemo's `hops` argument relies on (see
  // txn/mvcc.h), with one exception: a sealed slot's tail is its load
  // version, which Rewind restores, so it is never unlinked.
  SharedMutexLock lock(&latch_);
  size_t unlinked = 0;
  for (Rid rid = 0; rid < slots_.size(); ++rid) {
    VersionChain& chain = slots_[rid];
    const bool sealed = rid < sealed_slots_;
    std::atomic<VersionNode*>* link = &chain.head;
    bool superseded = false;
    size_t dropped = 0;
    VersionNode* node = link->load(std::memory_order_acquire);
    while (node != nullptr) {
      const VersionStatus st = mvcc::StatusOf(node);
      VersionNode* older = node->prev.load(std::memory_order_relaxed);
      const bool load_version = sealed && older == nullptr;
      if (st == VersionStatus::kAborted ||
          (superseded && mvcc::IsCommitted(st) && !load_version)) {
        link->store(older, std::memory_order_relaxed);
        delete node;
        ++dropped;
      } else {
        if (st == VersionStatus::kCommitted &&
            node->cts.load(std::memory_order_relaxed) <= horizon) {
          // Newest committed full version at or below the horizon: every
          // snapshot >= horizon resolves here or above, so every
          // committed node below is unreachable.
          superseded = true;
        }
        link = &node->prev;
      }
      node = older;
    }
    chain.length.fetch_sub(dropped, std::memory_order_relaxed);
    unlinked += dropped;
  }
  return unlinked;
}

void RowTable::Seal() {
  SharedMutexLock lock(&latch_);
  sealed_slots_ = slots_.size();
}

void RowTable::Rewind() {
  // An ordinary exclusive section, like Vacuum: no reader or installer
  // can hold a node of this table, so the versions above each load
  // version (and the fold memos on them) are deleted at once.
  SharedMutexLock lock(&latch_);
  while (slots_.size() > sealed_slots_) {
    mvcc::FreeChain(slots_.back().head.load(std::memory_order_acquire));
    slots_.pop_back();
  }
  for (VersionChain& chain : slots_) {
    VersionNode* node = chain.head.load(std::memory_order_acquire);
    for (VersionNode* older = node->prev.load(std::memory_order_relaxed);
         older != nullptr;
         older = node->prev.load(std::memory_order_relaxed)) {
      delete node;
      node = older;
    }
    chain.head.store(node, std::memory_order_relaxed);
    chain.length.store(1, std::memory_order_relaxed);
  }
}

}  // namespace hattrick
