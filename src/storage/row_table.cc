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

/// Deep-copies the committed suffix of a chain (newest first). Pending
/// and aborted nodes are dropped: a cloned pending node could never be
/// published by its (foreign) owner and would pin the chain forever.
VersionNode* CloneCommitted(const VersionNode* head) {
  VersionNode* new_head = nullptr;
  VersionNode* tail = nullptr;
  for (const VersionNode* node = head; node != nullptr;
       node = node->prev.load(std::memory_order_acquire)) {
    if (!mvcc::IsCommitted(mvcc::StatusOf(node))) continue;
    auto* clone = new VersionNode();
    clone->tombstone = node->tombstone;
    clone->is_delta = node->is_delta;
    clone->delta_column = node->delta_column;
    clone->payload = node->payload;
    clone->cts.store(node->cts.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    clone->status.store(node->status.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    if (tail == nullptr) {
      new_head = clone;
    } else {
      tail->prev.store(clone, std::memory_order_relaxed);
    }
    tail = clone;
  }
  return new_head;
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
  slots_.back().head.store(NewCommittedFull(row, begin_ts, false),
                           std::memory_order_release);
  if (meter != nullptr) ++meter->rows_written;
  return rid;
}

Status RowTable::AddVersion(Rid rid, const Row& row, Ts commit_ts,
                            WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::EpochManager::Guard guard;
  mvcc::PushHead(&slots_[rid], NewCommittedFull(row, commit_ts, false));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

Status RowTable::AddDeltaVersion(Rid rid, uint32_t column,
                                 const Value& increment, Ts commit_ts,
                                 WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::EpochManager::Guard guard;
  mvcc::PushHead(&slots_[rid], NewCommittedDelta(column, increment,
                                                 commit_ts));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

Status RowTable::MarkDeleted(Rid rid, Ts commit_ts, WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return Status::NotFound("rid out of range");
  mvcc::EpochManager::Guard guard;
  mvcc::PushHead(&slots_[rid], NewCommittedFull(Row{}, commit_ts, true));
  if (meter != nullptr) ++meter->rows_written;
  return Status::OK();
}

mvcc::VersionNode* RowTable::TryInstallFull(Rid rid, const Row& row,
                                            const void* owner, Ts base_ts,
                                            WorkMeter* meter) {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return nullptr;
  mvcc::EpochManager::Guard guard;
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
  mvcc::EpochManager::Guard guard;
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
  mvcc::EpochManager::Guard guard;
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
  }
  return observed_full_cts == 0;
}

bool RowTable::FoldAt(Rid rid, Ts snapshot, Row* out,
                      mvcc::FoldObservation* obs, WorkMeter* meter) const {
  SharedReaderLock lock(&latch_);
  if (rid >= slots_.size()) return false;
  mvcc::EpochManager::Guard guard;
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
  mvcc::EpochManager::Guard guard;
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
  mvcc::EpochManager::Guard guard;
  end = std::min<Rid>(end, slots_.size());
  Row folded;  // written only for rows with deltas to fold
  for (Rid rid = begin; rid < end; ++rid) {
    const VersionNode* head =
        slots_[rid].head.load(std::memory_order_acquire);
    // A heap scan reads every version physically present in the slot
    // (dead-tuple bloat, the PostgreSQL behaviour Vacuum exists to fix);
    // meter the whole chain, not just the hops to the visible version.
    if (meter != nullptr) {
      meter->version_hops += mvcc::ChainLength(head);
    }
    // Zero-copy: a delta-free visible version reaches the visitor as a
    // reference into its node, kept alive by `guard` until the visit ends.
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
  mvcc::EpochManager::Guard guard;
  size_t n = 0;
  for (const VersionChain& chain : slots_) {
    n += mvcc::ChainLength(chain.head.load(std::memory_order_acquire));
  }
  return n;
}

size_t RowTable::Vacuum(Ts horizon) {
  MutexLock vacuum_lock(&vacuum_mu_);
  size_t unlinked = 0;
  {
    SharedReaderLock lock(&latch_);
    mvcc::EpochManager::Guard guard;
    for (VersionChain& chain : slots_) {
      // `link` always points through a retained node (or the head), so a
      // successful CAS cannot resurrect anything: only this pass (the
      // vacuum_mu_ holder) unlinks, and installs only touch the head.
      std::atomic<VersionNode*>* link = &chain.head;
      bool superseded = false;
      VersionNode* node = link->load(std::memory_order_acquire);
      while (node != nullptr) {
        const VersionStatus st = mvcc::StatusOf(node);
        const bool committed = mvcc::IsCommitted(st);
        const bool drop =
            st == VersionStatus::kAborted || (superseded && committed);
        if (drop) {
          if (mvcc::Unlink(link, node)) {
            mvcc::EpochManager::Instance().Retire(node);
            ++unlinked;
          }
          // On CAS failure a concurrent install changed the head;
          // re-read the link and rescan from there.
          node = link->load(std::memory_order_acquire);
          continue;
        }
        if (st == VersionStatus::kCommitted &&
            node->cts.load(std::memory_order_relaxed) <= horizon) {
          // Newest committed full version at or below the horizon: every
          // snapshot >= horizon resolves here or above, so everything
          // below is unreachable.
          superseded = true;
        }
        link = &node->prev;
        node = link->load(std::memory_order_acquire);
      }
    }
  }
  mvcc::EpochManager::Instance().BumpEpoch();
  mvcc::EpochManager::Instance().ReclaimExpired();
  return unlinked;
}

void RowTable::CopyFrom(const RowTable& other) {
  if (this == &other) return;
  // Acquire the two latches in address order: copies run in both
  // directions between the same table pair (load snapshotting vs
  // benchmark reset), so a fixed this-then-other order would be a
  // lock-order inversion. Explicit Lock/Unlock because a scoped lock
  // cannot express the conditional order; the thread-safety analysis
  // still verifies both branches end holding (and both exits release)
  // exactly {latch_, other.latch_}. The schemas are identical by
  // contract (Catalog resets copy between same-layout tables), so
  // schema_ stays untouched and needs no latch.
  if (this < &other) {
    latch_.Lock();
    other.latch_.LockShared();
  } else {
    other.latch_.LockShared();
    latch_.Lock();
  }
  {
    // The exclusive latch excludes every reader of this table, so the
    // old chains free directly; `other`'s chains may see concurrent
    // installs/vacuum (shared side), so clone under an epoch guard.
    mvcc::EpochManager::Guard guard;
    for (VersionChain& chain : slots_) {
      mvcc::FreeChain(chain.head.load(std::memory_order_acquire));
      chain.head.store(nullptr, std::memory_order_relaxed);
    }
    slots_.clear();
    for (const VersionChain& src : other.slots_) {
      slots_.emplace_back();
      slots_.back().head.store(
          CloneCommitted(src.head.load(std::memory_order_acquire)),
          std::memory_order_release);
    }
  }
  other.latch_.UnlockShared();
  latch_.Unlock();
}

}  // namespace hattrick
