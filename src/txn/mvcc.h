#ifndef HATTRICK_TXN_MVCC_H_
#define HATTRICK_TXN_MVCC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "common/work_meter.h"

namespace hattrick {

/// Row identifier: the slot index within a RowTable. Stable for the life
/// of the table (rows are never physically moved).
using Rid = uint64_t;

/// Timestamps are commit sequence numbers handed out by the TimestampOracle.
using Ts = uint64_t;
inline constexpr Ts kMaxTs = std::numeric_limits<Ts>::max();

/// Lock-free MVCC version chains in the style of STO's MVCCStructs: each
/// row head is an atomic pointer to a CSN-stamped version node whose
/// lifecycle is an atomic status word (PENDING -> COMMITTED /
/// COMMITTED_DELTA / ABORTED). Writers install PENDING nodes with a head
/// CAS (a pending node doubles as the row's write lock), publish by
/// flipping the status word, and roll back by flipping to ABORTED —
/// no per-row or global mutex on the transaction hot path.
///
/// Delta versions are the escrow-style relaxation that makes hot-row
/// increments commute: a COMMITTED_DELTA node carries a single-cell
/// increment that readers fold over the newest visible full version, so
/// two Payments bumping the same supplier's S_YTD both commit without a
/// write-write conflict.
///
/// All raw compare_exchange loops in the repository live in this header
/// (enforced by the `raw-cas` lint rule); everything else manipulates
/// chains through these helpers.
namespace mvcc {

/// Version lifecycle. A node is installed PENDING, becomes visible when
/// its writer flips it to COMMITTED (full after-image or tombstone) or
/// COMMITTED_DELTA (single-cell increment), or is withdrawn as ABORTED.
/// ABORTED nodes stay linked until Vacuum unlinks them — readers skip
/// them, preserving the dead-tuple bloat the scan meter models.
enum class VersionStatus : uint32_t {
  kPending = 0,
  kCommitted = 1,
  kCommittedDelta = 2,
  kAborted = 3,
};

struct VersionNode {
  /// Lifecycle word; stores of kCommitted/kCommittedDelta use release
  /// ordering so `cts` and `payload` are visible to any reader that
  /// acquires the status.
  std::atomic<uint32_t> status{
      static_cast<uint32_t>(VersionStatus::kPending)};
  /// Commit timestamp; written before the status flips to committed.
  std::atomic<Ts> cts{0};
  /// Next-older node (nullptr at the chain tail). Written by the
  /// installing CAS and by Vacuum unlinks.
  std::atomic<VersionNode*> prev{nullptr};
  /// Identity of the installing transaction; valid while kPending. Used
  /// to distinguish a transaction's own pending nodes from foreign ones.
  const void* owner = nullptr;
  /// Logical delete: a committed tombstone ends visibility at `cts`.
  bool tombstone = false;
  /// True for delta (increment) versions; `payload` then holds a single
  /// increment cell targeting `delta_column`.
  bool is_delta = false;
  uint32_t delta_column = 0;
  /// Full after-image, or the one-cell increment for deltas.
  Row payload;
};

inline VersionStatus StatusOf(const VersionNode* node) {
  return static_cast<VersionStatus>(
      node->status.load(std::memory_order_acquire));
}

inline bool IsCommitted(VersionStatus st) {
  return st == VersionStatus::kCommitted ||
         st == VersionStatus::kCommittedDelta;
}

/// Flips a pending node to committed at `cts`. Release ordering on the
/// status store publishes the timestamp and payload together.
inline void Publish(VersionNode* node, Ts cts) {
  node->cts.store(cts, std::memory_order_relaxed);
  node->status.store(
      static_cast<uint32_t>(node->is_delta ? VersionStatus::kCommittedDelta
                                           : VersionStatus::kCommitted),
      std::memory_order_release);
}

/// Withdraws a pending node after a failed validation.
inline void Withdraw(VersionNode* node) {
  node->status.store(static_cast<uint32_t>(VersionStatus::kAborted),
                     std::memory_order_release);
}

/// Adds `increment` into `*cell`: integer cells add integrally, numeric
/// cells otherwise add as doubles (S_YTD-style decimal columns).
inline void ApplyDeltaValue(Value* cell, const Value& increment) {
  if (cell->is_int() && increment.is_int()) {
    *cell = Value{cell->AsInt() + increment.AsInt()};
  } else {
    *cell = Value{cell->AsDouble() + increment.AsDouble()};
  }
}

/// One row's chain: an atomic head pointer, newest node first.
struct VersionChain {
  std::atomic<VersionNode*> head{nullptr};
};

/// Unconditionally links `node` above the current head (pre-ordered
/// installs: loads, replica replay, committed tombstones).
inline void PushHead(VersionChain* chain, VersionNode* node) {
  VersionNode* cur = chain->head.load(std::memory_order_acquire);
  do {
    node->prev.store(cur, std::memory_order_relaxed);
  } while (!chain->head.compare_exchange_weak(
      cur, node, std::memory_order_release, std::memory_order_acquire));
}

/// Links `node` above `expected_head` only if the head is still
/// `expected_head` — the linearization point of a validated install (the
/// caller re-validates from the new head and retries on failure).
inline bool TryPushHead(VersionChain* chain, VersionNode* node,
                        VersionNode* expected_head) {
  node->prev.store(expected_head, std::memory_order_relaxed);
  VersionNode* expected = expected_head;
  return chain->head.compare_exchange_strong(
      expected, node, std::memory_order_release, std::memory_order_acquire);
}

/// Unlinks `node` from `*link` (the head pointer or a retained
/// predecessor's `prev`). Fails if a concurrent install changed the link.
inline bool Unlink(std::atomic<VersionNode*>* link, VersionNode* node) {
  VersionNode* expected = node;
  return link->compare_exchange_strong(
      expected, node->prev.load(std::memory_order_acquire),
      std::memory_order_acq_rel, std::memory_order_acquire);
}

/// Physical chain length (all nodes: pending, aborted, committed) — the
/// dead-tuple bloat a heap scan pays for until Vacuum runs.
inline size_t ChainLength(const VersionNode* head) {
  size_t n = 0;
  for (const VersionNode* node = head; node != nullptr;
       node = node->prev.load(std::memory_order_acquire)) {
    ++n;
  }
  return n;
}

/// Frees a whole chain. Only safe when no concurrent reader can hold the
/// nodes (table destructor, reset under the exclusive structure latch).
inline void FreeChain(VersionNode* head) {
  VersionNode* node = head;
  while (node != nullptr) {
    VersionNode* older = node->prev.load(std::memory_order_relaxed);
    delete node;
    node = older;
  }
}

/// What a fold observed; feeds first-updater-wins and OCC read
/// validation in the transaction manager.
struct FoldObservation {
  /// cts of the committed full version the read resolved to (0 if the
  /// row was invisible at the snapshot).
  Ts full_cts = 0;
  /// Newest committed work folded into the read: max cts over the full
  /// version and every delta folded onto it. The publish protocol
  /// guarantees any write committed after the read has cts > any_cts,
  /// so validating against any_cts is exact at every isolation level.
  Ts any_cts = 0;
};

/// Scratch list of the delta nodes one fold collects: inline for the
/// common short run of deltas, spilling to the heap only past kInline.
class DeltaBuffer {
 public:
  void push_back(const VersionNode* node) {
    if (size_ == kInline) spill_.assign(inline_, inline_ + kInline);
    if (size_ >= kInline) {
      spill_.push_back(node);
    } else {
      inline_[size_] = node;
    }
    ++size_;
  }
  const VersionNode** begin() {
    return size_ > kInline ? spill_.data() : inline_;
  }
  const VersionNode** end() { return begin() + size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr size_t kInline = 8;
  const VersionNode* inline_[kInline] = {};
  std::vector<const VersionNode*> spill_;
  size_t size_ = 0;
};

/// Resolves the version of a chain visible at `snapshot`: walks newest to
/// oldest skipping pending/aborted nodes and versions newer than the
/// snapshot, accumulates visible committed deltas, and folds them over
/// the first visible committed full version. Deltas older than that full
/// version are already incorporated in it (every committed full
/// after-image was computed from a read that folded all deltas below it)
/// and are ignored.
///
/// Copy-free when it can be: if the visible version is a committed full
/// version with no deltas above it, returns that node's payload in
/// place; otherwise folds into `*scratch` and returns `scratch`. Returns
/// nullptr if no version is visible (row created later, or tombstoned as
/// of the snapshot). A returned payload is immutable (published nodes
/// never change) but lives only as long as the node: the caller must
/// hold an EpochManager::Guard from the chain load until its last use,
/// since Vacuum may unlink and retire the node at any time after.
///
/// Meters one version_hop per node visited, matching the
/// newest-to-oldest walk of the previous vector-based chains.
inline const Row* ResolveVisible(const VersionNode* head, Ts snapshot,
                                 Row* scratch, FoldObservation* obs,
                                 WorkMeter* meter) {
  // Deltas commute logically, but double addition rounds differently
  // under reordering — and the column-store copies apply deltas in
  // commit order. Collect, then replay in cts order below so every
  // store folds to the bit-identical value.
  DeltaBuffer deltas;
  for (const VersionNode* node = head; node != nullptr;
       node = node->prev.load(std::memory_order_acquire)) {
    if (meter != nullptr) ++meter->version_hops;
    const VersionStatus st = StatusOf(node);
    if (!IsCommitted(st)) continue;  // pending or aborted: invisible
    const Ts cts = node->cts.load(std::memory_order_relaxed);
    if (cts > snapshot) continue;
    if (st == VersionStatus::kCommittedDelta) {
      deltas.push_back(node);
      continue;
    }
    // First committed full version at or below the snapshot.
    if (node->tombstone) return nullptr;  // deleted as of snapshot
    if (meter != nullptr) ++meter->rows_read;
    if (deltas.empty()) {
      if (obs != nullptr) obs->full_cts = obs->any_cts = cts;
      return &node->payload;
    }
    *scratch = node->payload;
    Ts any = cts;
    std::sort(deltas.begin(), deltas.end(),
              [](const VersionNode* a, const VersionNode* b) {
                return a->cts.load(std::memory_order_relaxed) <
                       b->cts.load(std::memory_order_relaxed);
              });
    for (const VersionNode* d : deltas) {
      ApplyDeltaValue(&(*scratch)[d->delta_column], d->payload[0]);
      const Ts dts = d->cts.load(std::memory_order_relaxed);
      if (dts > any) any = dts;
    }
    if (obs != nullptr) {
      obs->full_cts = cts;
      obs->any_cts = any;
    }
    return scratch;
  }
  return nullptr;  // row did not exist at snapshot
}

/// ResolveVisible into an owned row: `*out` receives the visible version
/// (copied or folded). Returns false if no version is visible.
inline bool FoldVisible(const VersionNode* head, Ts snapshot, Row* out,
                        FoldObservation* obs, WorkMeter* meter) {
  const Row* row = ResolveVisible(head, snapshot, out, obs, meter);
  if (row == nullptr) return false;
  if (row != out) *out = *row;
  return true;
}

/// cts of the newest committed full (non-delta) version, 0 if none.
/// Tombstones count (their cts ends visibility).
inline Ts NewestCommittedFullCts(const VersionNode* head) {
  for (const VersionNode* node = head; node != nullptr;
       node = node->prev.load(std::memory_order_acquire)) {
    if (StatusOf(node) == VersionStatus::kCommitted) {
      return node->cts.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

/// Epoch-based reclamation for version nodes unlinked by Vacuum while
/// lock-free readers may still hold pointers into the chain. Readers
/// wrap chain walks in a Guard (per-thread cache-line-aligned epoch
/// slots, RAII-acquired on first use and released at thread exit);
/// Vacuum retires unlinked nodes into a limbo list and frees an entry
/// only once every active reader entered after it was retired.
class EpochManager {
 public:
  static EpochManager& Instance() {
    static EpochManager manager;
    return manager;
  }

  /// Read-side critical section. Re-entrant (nested guards on one thread
  /// keep the outermost epoch).
  class Guard {
   public:
    Guard() : slot_(LocalSlot()) {
      if (slot_->depth++ == 0) {
        // seq_cst pairs with the reclaimer's slot scan: if the scan did
        // not see this store, every later chain load on this thread is
        // ordered after the scan — and thus after the unlink it follows.
        slot_->epoch.store(
            Instance().global_epoch_.load(std::memory_order_seq_cst),
            std::memory_order_seq_cst);
      }
    }
    ~Guard() {
      if (--slot_->depth == 0) {
        slot_->epoch.store(kIdle, std::memory_order_release);
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    friend class EpochManager;
    struct alignas(64) Slot {
      std::atomic<uint64_t> epoch{kIdle};
      std::atomic<bool> owned{false};
      uint32_t depth = 0;  // only touched by the owning thread
    };
    static Slot* LocalSlot() {
      thread_local SlotLease lease;
      return lease.slot;
    }
    Slot* slot_;
  };

  /// Queues an unlinked node for deferred free.
  void Retire(VersionNode* node) {
    const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    MutexLock lock(&limbo_mu_);
    limbo_.push_back({epoch, node});
  }

  /// Advances the global epoch (one bump per Vacuum pass).
  void BumpEpoch() {
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Frees every limbo node retired before the oldest active reader
  /// epoch; returns the number freed.
  size_t ReclaimExpired() {
    uint64_t min_active = kIdle;
    for (const Guard::Slot& slot : slots_) {
      const uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e < min_active) min_active = e;
    }
    std::vector<VersionNode*> free_now;
    {
      MutexLock lock(&limbo_mu_);
      size_t kept = 0;
      for (auto& entry : limbo_) {
        if (entry.first < min_active) {
          free_now.push_back(entry.second);
        } else {
          limbo_[kept++] = entry;
        }
      }
      limbo_.resize(kept);
    }
    for (VersionNode* node : free_now) delete node;
    return free_now.size();
  }

 private:
  static constexpr uint64_t kIdle = std::numeric_limits<uint64_t>::max();
  static constexpr size_t kMaxSlots = 1024;

  /// Thread-lifetime lease on one epoch slot (slots recycle across the
  /// drivers' short-lived client threads).
  struct SlotLease {
    Guard::Slot* slot = nullptr;
    SlotLease() {
      EpochManager& mgr = Instance();
      for (size_t i = 0; i < kMaxSlots; ++i) {
        bool expected = false;
        if (mgr.slots_[i].owned.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          slot = &mgr.slots_[i];
          return;
        }
      }
      std::abort();  // > kMaxSlots concurrent threads; raise the cap
    }
    ~SlotLease() {
      slot->epoch.store(kIdle, std::memory_order_release);
      slot->owned.store(false, std::memory_order_release);
    }
  };

  EpochManager() = default;
  ~EpochManager() {
    // Process teardown: no readers remain; drain the limbo list so leak
    // checkers see every node freed.
    MutexLock lock(&limbo_mu_);
    for (auto& entry : limbo_) delete entry.second;
    limbo_.clear();
  }

  Guard::Slot slots_[kMaxSlots];
  std::atomic<uint64_t> global_epoch_{1};
  Mutex limbo_mu_;
  std::vector<std::pair<uint64_t, VersionNode*>> limbo_
      GUARDED_BY(limbo_mu_);
};

}  // namespace mvcc
}  // namespace hattrick

#endif  // HATTRICK_TXN_MVCC_H_
