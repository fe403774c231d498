#ifndef HATTRICK_TXN_MVCC_H_
#define HATTRICK_TXN_MVCC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

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
/// Reclamation is not lock-free: every chain walk runs under the owning
/// RowTable's shared latch, and nodes are freed only under its exclusive
/// latch (Vacuum, Rewind, the destructor). See RowTable::Vacuum.
///
/// All raw compare_exchange loops in the repository live in this header
/// (enforced by the `raw-cas` lint rule); everything else manipulates
/// chains through these helpers.
namespace mvcc {

/// Version lifecycle. A node is installed PENDING, becomes visible when
/// its writer flips it to COMMITTED (full after-image) or
/// COMMITTED_DELTA (single-cell increment), or is withdrawn as ABORTED.
/// ABORTED nodes stay linked until Vacuum unlinks them — readers skip
/// them, preserving the dead-tuple bloat the scan meter models.
enum class VersionStatus : uint32_t {
  kPending = 0,
  kCommitted = 1,
  kCommittedDelta = 2,
  kAborted = 3,
};

/// Readers that fold at least this many deltas memoize the fold (see
/// FoldMemo), so a hot row's next read walks only what committed since.
inline constexpr size_t kMemoMinDeltas = 8;

/// A memoized fold, attached to a committed delta node X by the reader
/// that folded it. It stands for the "clean suffix" from X down to the
/// row's first full version F below X: every node in it was committed
/// with cts <= the builder's snapshot when the memo was built, only F is
/// a full version.
///
/// Validity. A suffix's nodes are immutable (a committed status is
/// final, installs only touch the head), so the memo never goes stale.
/// A reader may stop at X and use the memo instead of walking the suffix
/// iff (a) its snapshot >= any_cts, so every suffix node is visible to
/// it, and (b) every visible delta it collected above X has
/// cts > any_cts, so folding the memo first and those deltas after
/// replays the doubles in the same cts order as a full walk — the fold
/// stays bit-identical. Otherwise it keeps walking; the walk is the only
/// fallback. Memos are never built over pending or aborted nodes.
/// RowTable::ValidateRead also stops at the first memo, whatever its
/// snapshot: the suffix holds no pending node and its only full version
/// F is the row's newest committed one.
///
/// Lifetime. A memo is set once by CAS (AttachMemo) and never changed;
/// ~VersionNode frees it, so whatever frees its node (FreeChain, Vacuum,
/// Rewind) frees the memo with it, and a memo is valid exactly as long
/// as its node: while the table latch is held. Rewind frees every delta
/// node of a chain, so no memo survives a benchmark reset.
///
/// `hops` stays exact: Vacuum unlinks aborted nodes, which a suffix has
/// none of, and committed nodes below a newer committed full version G.
/// G cannot sit inside the suffix above F (the suffix holds only
/// deltas above F), so either G is F and only nodes below the suffix go,
/// or G is above X and X itself is unlinked with the memo. The one
/// committed node Vacuum always keeps, a sealed slot's load version, is
/// a full version, so it is F or lies below the suffix.
///
/// Meter parity. A walk that uses a memo charges version_hops = nodes
/// walked (X included) + hops - 1 and rows_read once, exactly what the
/// full walk down to F charges.
struct FoldMemo {
  /// F's payload with every suffix delta applied in cts order.
  Row row;
  Ts full_cts = 0;
  /// Max cts over F and the suffix deltas.
  Ts any_cts = 0;
  /// Nodes from X down to F, both included.
  size_t hops = 0;
};

struct VersionNode {
  ~VersionNode() { delete memo.load(std::memory_order_acquire); }

  /// Lifecycle word; stores of kCommitted/kCommittedDelta use release
  /// ordering so `cts` and `payload` are visible to any reader that
  /// acquires the status.
  std::atomic<uint32_t> status{
      static_cast<uint32_t>(VersionStatus::kPending)};
  /// Commit timestamp; written before the status flips to committed.
  std::atomic<Ts> cts{0};
  /// Next-older node (nullptr at the chain tail). Written by the
  /// installing CAS and by Vacuum unlinks (under the exclusive latch).
  std::atomic<VersionNode*> prev{nullptr};
  /// Fold memo of the clean suffix topped by this (committed delta)
  /// node; null until a reader attaches one. Mutable: readers attach it
  /// through const chain pointers.
  mutable std::atomic<FoldMemo*> memo{nullptr};
  /// Identity of the installing transaction; valid while kPending. Used
  /// to distinguish a transaction's own pending nodes from foreign ones.
  const void* owner = nullptr;
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

/// One row's chain: an atomic head pointer, newest node first, and its
/// physical length (all nodes: pending, aborted, committed) — the
/// dead-tuple bloat a heap scan pays for until Vacuum runs. Every link
/// below and every Vacuum unlink updates `length`, so a scan meters it
/// in O(1).
struct VersionChain {
  std::atomic<VersionNode*> head{nullptr};
  std::atomic<size_t> length{0};
};

/// Unconditionally links `node` above the current head (pre-ordered
/// installs: loads, replica replay).
inline void PushHead(VersionChain* chain, VersionNode* node) {
  VersionNode* cur = chain->head.load(std::memory_order_acquire);
  do {
    node->prev.store(cur, std::memory_order_relaxed);
  } while (!chain->head.compare_exchange_weak(
      cur, node, std::memory_order_release, std::memory_order_acquire));
  chain->length.fetch_add(1, std::memory_order_relaxed);
}

/// Links `node` above `expected_head` only if the head is still
/// `expected_head` — the linearization point of a validated install (the
/// caller re-validates from the new head and retries on failure).
inline bool TryPushHead(VersionChain* chain, VersionNode* node,
                        VersionNode* expected_head) {
  node->prev.store(expected_head, std::memory_order_relaxed);
  VersionNode* expected = expected_head;
  if (!chain->head.compare_exchange_strong(expected, node,
                                           std::memory_order_release,
                                           std::memory_order_acquire)) {
    return false;
  }
  chain->length.fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// Frees a whole chain. Only safe when no concurrent reader can hold the
/// nodes (table destructor, reset under the exclusive table latch).
inline void FreeChain(VersionNode* head) {
  VersionNode* node = head;
  while (node != nullptr) {
    VersionNode* older = node->prev.load(std::memory_order_relaxed);
    delete node;
    node = older;
  }
}

/// The memo attached to `node`, or nullptr.
inline const FoldMemo* MemoOf(const VersionNode* node) {
  return node->memo.load(std::memory_order_acquire);
}

/// Attaches `memo` to `node` unless one is already there (set once:
/// losing the race frees `memo`). Returns the memo now attached.
inline const FoldMemo* AttachMemo(const VersionNode* node, FoldMemo* memo) {
  FoldMemo* expected = nullptr;
  if (node->memo.compare_exchange_strong(expected, memo,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
    return memo;
  }
  delete memo;
  return expected;
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
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr size_t kInline = 8;
  const VersionNode* inline_[kInline] = {};
  std::vector<const VersionNode*> spill_;
  size_t size_ = 0;
};

/// Stable insertion sort of `[begin, end)` by cts, assuming `[begin,
/// sorted)` is already sorted. Deltas arrive nearly in cts order (the
/// ordered commit tail publishes in cts order), so this is close to
/// linear; stability orders equal-cts deltas (one transaction
/// incrementing a row twice) by install order.
inline void SortDeltasByCts(const VersionNode** begin,
                            const VersionNode** sorted,
                            const VersionNode** end) {
  for (const VersionNode** it = sorted; it != end; ++it) {
    const VersionNode* node = *it;
    const Ts cts = node->cts.load(std::memory_order_relaxed);
    const VersionNode** hole = it;
    while (hole != begin &&
           (*(hole - 1))->cts.load(std::memory_order_relaxed) > cts) {
      *hole = *(hole - 1);
      --hole;
    }
    *hole = node;
  }
}

/// Applies `[begin, end)` (sorted by cts) to `*row`; returns the max cts
/// applied, or `any` if the range is empty.
inline Ts ApplyDeltas(Row* row, const VersionNode* const* begin,
                      const VersionNode* const* end, Ts any) {
  for (const VersionNode* const* it = begin; it != end; ++it) {
    ApplyDeltaValue(&(*row)[(*it)->delta_column], (*it)->payload[0]);
    any = std::max(any, (*it)->cts.load(std::memory_order_relaxed));
  }
  return any;
}

/// Resolves the version of a chain visible at `snapshot`: walks newest to
/// oldest skipping pending/aborted nodes and versions newer than the
/// snapshot, accumulates visible committed deltas, and folds them over
/// the first visible committed full version. Deltas older than that full
/// version are already incorporated in it (every committed full
/// after-image was computed from a read that folded all deltas below it)
/// and are ignored.
///
/// The walk stops early at the first usable FoldMemo (see its contract)
/// and folds the collected deltas over the memo's row instead. A walk
/// that folds at least kMemoMinDeltas deltas of a clean suffix (no
/// pending, aborted or invisible node between them and the full version
/// or memo they fold onto) attaches a memo to the suffix's top node, so
/// a hot row's next read costs the versions committed since.
///
/// Copy-free when it can be: if the visible version is a committed full
/// version (or a memo) with no deltas above it, returns that payload in
/// place; otherwise folds into `*scratch` and returns `scratch`. Returns
/// nullptr if no version is visible (the row was created after the
/// snapshot). A returned payload is immutable (published nodes and memos
/// never change) but lives only as long as its node: it is valid while
/// the table latch the chain load was made under is held, since Vacuum
/// frees unlinked nodes under the exclusive latch.
///
/// Meters one version_hop per node a full walk would visit, matching the
/// newest-to-oldest walk of the previous vector-based chains.
inline const Row* ResolveVisible(const VersionNode* head, Ts snapshot,
                                 Row* scratch, FoldObservation* obs,
                                 WorkMeter* meter) {
  // Deltas commute logically, but double addition rounds differently
  // under reordering — and the column-store copies apply deltas in
  // commit order. Collect, then replay in cts order below so every
  // store folds to the bit-identical value.
  DeltaBuffer deltas;
  Ts min_delta_cts = kMaxTs;
  size_t hops = 0;
  // The clean run: contiguous committed nodes visible at the snapshot,
  // ending at the node the walk stopped on. `clean_first` indexes its
  // first collected delta.
  const VersionNode* clean_top = nullptr;
  size_t clean_hops = 0;
  size_t clean_first = 0;
  const VersionNode* node = head;
  const FoldMemo* base_memo = nullptr;
  for (; node != nullptr; node = node->prev.load(std::memory_order_acquire)) {
    ++hops;
    const VersionStatus st = StatusOf(node);
    const Ts cts =
        IsCommitted(st) ? node->cts.load(std::memory_order_relaxed) : 0;
    if (!IsCommitted(st) || cts > snapshot) {
      clean_top = nullptr;  // pending, aborted or too new: invisible
      clean_hops = 0;
      clean_first = deltas.size();
      continue;
    }
    if (clean_hops++ == 0) clean_top = node;
    if (st == VersionStatus::kCommitted) break;
    const FoldMemo* memo = MemoOf(node);
    if (memo != nullptr && snapshot >= memo->any_cts &&
        min_delta_cts > memo->any_cts) {
      base_memo = memo;
      break;
    }
    deltas.push_back(node);
    min_delta_cts = std::min(min_delta_cts, cts);
  }
  if (node == nullptr) {
    if (meter != nullptr) meter->version_hops += hops;
    return nullptr;  // row did not exist at snapshot
  }
  if (base_memo != nullptr) hops += base_memo->hops - 1;
  if (meter != nullptr) meter->version_hops += hops;
  if (meter != nullptr) ++meter->rows_read;
  const Row& base = base_memo != nullptr ? base_memo->row : node->payload;
  const Ts full_cts = base_memo != nullptr
                          ? base_memo->full_cts
                          : node->cts.load(std::memory_order_relaxed);
  const Ts base_any = base_memo != nullptr ? base_memo->any_cts : full_cts;
  if (deltas.empty()) {
    if (obs != nullptr) {
      obs->full_cts = full_cts;
      obs->any_cts = base_any;
    }
    return &base;
  }
  // Oldest first, then sort: the clean run's deltas form the prefix.
  std::reverse(deltas.begin(), deltas.end());
  const VersionNode** all = deltas.begin();
  const VersionNode** clean_end = all + (deltas.size() - clean_first);
  SortDeltasByCts(all, all, clean_end);
  if (static_cast<size_t>(clean_end - all) >= kMemoMinDeltas &&
      MemoOf(clean_top) == nullptr) {
    auto* memo = new FoldMemo();
    memo->row = base;
    memo->any_cts = ApplyDeltas(&memo->row, all, clean_end, base_any);
    memo->full_cts = full_cts;
    memo->hops =
        clean_hops + (base_memo != nullptr ? base_memo->hops - 1 : 0);
    const FoldMemo* attached = AttachMemo(clean_top, memo);
    if (clean_first == 0) {
      // The clean run is the whole fold: the memo is the result.
      if (obs != nullptr) {
        obs->full_cts = attached->full_cts;
        obs->any_cts = attached->any_cts;
      }
      return &attached->row;
    }
  }
  SortDeltasByCts(all, clean_end, deltas.end());
  *scratch = base;
  const Ts any = ApplyDeltas(scratch, all, deltas.end(), base_any);
  if (obs != nullptr) {
    obs->full_cts = full_cts;
    obs->any_cts = any;
  }
  return scratch;
}

/// ResolveVisible's answer when `head` is a committed full version with
/// cts <= `snapshot`, the chain of every row nobody has updated since:
/// that walk visits the head alone and returns its payload in place.
/// Returns nullptr for any other head (pending, aborted, delta, too new),
/// whose caller then runs ResolveVisible itself.
inline const Row* CommittedHeadAt(const VersionNode* head, Ts snapshot) {
  if (head != nullptr && StatusOf(head) == VersionStatus::kCommitted &&
      head->cts.load(std::memory_order_relaxed) <= snapshot) {
    return &head->payload;
  }
  return nullptr;
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

}  // namespace mvcc
}  // namespace hattrick

#endif  // HATTRICK_TXN_MVCC_H_
