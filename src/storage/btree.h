#ifndef HATTRICK_STORAGE_BTREE_H_
#define HATTRICK_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/work_meter.h"
#include "obs/metrics.h"

namespace hattrick {

/// An in-memory B+-tree from memcomparable byte-string keys to uint64
/// values (row ids).
///
/// - Unique indexes store the primary key encoding directly.
/// - Secondary (non-unique) indexes append the row id to the key
///   (key = Encode(attrs) + Encode(rid)), the standard trick that makes
///   every entry unique while preserving prefix-scan semantics.
/// - Deletion removes entries from leaves without rebalancing; empty
///   leaves are skipped by scans. HATtrick issues no deletes, so this
///   lazy scheme only matters for the unit tests that exercise it.
///
/// All operations meter the number of nodes visited into a WorkMeter,
/// which is how index traversal and maintenance costs (a first-order
/// effect in the paper's SF100 results, Section 6.2) reach the cost model.
///
/// Thread safety: a single reader-writer latch guards the whole tree.
/// Fine-grained latching is unnecessary because contention is modeled in
/// virtual time by the simulator, not exercised in real time.
class BTree {
 public:
  /// Visitor for scans; return false to stop the scan early.
  using Visitor = std::function<bool(const std::string& key, uint64_t value)>;

  /// Creates an empty tree. `leaf_capacity`/`internal_capacity` are
  /// tunable for tests that want to force deep trees.
  explicit BTree(size_t leaf_capacity = 64, size_t internal_capacity = 64);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts key -> value; duplicate keys are allowed and are returned in
  /// insertion-independent (key-sorted, stable by value of encoded key)
  /// order by scans.
  void Insert(const std::string& key, uint64_t value, WorkMeter* meter);

  /// Removes one entry with exactly `key`; returns true if found.
  bool Remove(const std::string& key, WorkMeter* meter);

  /// Point lookup; returns true and sets *value if found. If multiple
  /// entries share `key`, returns the first in key order.
  bool Lookup(const std::string& key, uint64_t* value,
              WorkMeter* meter) const;

  /// Visits entries with lo <= key < hi in ascending key order.
  /// An empty `hi` means "to the end of the tree".
  void ScanRange(const std::string& lo, const std::string& hi,
                 const Visitor& visitor, WorkMeter* meter) const;

  /// Visits all entries whose key starts with `prefix`.
  void ScanPrefix(const std::string& prefix, const Visitor& visitor,
                  WorkMeter* meter) const;

  /// Number of entries.
  size_t size() const;

  /// Height of the tree (1 for a single leaf).
  size_t height() const;

  /// Removes all entries.
  void Clear();

  /// Optional split counter (obs registry). Incremented on every leaf or
  /// internal node split; null (the default) disables counting, so the
  /// insert path carries only a pointer test when observability is off.
  void set_split_counter(obs::Counter* counter) { split_counter_ = counter; }

 private:
  struct Node;

  Node* FindLeaf(const std::string& key, WorkMeter* meter) const
      REQUIRES_SHARED(latch_);
  void InsertIntoLeaf(Node* leaf, const std::string& key, uint64_t value,
                      WorkMeter* meter) REQUIRES(latch_);
  void SplitLeaf(Node* leaf) REQUIRES(latch_);
  void SplitInternal(Node* node) REQUIRES(latch_);
  void InsertIntoParent(Node* node, std::string separator, Node* sibling)
      REQUIRES(latch_);
  static void DeleteSubtree(Node* node);

  const size_t leaf_capacity_;
  const size_t internal_capacity_;
  mutable SharedMutex latch_;
  Node* root_ GUARDED_BY(latch_);
  size_t size_ GUARDED_BY(latch_) = 0;
  size_t height_ GUARDED_BY(latch_) = 1;
  obs::Counter* split_counter_ = nullptr;  // attach-time wiring, quiesced
};

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_BTREE_H_
