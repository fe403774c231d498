// Fixture: a version-chain read in a for-init is a protected read like
// any other (unpinned-snapshot, positive). The walk starts from a chain
// head loaded with no latch held, so a concurrent Vacuum could free the
// nodes under it.
#include <deque>

#include "common/mutex.h"
#include "txn/mvcc.h"

namespace hattrick {

class RowTable {
 public:
  bool AnyPending(Rid rid) const {
    for (const mvcc::VersionNode* node = slots_[rid].head.load();
         node != nullptr; node = node->prev.load()) {
      if (mvcc::StatusOf(node) == mvcc::VersionStatus::kPending) return true;
    }
    return false;
  }

  bool AnyPendingLatched(Rid rid) const {
    SharedReaderLock lock(&latch_);
    for (const mvcc::VersionNode* node = slots_[rid].head.load();
         node != nullptr; node = node->prev.load()) {
      if (mvcc::StatusOf(node) == mvcc::VersionStatus::kPending) return true;
    }
    return false;
  }

 private:
  mutable SharedMutex latch_;
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
};

}  // namespace hattrick
