// Fixture: version-chain reads dominated by a session pin, or row-chain
// reads made under the row table's latch (shared or exclusive), must be
// silent (unpinned-snapshot, negative).
#include <deque>

#include "common/mutex.h"
#include "engine/session_pin.h"
#include "storage/column_table.h"
#include "txn/mvcc.h"

namespace hattrick {

class RowTable {
 public:
  bool ReadUnderSharedLatch(Rid rid, Row* out) const {
    SharedReaderLock lock(&latch_);
    return mvcc::FoldVisible(slots_[rid].head.load(), kMaxTs, out, nullptr,
                             nullptr);
  }

  void ReclaimUnderExclusiveLatch() {
    SharedMutexLock lock(&latch_);
    for (mvcc::VersionChain& chain : slots_) {
      mvcc::FreeChain(chain.head.load());
    }
  }

 private:
  mutable SharedMutex latch_;
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
};

class PinnedScanner {
 public:
  int ScanUnderPin(ColumnTable* column) {
    auto pin = latch_.AcquirePin();
    auto snap = column->SnapshotVersions();
    return static_cast<int>(snap.size());
  }

 private:
  SessionPinLatch latch_;
};

}  // namespace hattrick
