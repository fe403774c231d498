// Fixture: a held lock covers a version-chain read only if it is the row
// table's latch, and only for row chains (unpinned-snapshot, positive).
#include <deque>

#include "common/mutex.h"
#include "storage/column_table.h"
#include "txn/mvcc.h"

namespace hattrick {

class RowTable {
 public:
  Row* ReadUnderOtherMutex(Rid rid) {
    MutexLock lock(&stats_mu_);
    return &slots_[rid].head.load()->payload;
  }

  int ColumnReadUnderRowLatch(ColumnTable* column) {
    SharedReaderLock lock(&latch_);
    return static_cast<int>(column->SnapshotVersions().size());
  }

 private:
  mutable SharedMutex latch_;
  Mutex stats_mu_;
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
};

}  // namespace hattrick
