// Fixture: chain reads inside in-class member templates (the inlined
// heap-scan visitor shape) follow the same latch rule as any other
// member (unpinned-snapshot). The latched scan is silent; the same walk
// without the latch fires.
#include <deque>

#include "common/mutex.h"
#include "txn/mvcc.h"

namespace hattrick {

class RowTable {
 public:
  template <typename Visitor>
  void ScanLatched(Ts snapshot, Visitor&& visitor) const {
    SharedReaderLock lock(&latch_);
    for (Rid rid = 0; rid < slots_.size(); ++rid) {
      const mvcc::VersionNode* head = slots_[rid].head.load();
      if (!visitor(rid, head->payload)) return;
    }
  }

  template <typename Visitor>
  void ScanUnlatched(Ts snapshot, Visitor&& visitor) const {
    for (Rid rid = 0; rid < slots_.size(); ++rid) {
      const mvcc::VersionNode* head = slots_[rid].head.load();
      if (!visitor(rid, head->payload)) return;
    }
  }

 private:
  mutable SharedMutex latch_;
  std::deque<mvcc::VersionChain> slots_ GUARDED_BY(latch_);
};

}  // namespace hattrick
