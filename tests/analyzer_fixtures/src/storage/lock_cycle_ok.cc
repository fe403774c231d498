// Fixture: consistent nesting order plus the address-ordered peer-pair
// idiom must produce no lock-order finding (lock-order-cycle, negative).
#include "common/mutex.h"

namespace hattrick {

class OrderedState {
 public:
  void FrontFirst() {
    MutexLock a(&front_mu_);
    MutexLock b(&back_mu_);
    ++front_;
    ++back_;
  }

  // Same nesting order as FrontFirst: the graph stays acyclic.
  void AlsoFrontFirst() {
    MutexLock a(&front_mu_);
    MutexLock b(&back_mu_);
    front_ += 2;
    back_ += 2;
  }

  // Address-ordered acquisition of the same lock field on two objects
  // (the peer-pair copy idiom): the self-pair is exempt because both
  // acquisitions sit inside the ordering conditional.
  void CopyFrom(const OrderedState& other) {
    if (this < &other) {
      latch_.Lock();
      other.latch_.LockShared();
    } else {
      other.latch_.LockShared();
      latch_.Lock();
    }
    front_ = other.front_;
    other.latch_.UnlockShared();
    latch_.Unlock();
  }

 private:
  mutable SharedMutex latch_;
  Mutex front_mu_;
  Mutex back_mu_;
  int front_ GUARDED_BY(front_mu_) = 0;
  int back_ GUARDED_BY(back_mu_) = 0;
};

}  // namespace hattrick
