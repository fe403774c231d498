#ifndef HATTRICK_COMMON_MUTEX_H_
#define HATTRICK_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace hattrick {

/// Annotated mutex wrappers. All synchronization in src/ goes through
/// these types so Clang Thread-Safety Analysis (-Wthread-safety, the
/// HATTRICK_ANALYZE=ON build) can prove lock/data associations at compile
/// time; raw std::mutex / std::shared_mutex / std::lock_guard use outside
/// this file is rejected by the `raw-lock` rule of
/// tools/lint/hattrick_lint.py.
///
/// The wrappers add no state and no behaviour: they compile to the same
/// code as the std primitives they wrap. Scoped-lock idioms:
///
///   MutexLock lock(&mutex_);              // exclusive std::mutex hold
///   SharedMutexLock lock(&latch_);        // exclusive (writer) hold
///   SharedReaderLock lock(&latch_);       // shared (reader) hold
///
/// Condition waiting keeps the Mutex capability held across the wait:
///
///   MutexLock lock(&mutex_);
///   while (!predicate_)                   // predicate_ GUARDED_BY(mutex_)
///     cv_.Wait(&mutex_);
///
/// Lock-order discipline: a function that must hold two peer locks at
/// once (no such site is left in src/) acquires them in address order
/// via explicit Lock()/Unlock() calls — the analysis checks the hold
/// set, the address order prevents the inversion, and hattrick-analyzer
/// recognizes the idiom.

/// Annotated std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated std::shared_mutex (reader-writer latch).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive hold of a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// RAII exclusive (writer) hold of a SharedMutex.
class SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;
  ~SharedMutexLock() RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* const mu_;
};

/// RAII shared (reader) hold of a SharedMutex.
class SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;
  ~SharedReaderLock() RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with Mutex. Wait() requires the capability
/// so the analysis knows guarded predicates may be read in the wait loop;
/// the capability is logically held across the wait (the wait re-acquires
/// before returning, exactly like std::condition_variable).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks until notified, re-acquires `*mu`.
  /// Spurious wakeups are possible — always wait in a predicate loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // the caller's scope still owns the re-acquired lock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hattrick

#endif  // HATTRICK_COMMON_MUTEX_H_
