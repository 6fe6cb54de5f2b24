// Capability-annotated mutex wrappers: the static half of the lock
// discipline.  Built on Clang Thread Safety Analysis — under clang the whole
// tree compiles with -Werror=thread-safety, so "which lock guards this field"
// and "who must hold it" are machine-checked; under GCC the attributes expand
// to nothing and the types behave like their std counterparts.  Every mutex
// also carries a lock_rank::Rank, giving the runtime validator
// (lock_rank.h) the dynamic ordering checks TSA cannot express.
//
// Lock-rank table (acquire strictly downward; full details in DESIGN.md §10):
//
//   rank | Rank enum          | capability                   | guards
//   -----+--------------------+------------------------------+------------------------------------------
//    -1  | kUnranked          | ad-hoc test mutexes          | (exempt from ordering; recursion checked)
//     4  | kSegmentManager    | SegmentManager::mu_          | entry list, mapper table, RPC stats
//     6  | kMapperServe       | MapperServer::serve_mu_      | one-at-a-time dispatch (bypassed by DSM)
//     7  | kDsmDirectory      | DsmCluster segment mu        | per-segment owner/sharer tables, registry
//     8  | kDsmNet            | SimNet::mu_                  | link seq/dedup/partition state (not held
//         |                    |                              | across handler delivery)
//    10  | kClient            | mapper/test driver locks     | segment-driver state; drivers re-enter MM
//    20  | kIpc               | Ipc::mu_                     | port table, queues, dead flags
//    30  | kMmManager         | BaseMm::mu_                  | regions, contexts, caches, stubs, stats
//    32  | kFrameMagazine     | PhysicalMemory Magazine::mu  | one CPU's cached frames (never 2 at once)
//    34  | kFrameFreeList     | PhysicalMemory::mu_          | shared frame free list (refill/drain path)
//    36  | kPageoutDaemon     | PagedVm::daemon_mu_          | paging-daemon wake latch (leaf for holders)
//    40  | kMmuShard          | Hat::Shard::mu (both MMUs)   | one AS shard's page tables (never 2 at once)
//    50  | kSleepQueueTable   | SleepQueue::table_mutex_     | waiter table (under the caller's mu_)
//    60  | kFaultInjector     | FaultInjector::mu_           | plans, RNG, per-site counters
//    70  | kLog               | log.cc g_log_mutex           | stderr interleaving (leaf)
//
// The per-CPU TLB (src/hal/tlb.h) holds no mutexes: it is lock-free by
// construction (atomics + epoch shootdown) and is therefore absent here.
#ifndef GVM_SRC_SYNC_ANNOTATED_MUTEX_H_
#define GVM_SRC_SYNC_ANNOTATED_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "src/sync/lock_rank.h"

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------------
#if defined(__clang__) && (!defined(SWIG))
#define GVM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GVM_THREAD_ANNOTATION(x)
#endif

#define GVM_CAPABILITY(x) GVM_THREAD_ANNOTATION(capability(x))
#define GVM_SCOPED_CAPABILITY GVM_THREAD_ANNOTATION(scoped_lockable)
#define GVM_GUARDED_BY(x) GVM_THREAD_ANNOTATION(guarded_by(x))
#define GVM_PT_GUARDED_BY(x) GVM_THREAD_ANNOTATION(pt_guarded_by(x))
#define GVM_REQUIRES(...) \
  GVM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GVM_REQUIRES_SHARED(...) \
  GVM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define GVM_ACQUIRE(...) GVM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GVM_ACQUIRE_SHARED(...) \
  GVM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define GVM_RELEASE(...) GVM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GVM_RELEASE_SHARED(...) \
  GVM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define GVM_TRY_ACQUIRE(...) \
  GVM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GVM_EXCLUDES(...) GVM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GVM_ASSERT_CAPABILITY(x) GVM_THREAD_ANNOTATION(assert_capability(x))
#define GVM_RETURN_CAPABILITY(x) GVM_THREAD_ANNOTATION(lock_returned(x))
#define GVM_NO_THREAD_SAFETY_ANALYSIS \
  GVM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gvm {

using lock_rank::Rank;

// A std::mutex that is a TSA capability and participates in runtime
// lock-rank validation.  Prefer the RAII types (MutexLock) below; Lock() /
// Unlock() exist for the rare hand-over-hand or adoption-free sites.
class GVM_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(Rank rank = Rank::kUnranked, const char* name = "Mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GVM_ACQUIRE() {
    lock_rank::BeforeAcquire(this, rank_, name_);
    mu_.lock();
  }
  void Unlock() GVM_RELEASE() {
    mu_.unlock();
    lock_rank::OnRelease(this);
  }
  bool TryLock() GVM_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::BeforeAcquire(this, rank_, name_);
    return true;
  }
  // Runtime check that the calling thread holds this mutex (lock_rank must
  // be enforced for it to have teeth); statically tells TSA the same.
  void AssertHeld() const GVM_ASSERT_CAPABILITY(this) {
    lock_rank::AssertHeld(this, name_);
  }

  Rank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  // For CondVar::Wait only: waiting atomically releases and reacquires the
  // native mutex, which RAII wrappers cannot express.
  std::mutex& native() { return mu_; }

  std::mutex mu_;
  const Rank rank_;
  const char* const name_;
};

// A std::shared_mutex capability with the same rank bookkeeping.  The rank
// validator treats shared and exclusive holds identically (a reader blocks a
// writer just as effectively for deadlock purposes).
class GVM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(Rank rank = Rank::kUnranked,
                       const char* name = "SharedMutex")
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() GVM_ACQUIRE() {
    lock_rank::BeforeAcquire(this, rank_, name_);
    mu_.lock();
  }
  void Unlock() GVM_RELEASE() {
    mu_.unlock();
    lock_rank::OnRelease(this);
  }
  void LockShared() GVM_ACQUIRE_SHARED() {
    lock_rank::BeforeAcquire(this, rank_, name_);
    mu_.lock_shared();
  }
  void UnlockShared() GVM_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::OnRelease(this);
  }
  void AssertHeld() const GVM_ASSERT_CAPABILITY(this) {
    lock_rank::AssertHeld(this, name_);
  }

  Rank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const Rank rank_;
  const char* const name_;
};

// RAII exclusive lock over Mutex, with unique_lock-style transient drop.
//
// The lowercase unlock()/lock()/owns_lock() trio deliberately carries no TSA
// annotations: they model the "drop the manager lock across a segment-driver
// upcall, retake it after" protocol, whose dropped window TSA cannot track
// through a by-reference scoped capability.  Statically the capability is
// treated as held for the guard's whole scope (the steady-state contract
// that REQUIRES callees check); the dropped window itself is covered by the
// runtime rank validator and TSan.
class GVM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GVM_ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.Lock();
  }
  ~MutexLock() GVM_RELEASE() {
    if (owned_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Transient drop/retake (un-annotated; see class comment).
  void unlock() {
    mu_.Unlock();
    owned_ = false;
  }
  void lock() {
    mu_.Lock();
    owned_ = true;
  }
  bool owns_lock() const { return owned_; }
  Mutex& mutex() { return mu_; }

 private:
  Mutex& mu_;
  bool owned_;
};

// RAII shared (reader) lock over SharedMutex.
class GVM_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) GVM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() GVM_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII exclusive (writer) lock over SharedMutex.
class GVM_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) GVM_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() GVM_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable over Mutex.  Wait() REQUIRES the mutex: TSA verifies
// every waiter actually holds it, and the rank validator's held stack is
// kept truthful across the sleep (the mutex is released while blocked).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) GVM_REQUIRES(mu) {
    lock_rank::OnRelease(&mu);
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
    lock_rank::BeforeAcquire(&mu, mu.rank(), mu.name());
  }
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) GVM_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }
  // Timed wait: returns false if `timeout_us` elapsed without a notification
  // (callers re-check their predicate either way — spurious wakeups allowed).
  // Same rank bookkeeping as Wait(): the held stack stays truthful across the
  // blocked window.
  bool WaitFor(Mutex& mu, uint64_t timeout_us) GVM_REQUIRES(mu) {
    lock_rank::OnRelease(&mu);
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    std::cv_status status =
        cv_.wait_for(native, std::chrono::microseconds(timeout_us));
    native.release();
    lock_rank::BeforeAcquire(&mu, mu.rank(), mu.name());
    return status == std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gvm

#endif  // GVM_SRC_SYNC_ANNOTATED_MUTEX_H_
