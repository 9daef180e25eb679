// Annotated synchronization primitives: thin wrappers over std::mutex /
// std::condition_variable_any that carry Clang thread-safety-analysis
// capability attributes (common/thread_annotations.h). The std types carry
// no attributes, so code that wants the compile-time lock discipline must
// use these instead.
//
// Debug builds additionally get a runtime lock-order validator (a
// lockdep-lite): every Mutex acquisition is checked against the global
// acquisition-order graph observed so far, and an inversion — acquiring B
// while holding A after some thread has ever acquired A while holding B —
// aborts immediately with both order witnesses, instead of deadlocking one
// run in a thousand. This is the dynamic cross-check of the static graph
// `tools/analyze/planet_analyze` extracts at build time (rule
// lock-order-cycle): the static pass sees all paths but approximates, the
// runtime pass is exact but only sees executed paths.
#ifndef PLANET_COMMON_MUTEX_H_
#define PLANET_COMMON_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "common/thread_annotations.h"

// The validator is compiled in unconditionally (identical class layouts in
// every build type; Mutex is host-side coordination, never sim-hot-path) and
// gated by a runtime flag that defaults on wherever the single-owner thread
// assertions are on: Debug, sanitizer, or -DPLANET_THREAD_CHECKS builds.
#if defined(PLANET_THREAD_CHECKS)
#define PLANET_LOCK_ORDER_CHECKS_DEFAULT true
#else
#define PLANET_LOCK_ORDER_CHECKS_DEFAULT false
#endif

namespace planet {

class Mutex;

/// Global acquisition-order registry behind the runtime validator. An edge
/// A -> B is recorded the first time any thread acquires B while holding A;
/// a later acquisition that would need the reverse direction (a path
/// B -> ... -> A already registered) is a potential deadlock and aborts via
/// PLANET_CHECK_MSG. TryLock acquisitions are tracked as held but record no
/// edges: try-with-backoff is a sanctioned order-breaking idiom.
class LockOrderGraph {
 public:
  static LockOrderGraph& Instance() {
    static LockOrderGraph graph;
    return graph;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Tests (and tools that legitimately probe inversions) may toggle the
  /// validator regardless of build type.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Checks and records `mu` against everything this thread holds, then
  /// marks it held. Call before blocking on the underlying lock, so an
  /// inversion reports instead of deadlocking.
  void OnAcquire(const Mutex* mu, const char* name) {
    if (!enabled()) return;
    Held& held = ThreadHeld();
    {
      std::lock_guard<std::mutex> g(graph_mu_);
      for (int i = 0; i < held.count; ++i) {
        PLANET_CHECK_MSG(held.mu[i] != mu,
                         "recursive acquisition of mutex '"
                             << name << "' (planet::Mutex is non-recursive)");
        // Would create held -> mu; fatal if mu -> ... -> held exists.
        if (Reaches(mu, held.mu[i])) {
          PLANET_CHECK_MSG(
              false, "lock-order inversion: acquiring '"
                         << name << "' while holding '" << held.name[i]
                         << "', but some thread already acquired '"
                         << held.name[i] << "' after '" << name
                         << "' (run tools/analyze/planet_analyze --dot for "
                            "the full static lock-order graph)");
        }
        AddEdge(held.mu[i], mu);
      }
    }
    Push(held, mu, name);
  }

  /// Marks `mu` held without recording or checking order (TryLock path).
  void OnTryAcquire(const Mutex* mu, const char* name) {
    if (!enabled()) return;
    Push(ThreadHeld(), mu, name);
  }

  void OnRelease(const Mutex* mu) {
    if (!enabled()) return;
    Held& held = ThreadHeld();
    // Remove the most recent entry for `mu`; tolerate absence (the flag may
    // have been flipped while locks were held).
    for (int i = held.count - 1; i >= 0; --i) {
      if (held.mu[i] == mu) {
        for (int j = i; j + 1 < held.count; ++j) {
          held.mu[j] = held.mu[j + 1];
          held.name[j] = held.name[j + 1];
        }
        --held.count;
        return;
      }
    }
  }

  /// Drops every recorded edge (test isolation).
  void ResetForTest() {
    std::lock_guard<std::mutex> g(graph_mu_);
    edge_count_ = 0;
    overflowed_ = false;
  }

 private:
  static constexpr int kMaxHeld = 16;    // deepest legal nesting per thread
  static constexpr int kMaxEdges = 256;  // distinct ordered pairs tree-wide

  struct Held {
    const Mutex* mu[kMaxHeld];
    const char* name[kMaxHeld];
    int count = 0;
  };
  struct Edge {
    const Mutex* before;
    const Mutex* after;
  };

  LockOrderGraph() : enabled_(PLANET_LOCK_ORDER_CHECKS_DEFAULT) {}

  static Held& ThreadHeld() {
    static thread_local Held held;
    return held;
  }

  void Push(Held& held, const Mutex* mu, const char* name) {
    PLANET_CHECK_MSG(held.count < kMaxHeld,
                     "thread holds " << kMaxHeld
                                     << " mutexes at once; raise kMaxHeld "
                                        "if this nesting is intentional");
    held.mu[held.count] = mu;
    held.name[held.count] = name;
    ++held.count;
  }

  // All three below REQUIRE graph_mu_ (a raw std::mutex: the validator must
  // not instrument itself), which TSA cannot express for a std type.
  void AddEdge(const Mutex* a, const Mutex* b) {
    for (int i = 0; i < edge_count_; ++i) {
      if (edges_[i].before == a && edges_[i].after == b) return;
    }
    if (edge_count_ >= kMaxEdges) {
      overflowed_ = true;  // degrade to partial coverage, never to aborts
      return;
    }
    edges_[edge_count_++] = {a, b};
  }

  /// DFS: is there a recorded path from -> ... -> to?
  bool Reaches(const Mutex* from, const Mutex* to) {
    const Mutex* stack[kMaxEdges];
    bool seen[kMaxEdges] = {};
    int sp = 0;
    stack[sp++] = from;
    while (sp > 0) {
      const Mutex* cur = stack[--sp];
      for (int i = 0; i < edge_count_; ++i) {
        if (edges_[i].before != cur || seen[i]) continue;
        seen[i] = true;
        if (edges_[i].after == to) return true;
        if (sp < kMaxEdges) stack[sp++] = edges_[i].after;
      }
    }
    return false;
  }

  std::atomic<bool> enabled_;
  std::mutex graph_mu_;
  Edge edges_[kMaxEdges];
  int edge_count_ = 0;
  bool overflowed_ = false;
};

/// A std::mutex with TSA capability attributes. Also satisfies the standard
/// BasicLockable / Lockable requirements (lock/unlock/try_lock), so it can
/// back a std::condition_variable_any wait. Optionally named, so validator
/// diagnostics read "'ThreadPool::mu_'" instead of a pointer.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    LockOrderGraph::Instance().OnAcquire(this, name_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    LockOrderGraph::Instance().OnRelease(this);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    LockOrderGraph::Instance().OnTryAcquire(this, name_);
    return true;
  }

  /// Standard-library spellings (BasicLockable/Lockable), equally annotated.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const char* name_ = "planet::Mutex";
};

/// RAII lock for a planet::Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with planet::Mutex. Wait() releases and
/// re-acquires the mutex internally, which the static analysis cannot
/// follow, so its body is exempt — the REQUIRES contract on the caller is
/// still enforced. (The runtime validator *does* follow it: the wait goes
/// through Mutex::unlock/lock, so the held set stays truthful while
/// blocked.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until `pred()` holds. `mu` must be held on entry and is held on
  /// return; it is released while blocked.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu, pred);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace planet

#endif  // PLANET_COMMON_MUTEX_H_
