// sync.hpp - the repo's single gateway to mutual exclusion.
//
// Every mutex-protected field in src/ uses the tdp::Mutex / tdp::SharedMutex
// wrappers below together with the TDP_* Clang Thread Safety Analysis
// attributes, so lock discipline is proven at compile time under
// `clang++ -Wthread-safety -Werror` and compiles to plain std primitives
// everywhere else. scripts/tdpsa enforces that no raw std::mutex /
// std::lock_guard / std::condition_variable appears outside this header.
//
// Debug builds additionally carry a runtime LockOrderGraph inside the
// wrappers: a per-thread held-lock stack plus a global acquired-after edge
// set. An acquisition that would close a cycle in the edge set — a lock-order
// inversion that the static analysis cannot see because it spans objects or
// depends on dynamic state — aborts deterministically with the lock names of
// both the held stack and the offending path, instead of deadlocking a
// production run. See DESIGN.md §10 for the canonical lock-ordering table
// and how to read an abort.
//
// Release builds (NDEBUG) compile all of the checking out: tdp::Mutex is
// layout-identical to std::mutex (static_assert'd in tests/util/sync
// release tests).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops off clang).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TDP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef TDP_THREAD_ANNOTATION
#define TDP_THREAD_ANNOTATION(x)  // not clang: annotations vanish
#endif

/// Marks a class as a lockable capability (mutexes).
#define TDP_CAPABILITY(x) TDP_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose ctor acquires and dtor releases a capability.
#define TDP_SCOPED_CAPABILITY TDP_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be touched while `x` is held.
#define TDP_GUARDED_BY(x) TDP_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be touched while `x` is held.
#define TDP_PT_GUARDED_BY(x) TDP_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function must be called with the capability held (exclusive).
#define TDP_REQUIRES(...) TDP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function must be called with the capability held (shared or exclusive).
#define TDP_REQUIRES_SHARED(...) \
  TDP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability and does not release it.
#define TDP_ACQUIRE(...) TDP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TDP_ACQUIRE_SHARED(...) \
  TDP_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability.
#define TDP_RELEASE(...) TDP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TDP_RELEASE_SHARED(...) \
  TDP_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `cond`.
#define TDP_TRY_ACQUIRE(...) \
  TDP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TDP_TRY_ACQUIRE_SHARED(...) \
  TDP_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
/// Function must be called with the capability NOT held (deadlock guard).
#define TDP_EXCLUDES(...) TDP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held; teaches the analysis too.
#define TDP_ASSERT_HELD(...) TDP_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))
#define TDP_ASSERT_HELD_SHARED(...) \
  TDP_THREAD_ANNOTATION(assert_shared_capability(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define TDP_RETURN_CAPABILITY(x) TDP_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use needs a justification comment.
#define TDP_NO_THREAD_SAFETY_ANALYSIS \
  TDP_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock-order detector switch. On in Debug (!NDEBUG), off in Release;
// override per-target with -DTDP_LOCK_ORDER_CHECKS=0/1.
// ---------------------------------------------------------------------------

#ifndef TDP_LOCK_ORDER_CHECKS
#ifdef NDEBUG
#define TDP_LOCK_ORDER_CHECKS 0
#else
#define TDP_LOCK_ORDER_CHECKS 1
#endif
#endif

namespace tdp {

/// Compile-time visibility of the detector state (for tests/diagnostics).
inline constexpr bool kLockOrderChecksEnabled = TDP_LOCK_ORDER_CHECKS != 0;

#if TDP_LOCK_ORDER_CHECKS

namespace sync_internal {

/// Global acquired-after graph + per-thread held-lock stacks.
///
/// Edge A→B means "B was acquired while A was held". Before an acquisition
/// of B with A held we check whether A is reachable *from* B through the
/// existing edges; if so, some other code path acquires in the opposite
/// order and the program can deadlock — abort now, deterministically, with
/// both lock names, rather than hanging on an unlucky schedule.
class LockOrderGraph {
 public:
  using ViolationHandler = void (*)(const std::string& message);

  static LockOrderGraph& instance() {
    static LockOrderGraph g;
    return g;
  }

  /// Called BEFORE blocking on `lock`. Records edges held→lock, checks for
  /// cycles and reentrant acquisition, and invokes the violation handler
  /// (default: print + abort) on a violation.
  void check_acquire(const void* lock, const char* name, bool shared) {
    std::vector<Held>& held = held_stack();
    for (const Held& h : held) {
      if (h.lock == lock) {
        report(std::string("lock-order violation: reentrant acquisition of ") +
               (shared ? "shared " : "") + "lock \"" + name +
               "\" already held by this thread (" + describe_stack(held) + ")");
        return;
      }
    }
    if (held.empty()) return;
    std::lock_guard<std::mutex> g(mu_);
    names_[lock] = name;
    for (const Held& h : held) {
      names_[h.lock] = h.name;
      if (edges_[h.lock].insert(lock).second) {
        // New edge h→lock. A cycle exists iff h is reachable from lock.
        std::vector<const void*> path;
        seen_.clear();
        seen_.insert(lock);
        if (reachable(lock, h.lock, path)) {
          std::string msg =
              std::string("lock-order violation: acquiring \"") + name +
              "\" while holding \"" + h.name +
              "\" inverts the established order (this thread holds: " +
              describe_stack(held) + "; prior order: ";
          for (std::size_t i = 0; i < path.size(); ++i) {
            if (i) msg += " -> ";
            msg += '"';
            msg += name_of(path[i]);
            msg += '"';
          }
          msg += " -> \"";
          msg += h.name;
          msg += "\")";
          report(std::move(msg));
          return;
        }
      }
    }
  }

  /// Called AFTER `lock` is actually held.
  void on_acquired(const void* lock, const char* name, bool shared) {
    held_stack().push_back(Held{lock, name, shared});
  }

  /// Called before releasing `lock` (any position in the stack).
  void on_release(const void* lock) {
    std::vector<Held>& held = held_stack();
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (it->lock == lock) {
        held.erase(std::next(it).base());
        return;
      }
    }
  }

  /// True when this thread holds `lock` (exclusively when `exclusive`).
  bool held_by_this_thread(const void* lock, bool require_exclusive) const {
    for (const Held& h : held_stack()) {
      if (h.lock == lock) return !require_exclusive || !h.shared;
    }
    return false;
  }

  /// A destroyed lock must leave no dangling edges that alias a future
  /// allocation at the same address.
  void forget(const void* lock) {
    std::lock_guard<std::mutex> g(mu_);
    edges_.erase(lock);
    for (auto& [from, to] : edges_) to.erase(lock);
    names_.erase(lock);
  }

  /// Tests: replace print+abort with a recording handler. Returns previous.
  ViolationHandler set_violation_handler(ViolationHandler h) {
    std::lock_guard<std::mutex> g(report_mu_);
    ViolationHandler old = handler_;
    handler_ = h;
    return old;
  }

  /// Tests: drop all recorded edges (fresh graph between test cases).
  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    edges_.clear();
    names_.clear();
  }

 private:
  struct Held {
    const void* lock;
    const char* name;
    bool shared;
  };

  static std::vector<Held>& held_stack() {
    thread_local std::vector<Held> stack;
    return stack;
  }

  // mu_ held by callers of reachable/name_of.
  bool reachable(const void* from, const void* to, std::vector<const void*>& path) {
    if (from == to) return true;
    path.push_back(from);
    auto it = edges_.find(from);
    if (it != edges_.end()) {
      for (const void* next : it->second) {
        if (seen_.insert(next).second && reachable(next, to, path)) return true;
      }
    }
    path.pop_back();
    return false;
  }

  const char* name_of(const void* lock) {
    auto it = names_.find(lock);
    return it == names_.end() ? "<unknown>" : it->second;
  }

  static std::string describe_stack(const std::vector<Held>& held) {
    std::string out;
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (i) out += ", ";
      out += '"';
      out += held[i].name;
      out += '"';
      if (held[i].shared) out += " (shared)";
    }
    return out.empty() ? std::string("<nothing>") : out;
  }

  void report(std::string message) {
    ViolationHandler h;
    {
      std::lock_guard<std::mutex> g(report_mu_);
      h = handler_;
    }
    if (h != nullptr) {
      h(message);
      return;
    }
    std::fprintf(stderr, "tdp::sync FATAL: %s\n", message.c_str());
    std::fflush(stderr);
    std::abort();
  }

  std::mutex mu_;  // guards edges_, names_, seen_ (raw: cannot self-instrument)
  std::mutex report_mu_;  // guards handler_; separate so report() fired while
                          // mu_ is held never re-enters mu_
  std::unordered_map<const void*, std::unordered_set<const void*>> edges_;
  std::unordered_map<const void*, const char*> names_;
  std::unordered_set<const void*> seen_;  // per-query visited set (under mu_)

  ViolationHandler handler_ = nullptr;
};

}  // namespace sync_internal

#endif  // TDP_LOCK_ORDER_CHECKS

// ---------------------------------------------------------------------------
// Mutex / SharedMutex
// ---------------------------------------------------------------------------

/// std::mutex wrapper carrying the `capability` attribute and (Debug) the
/// lock-order detector hooks. Construct with a stable name so detector
/// aborts read like a report, not a pointer dump.
class TDP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if TDP_LOCK_ORDER_CHECKS
  explicit Mutex(const char* name) : name_(name) {}
  ~Mutex() { sync_internal::LockOrderGraph::instance().forget(this); }
#else
  explicit Mutex(const char*) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TDP_ACQUIRE() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().check_acquire(this, name_, false);
#endif
    m_.lock();
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_acquired(this, name_, false);
#endif
  }

  bool try_lock() TDP_TRY_ACQUIRE(true) {
    // Non-blocking: cannot deadlock, so no order edge is recorded.
    bool ok = m_.try_lock();
#if TDP_LOCK_ORDER_CHECKS
    if (ok) sync_internal::LockOrderGraph::instance().on_acquired(this, name_, false);
#endif
    return ok;
  }

  void unlock() TDP_RELEASE() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_release(this);
#endif
    m_.unlock();
  }

  /// Debug: dies unless this thread holds the mutex. Teaches the static
  /// analysis the capability is held on paths it cannot see (callbacks).
  void assert_held() const TDP_ASSERT_HELD() {
#if TDP_LOCK_ORDER_CHECKS
    if (!sync_internal::LockOrderGraph::instance().held_by_this_thread(this, true)) {
      std::fprintf(stderr, "tdp::sync FATAL: \"%s\" expected held by this thread\n",
                   name_);
      std::abort();
    }
#endif
  }

  /// Debug: dies if this thread holds the mutex — the "callbacks fire
  /// outside locks" invariant, asserted instead of commented.
  void assert_not_held() const {
#if TDP_LOCK_ORDER_CHECKS
    if (sync_internal::LockOrderGraph::instance().held_by_this_thread(this, false)) {
      std::fprintf(stderr,
                   "tdp::sync FATAL: \"%s\" held by this thread but must not be\n",
                   name_);
      std::abort();
    }
#endif
  }

 private:
  std::mutex m_;
#if TDP_LOCK_ORDER_CHECKS
  const char* name_ = "tdp::Mutex";
#endif
};

/// std::shared_mutex wrapper; same discipline, plus Debug rejection of
/// reentrant read-locks (std::shared_mutex makes them UB-adjacent: a
/// pending writer between the two read acquisitions deadlocks the thread).
class TDP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
#if TDP_LOCK_ORDER_CHECKS
  explicit SharedMutex(const char* name) : name_(name) {}
  ~SharedMutex() { sync_internal::LockOrderGraph::instance().forget(this); }
#else
  explicit SharedMutex(const char*) {}
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TDP_ACQUIRE() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().check_acquire(this, name_, false);
#endif
    m_.lock();
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_acquired(this, name_, false);
#endif
  }

  bool try_lock() TDP_TRY_ACQUIRE(true) {
    bool ok = m_.try_lock();
#if TDP_LOCK_ORDER_CHECKS
    if (ok) sync_internal::LockOrderGraph::instance().on_acquired(this, name_, false);
#endif
    return ok;
  }

  void unlock() TDP_RELEASE() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_release(this);
#endif
    m_.unlock();
  }

  void lock_shared() TDP_ACQUIRE_SHARED() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().check_acquire(this, name_, true);
#endif
    m_.lock_shared();
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_acquired(this, name_, true);
#endif
  }

  bool try_lock_shared() TDP_TRY_ACQUIRE_SHARED(true) {
    bool ok = m_.try_lock_shared();
#if TDP_LOCK_ORDER_CHECKS
    if (ok) sync_internal::LockOrderGraph::instance().on_acquired(this, name_, true);
#endif
    return ok;
  }

  void unlock_shared() TDP_RELEASE_SHARED() {
#if TDP_LOCK_ORDER_CHECKS
    sync_internal::LockOrderGraph::instance().on_release(this);
#endif
    m_.unlock_shared();
  }

  void assert_held() const TDP_ASSERT_HELD() {
#if TDP_LOCK_ORDER_CHECKS
    if (!sync_internal::LockOrderGraph::instance().held_by_this_thread(this, true)) {
      std::fprintf(stderr, "tdp::sync FATAL: \"%s\" expected held (exclusive)\n",
                   name_);
      std::abort();
    }
#endif
  }

  void assert_held_shared() const TDP_ASSERT_HELD_SHARED() {
#if TDP_LOCK_ORDER_CHECKS
    if (!sync_internal::LockOrderGraph::instance().held_by_this_thread(this, false)) {
      std::fprintf(stderr, "tdp::sync FATAL: \"%s\" expected held (any mode)\n",
                   name_);
      std::abort();
    }
#endif
  }

  void assert_not_held() const {
#if TDP_LOCK_ORDER_CHECKS
    if (sync_internal::LockOrderGraph::instance().held_by_this_thread(this, false)) {
      std::fprintf(stderr,
                   "tdp::sync FATAL: \"%s\" held by this thread but must not be\n",
                   name_);
      std::abort();
    }
#endif
  }

 private:
  std::shared_mutex m_;
#if TDP_LOCK_ORDER_CHECKS
  const char* name_ = "tdp::SharedMutex";
#endif
};

// ---------------------------------------------------------------------------
// RAII guards
// ---------------------------------------------------------------------------

/// Exclusive RAII guard over tdp::Mutex or tdp::SharedMutex.
template <class M>
class TDP_SCOPED_CAPABILITY BasicLockGuard {
 public:
  explicit BasicLockGuard(M& m) TDP_ACQUIRE(m) : mu_(&m) { mu_->lock(); }
  BasicLockGuard(M& m, std::defer_lock_t) TDP_EXCLUDES(m) : mu_(&m), owned_(false) {}

  BasicLockGuard(const BasicLockGuard&) = delete;
  BasicLockGuard& operator=(const BasicLockGuard&) = delete;

  ~BasicLockGuard() TDP_RELEASE() {
    if (owned_) mu_->unlock();
  }

  void lock() TDP_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }

  void unlock() TDP_RELEASE() {
    mu_->unlock();
    owned_ = false;
  }

  [[nodiscard]] bool owns_lock() const { return owned_; }

 private:
  template <class CV>
  friend class BasicCondVar;
  M* mu_;
  bool owned_ = true;
};

using LockGuard = BasicLockGuard<Mutex>;
using UniqueLock = BasicLockGuard<Mutex>;  // relock-capable alias, same type
using WriteLock = BasicLockGuard<SharedMutex>;

/// Shared (reader) RAII guard over tdp::SharedMutex.
class TDP_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& m) TDP_ACQUIRE_SHARED(m) : mu_(&m) {
    mu_->lock_shared();
  }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

  ~SharedLock() TDP_RELEASE() {
    if (owned_) mu_->unlock_shared();
  }

  void unlock() TDP_RELEASE() {
    mu_->unlock_shared();
    owned_ = false;
  }

 private:
  SharedMutex* mu_;
  bool owned_ = true;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// Condition variable paired with tdp::Mutex via LockGuard. Implemented on
/// condition_variable_any so the wait path re-enters Mutex::lock and keeps
/// the lock-order detector's held-set exact across the sleep.
template <class CV>
class BasicCondVar {
 public:
  BasicCondVar() = default;
  BasicCondVar(const BasicCondVar&) = delete;
  BasicCondVar& operator=(const BasicCondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(LockGuard& g) { cv_.wait(*g.mu_); }

  template <class Pred>
  void wait(LockGuard& g, Pred pred) {
    cv_.wait(*g.mu_, std::move(pred));
  }

  template <class Rep, class Period>
  std::cv_status wait_for(LockGuard& g, const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(*g.mu_, d);
  }

  template <class Rep, class Period, class Pred>
  bool wait_for(LockGuard& g, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    return cv_.wait_for(*g.mu_, d, std::move(pred));
  }

  template <class Clock, class Duration, class Pred>
  bool wait_until(LockGuard& g,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    return cv_.wait_until(*g.mu_, deadline, std::move(pred));
  }

 private:
  CV cv_;
};

using CondVar = BasicCondVar<std::condition_variable_any>;

}  // namespace tdp
