// Clang Thread Safety Analysis annotations + the annotated lock types the
// analysis needs to see.
//
// The repo's headline guarantee — bitwise-identical digests across
// ODONN_THREADS, jobs=, replica counts and obs on/off — rests on a handful
// of mutex-protected structures (thread pool, serve engine/cluster, obs
// registry/trace, recipe-runner progress, fab encode cache, fft plan cache,
// log emitter). These macros let clang check the locking discipline at
// compile time (-Wthread-safety -Werror=thread-safety, enabled
// automatically for clang builds in CMakeLists.txt); on every other
// compiler they expand to NOTHING, so gcc builds are byte-identical to the
// unannotated code (tests/annotations_test.cpp proves the no-op expansion).
//
// libstdc++'s std::mutex carries no capability attributes, so the analysis
// cannot track std::lock_guard / std::condition_variable. Annotated
// wrappers live here instead:
//   * odonn::Mutex      — std::mutex annotated as a capability
//   * odonn::MutexLock  — scoped acquire/release (std::lock_guard shape)
//   * odonn::CondVar    — condition_variable_any over Mutex; wait()
//                         declares ODONN_REQUIRES(mutex) so the analysis
//                         knows the lock is held across the wait
// Concurrent code in src/ uses these instead of the std types; the
// wrappers add no state and inline away to the std calls.
//
// Annotation cheat sheet (all no-ops off clang):
//   ODONN_GUARDED_BY(mu)   member may only be read/written with mu held
//   ODONN_PT_GUARDED_BY(mu) pointee of a pointer member guarded by mu
//   ODONN_REQUIRES(mu)     function may only be called with mu held
//   ODONN_ACQUIRE(mu)      function acquires mu and does not release it
//   ODONN_RELEASE(mu)      function releases mu
//   ODONN_EXCLUDES(mu)     function must NOT be called with mu held
//                          (documents public entry points; catches
//                          self-deadlock)
//   ODONN_NO_THREAD_SAFETY_ANALYSIS  opt a function out (needs a comment
//                          saying why at every use site)
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define ODONN_THREAD_ANNOTATIONS_ENABLED 1
#define ODONN_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define ODONN_THREAD_ANNOTATIONS_ENABLED 0
#define ODONN_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

#define ODONN_CAPABILITY(x) ODONN_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define ODONN_SCOPED_CAPABILITY \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)
#define ODONN_GUARDED_BY(x) ODONN_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define ODONN_PT_GUARDED_BY(x) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))
#define ODONN_REQUIRES(...) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define ODONN_ACQUIRE(...) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ODONN_RELEASE(...) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define ODONN_TRY_ACQUIRE(...) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define ODONN_EXCLUDES(...) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ODONN_RETURN_CAPABILITY(x) \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))
#define ODONN_NO_THREAD_SAFETY_ANALYSIS \
  ODONN_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace odonn {

/// std::mutex annotated as a thread-safety capability. Same size and
/// semantics as std::mutex; exists only so clang can track which functions
/// hold it.
class ODONN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ODONN_ACQUIRE() { m_.lock(); }
  void unlock() ODONN_RELEASE() { m_.unlock(); }
  bool try_lock() ODONN_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// std::lock_guard over Mutex, annotated as a scoped capability so the
/// analysis credits the lock for the lifetime of the guard.
class ODONN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ODONN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ODONN_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over the annotated Mutex (condition_variable_any
/// accepts any BasicLockable). wait() declares ODONN_REQUIRES(mu): callers
/// must hold the lock, and the analysis treats it as held across the wait —
/// matching the actual unlock/relock the CV performs internally.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) ODONN_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) ODONN_REQUIRES(mu) {
    cv_.wait(mu, pred);
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur,
                Predicate pred) ODONN_REQUIRES(mu) {
    return cv_.wait_for(mu, dur, pred);
  }

  template <typename Clock, typename Duration, typename Predicate>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Predicate pred) ODONN_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline, pred);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace odonn
