#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "obs/obs.hpp"

namespace odonn {

namespace {

/// Nesting context of the current thread. `depth` counts how many pool-task
/// levels are above this frame (0 = a plain caller thread); `budget` is how
/// many workers this context may fan out to (0 = the whole pool). Leaf
/// chunk tasks run with budget 1, so a parallel_for nested inside another
/// parallel_for's body still runs inline; parallel_tasks lanes get an
/// even share so a pipeline running as a task keeps parallelizing.
thread_local std::size_t t_depth = 0;
thread_local std::size_t t_budget = 0;

/// Installs a task's nesting context for its execution and restores the
/// previous one afterwards (the same thread may interleave contexts when
/// it helps drain the queue while waiting).
class ContextGuard {
 public:
  ContextGuard(std::size_t depth, std::size_t budget)
      : saved_depth_(t_depth), saved_budget_(t_budget) {
    t_depth = depth;
    t_budget = budget;
  }
  ~ContextGuard() {
    t_depth = saved_depth_;
    t_budget = saved_budget_;
  }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  std::size_t saved_depth_;
  std::size_t saved_budget_;
};

#ifndef ODONN_OBS_DISABLE
/// Per-depth queue-wait histograms (submit -> pop latency). Depths beyond
/// 4 fold into the depth4 bucket. Only sampled when obs::detail_enabled()
/// — stamping every task with a clock read is detail-level overhead.
void observe_queue_wait(std::size_t depth, double wait_us) {
  static obs::Histogram* const hists[4] = {
      &obs::MetricsRegistry::global().histogram(
          "parallel.queue_wait_us.depth1"),
      &obs::MetricsRegistry::global().histogram(
          "parallel.queue_wait_us.depth2"),
      &obs::MetricsRegistry::global().histogram(
          "parallel.queue_wait_us.depth3"),
      &obs::MetricsRegistry::global().histogram(
          "parallel.queue_wait_us.depth4"),
  };
  const std::size_t index = std::min<std::size_t>(depth, 4) - 1;
  hists[index]->observe(wait_us);
}
#endif  // ODONN_OBS_DISABLE

/// Work-queue thread pool. Built lazily on first fan-out; lives for the
/// process. Tasks carry their nesting depth so a waiting submitter only
/// helps with work at its own depth or deeper — a latch waiter never picks
/// up a shallower (potentially long-running) task that would delay its own
/// return, while the depth-0 caller may run anything.
class ThreadPool {
 public:
  /// Starts n workers. If the system refuses a thread (address-space or
  /// process limits), the workers already started are stopped and joined
  /// before a ConfigError reports how many could start: a joinable
  /// std::thread destroyed during unwinding would abort the process.
  explicit ThreadPool(std::size_t n) {
    try {
      workers_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    } catch (const std::exception& error) {
      const std::size_t started = workers_.size();
      stop();
      throw ConfigError("thread pool: started only " +
                        std::to_string(started) + " of " + std::to_string(n) +
                        " worker threads (" + error.what() +
                        "); lower ODONN_THREADS");
    }
  }

  ~ThreadPool() { stop(); }

  std::size_t size() const { return workers_.size(); }

  void submit(std::size_t depth, std::function<void()> fn)
      ODONN_EXCLUDES(mutex_) {
    Task task{std::move(fn), depth, {}, false};
#ifndef ODONN_OBS_DISABLE
    if (obs::detail_enabled()) {
      task.submitted = std::chrono::steady_clock::now();
      task.timed = true;
    }
#endif
    {
      MutexLock lock(mutex_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Runs one queued task with depth >= min_depth on the calling thread.
  /// Returns false when no such task is queued.
  bool try_help(std::size_t min_depth) ODONN_EXCLUDES(mutex_) {
    Task task;
    {
      MutexLock lock(mutex_);
      for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
        if (it->depth >= min_depth) {
          task = std::move(*it);
          tasks_.erase(it);
          break;
        }
      }
    }
    if (!task.fn) return false;
    note_pop(task);
    task.fn();
    return true;
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::size_t depth = 0;
    /// Submit timestamp for the queue-wait histograms; only stamped (and
    /// `timed` set) when obs::detail_enabled() at submit time.
    std::chrono::steady_clock::time_point submitted{};
    bool timed = false;
  };

  /// Observability bookkeeping at the moment a task leaves the queue.
  /// Reads clocks and bumps atomics only — no effect on scheduling.
  static void note_pop(const Task& task) {
    ODONN_OBS_COUNT("parallel.tasks", 1);
#ifndef ODONN_OBS_DISABLE
    if (task.timed) {
      const double wait_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - task.submitted)
              .count();
      observe_queue_wait(task.depth, wait_us);
    }
#else
    (void)task;
#endif
  }

  void stop() ODONN_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void worker_loop() {
    for (;;) {
      Task task;
      {
        MutexLock lock(mutex_);
        cv_.wait(mutex_,
                 [this]() ODONN_REQUIRES(mutex_) {
                   return stopping_ || !tasks_.empty();
                 });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      note_pop(task);
      task.fn();
    }
  }

  Mutex mutex_;
  CondVar cv_;
  std::deque<Task> tasks_ ODONN_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  bool stopping_ ODONN_GUARDED_BY(mutex_) = false;
};

Mutex g_pool_mutex;
std::size_t g_requested_threads ODONN_GUARDED_BY(g_pool_mutex) = 0;  // 0 = auto
std::atomic<bool> g_pool_built{false};

/// Largest ODONN_THREADS value.
constexpr std::size_t kMaxThreads = 1024;

/// ODONN_THREADS as a whole number in [1, kMaxThreads]; unset or empty
/// means hardware_concurrency(). Anything else (a sign, blanks, a suffix,
/// 0, too many) is a ConfigError rather than a silent fallback.
std::size_t default_thread_count() {
  const char* env = std::getenv("ODONN_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  std::size_t n = 0;
  for (const char* c = env; *c != '\0' && n <= kMaxThreads; ++c) {
    if (*c < '0' || *c > '9') {
      n = 0;
      break;
    }
    n = n * 10 + static_cast<std::size_t>(*c - '0');
  }
  if (n < 1 || n > kMaxThreads) {
    throw ConfigError("ODONN_THREADS='" + std::string(env) +
                      "' must be a whole number in [1, " +
                      std::to_string(kMaxThreads) + "]");
  }
  return n;
}

ThreadPool& pool() {
  static ThreadPool* instance = [] {
    MutexLock lock(g_pool_mutex);
    const std::size_t n =
        g_requested_threads > 0 ? g_requested_threads : default_thread_count();
    // A constructor that throws leaves the pool unbuilt: the next parallel
    // call retries.
    ThreadPool* built = new ThreadPool(n);
    g_pool_built.store(true);
    return built;
  }();
  return *instance;
}

/// Countdown latch whose wait() HELPS: while tasks of this batch (or any
/// deeper work) sit in the queue, the waiter runs them on its own thread
/// instead of idling. Liveness: a waiter only sleeps once the queue holds
/// nothing at its depth or deeper, which means every task of its batch is
/// already executing on some thread — each will count_down and wake it.
struct Latch {
  Mutex m;
  CondVar cv;
  std::size_t remaining ODONN_GUARDED_BY(m);
  std::exception_ptr first_error ODONN_GUARDED_BY(m);

  explicit Latch(std::size_t n) : remaining(n) {}

  void count_down(std::exception_ptr err) ODONN_EXCLUDES(m) {
    MutexLock lock(m);
    if (err && !first_error) first_error = err;
    if (--remaining == 0) cv.notify_all();
  }

  void wait_helping(ThreadPool& help, std::size_t min_depth)
      ODONN_EXCLUDES(m) {
    for (;;) {
      {
        MutexLock lock(m);
        if (remaining == 0) break;
      }
      if (!help.try_help(min_depth)) {
        MutexLock lock(m);
        if (remaining == 0) break;
        // Sleep until a count_down. Work enqueued while we sleep belongs
        // to other batches; its own submitters (or free workers) run it.
        cv.wait(m);
      }
    }
    MutexLock lock(m);
    if (first_error) std::rethrow_exception(first_error);
  }
};

}  // namespace

std::size_t thread_count() {
  if (g_pool_built.load()) return pool().size();
  MutexLock lock(g_pool_mutex);
  return g_requested_threads > 0 ? g_requested_threads : default_thread_count();
}

void set_thread_count(std::size_t n) {
  if (n < 1) throw ConfigError("set_thread_count: thread count must be >= 1");
  MutexLock lock(g_pool_mutex);
  if (g_pool_built.load()) {
    // The pool cannot be resized once built (worker threads and queued
    // work reference it), but re-stating the current size is harmless.
    const std::size_t current = pool().size();
    if (current == n) return;
    throw ConfigError(
        "set_thread_count(" + std::to_string(n) +
        "): the shared pool is already running " + std::to_string(current) +
        " thread(s), fixed by the first parallel call; call it before any "
        "parallel work or set ODONN_THREADS instead");
  }
  g_requested_threads = n;
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  // Fan out within this context's budget: the whole pool at top level, an
  // explicit share inside a parallel_tasks lane, one thread inside a leaf
  // chunk (nested loops run inline).
  const std::size_t budget = t_budget == 0 ? thread_count() : t_budget;

  if (budget <= 1 || total <= grain) {
    fn(begin, end);
    return;
  }

  // Cap chunk count at ~4x the budget for load balance without queue churn.
  std::size_t chunks = std::min(total / grain + (total % grain != 0 ? 1 : 0),
                                budget * 4);
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t step = (total + chunks - 1) / chunks;
  chunks = (total + step - 1) / step;

  const std::size_t depth = t_depth + 1;
  Latch latch(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    pool().submit(depth, [&fn, &latch, lo, hi, depth] {
      ContextGuard context(depth, /*budget=*/1);
      std::exception_ptr err;
      try {
        fn(lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      latch.count_down(err);
    });
  }
  latch.wait_helping(pool(), depth);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

void parallel_tasks(std::vector<std::function<void()>> tasks,
                    std::size_t max_concurrent) {
  const std::size_t n = tasks.size();
  if (n == 0) return;
  const std::size_t budget = t_budget == 0 ? thread_count() : t_budget;
  const std::size_t lanes =
      max_concurrent == 0 ? n : std::min(n, max_concurrent);

  if (lanes <= 1 || budget <= 1) {
    // Sequential reference path: index order on the caller, full current
    // budget per task, first error propagates immediately.
    for (auto& task : tasks) task();
    return;
  }

  const std::size_t share = std::max<std::size_t>(1, budget / lanes);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(n);
  const std::size_t depth = t_depth + 1;
  Latch latch(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool().submit(depth, [&tasks, &next, &failed, &errors, n, depth, share,
                          &latch] {
      ContextGuard context(depth, share);
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) break;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          tasks[i]();
        } catch (...) {
          errors[i] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      latch.count_down(nullptr);
    });
  }
  latch.wait_helping(pool(), depth);
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

ScopedThreadBudget::ScopedThreadBudget(std::size_t budget)
    : saved_(t_budget) {
  t_budget = budget;
}

ScopedThreadBudget::~ScopedThreadBudget() { t_budget = saved_; }

}  // namespace odonn
