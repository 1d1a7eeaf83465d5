// Shared thread pool and deterministic parallel loops.
//
// odonn parallelizes at three levels: across independent pipelines of a
// table (parallel_tasks), across samples in a mini-batch (training) and
// across rows of large transforms (FFT columns, kernels). Everything runs
// on one process-wide pool. The pool is NESTING-AWARE:
//   * a task started by parallel_tasks carries a thread BUDGET (an even
//     split of the caller's budget across the concurrent lanes) — its inner
//     parallel_for calls fan out to the shared pool within that budget
//     instead of serializing (leaf chunks run with budget 1, so doubly
//     nested loops still run inline);
//   * every submitter HELPS while waiting: instead of idling in the latch
//     it drains queued work at its own nesting depth or deeper, which both
//     keeps the caller busy and makes nested waits deadlock-free.
// Callers that reduce (the trainer's kGradientSlices) fill fixed-slice
// partials and combine them in slice order, so results are bitwise
// independent of thread scheduling, of ODONN_THREADS and of how work was
// nested.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace odonn {

/// Number of worker threads in the shared pool (>= 1). Honors
/// ODONN_THREADS if set, else hardware_concurrency().
std::size_t thread_count();

/// Overrides the pool size. Must be called before the pool is built (it is
/// built lazily by the first parallel call that fans out). Once the pool
/// exists, a call with the CURRENT size is a no-op; a conflicting size
/// throws a catchable ConfigError naming both counts.
void set_thread_count(std::size_t n);

/// Runs fn(i) for i in [begin, end) across the pool. `grain` is the minimum
/// number of iterations per task; small ranges run inline on the caller.
/// fn must not throw across threads (exceptions are captured and rethrown
/// on the caller after the loop completes).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// Chunked variant: fn(chunk_begin, chunk_end) — lets the body hoist
/// per-chunk setup (scratch buffers, RNG streams).
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain = 1);

/// Runs every element of `tasks` concurrently on the shared pool, at most
/// `max_concurrent` (0 = all) in flight at once. Each task executes with
/// an inner parallelism budget of the current budget split evenly across
/// the concurrent lanes (at least 1 thread): nested parallel_for calls
/// inside a task fan out to the shared pool within that budget. The
/// caller helps drain pool work while waiting.
///
/// With one lane (or a single-thread budget) the tasks run inline on the
/// caller in index order — the sequential reference path. On failure the
/// lowest-index captured exception is rethrown after all in-flight tasks
/// finish; tasks not yet started by then are abandoned.
void parallel_tasks(std::vector<std::function<void()>> tasks,
                    std::size_t max_concurrent = 0);

/// Pins the CALLING thread's inner parallelism budget for the current
/// scope: parallel_for/parallel_tasks issued from this thread
/// fan out to at most `budget` pool workers (1 = run inline, 0 = restore
/// the unrestricted default). Restores the previous budget on destruction.
/// This is how long-lived threads that are not pool tasks — e.g. a serve
/// replica's drain thread — claim a fixed share of the shared pool without
/// wrapping every call in parallel_tasks. Results are unaffected (all
/// deterministic reductions use fixed-slice layouts); only scheduling is.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(std::size_t budget);
  ~ScopedThreadBudget();
  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace odonn
