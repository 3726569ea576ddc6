//===- support/ThreadPool.h - Reusable worker-thread pool ------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrency substrate shared by every parallel stage of the
/// training pipeline (profiling sweeps, k-fold cross-validation,
/// per-phase model fits). A fixed set of worker threads drains a FIFO
/// task queue; callers either submit() individual tasks and join on the
/// returned futures, or use parallelFor() to fan an index range across
/// the workers.
///
/// Design rules (see docs/ARCHITECTURE.md, "Threading model"):
///
///  - Determinism is the caller's job, not the pool's: tasks may finish
///    in any order, so callers write results into preallocated
///    per-index slots and reduce them in index order afterwards.
///  - A pool constructed with 0 workers degrades to inline execution on
///    the calling thread; code written against the pool never needs a
///    separate serial path.
///  - parallelFor() called from inside a task of the *same* pool runs
///    inline on that worker. Same-pool nesting therefore cannot
///    deadlock the queue, and inner loops (e.g. CV folds inside a
///    model-fit task) simply stay serial within their task. A worker of
///    a *different* pool fans out normally (the serve shards hand scan
///    chunks to the planner's scan pool this way); cross-pool handoff
///    must stay acyclic -- pool A's tasks may wait on pool B only if
///    B's tasks never wait on A.
///  - The first exception thrown by any task of a parallelFor() is
///    rethrown on the caller after all in-flight tasks drain; remaining
///    unstarted indices are abandoned. submit() delivers exceptions
///    through its future.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_SUPPORT_THREADPOOL_H
#define OPPROX_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace opprox {

/// Fixed-size worker-thread pool with a FIFO queue, bulk parallelFor,
/// and future-returning task submission.
class ThreadPool {
public:
  /// Ceiling on the executor count a user can request through
  /// OPPROX_THREADS, OPPROX_SCAN_THREADS, or --scan-threads. Larger
  /// values are out of range: the environment variables ignore them and
  /// the flag rejects them, so a typo cannot try to start billions of
  /// threads.
  static constexpr size_t MaxExecutors = 1024;

  /// Spawns \p NumWorkers worker threads. 0 spawns none: submit() and
  /// parallelFor() then execute inline on the calling thread, which
  /// makes a zero-worker pool the canonical "run serially" object.
  explicit ThreadPool(size_t NumWorkers);

  /// Joins all workers. Pending submitted tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t numWorkers() const { return Workers.size(); }

  /// Enqueues \p Task and returns a future that becomes ready when it
  /// completes (exceptions travel through the future). With 0 workers
  /// the task runs before submit() returns.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Body(I) for every I in [0, N), distributing indices across
  /// the workers dynamically; the calling thread participates too, so a
  /// W-worker pool applies W+1 executors. Returns when every index has
  /// completed. Rethrows the first task exception. Called from inside a
  /// task of this same pool, runs the whole range inline; from a worker
  /// of a different pool it fans out normally (see file comment).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// True when the current thread is a pool worker executing a task
  /// (of any pool).
  static bool insideWorker();

  /// True when the current thread is one of *this* pool's workers;
  /// parallelFor uses this to inline same-pool nested calls.
  bool insideThisPool() const;

  /// Worker count requested by the environment: OPPROX_THREADS when set
  /// to an integer in [1, MaxExecutors], otherwise
  /// std::thread::hardware_concurrency (at least 1). This counts
  /// *executors*, so parallel sections built on parallelFor() create
  /// pools with defaultWorkerCount()-1 workers plus the participating
  /// caller; resolveWorkers() does exactly that.
  static size_t defaultWorkerCount();

  /// Maps an options-style thread count (0 = auto-detect via
  /// defaultWorkerCount()) to the number of pool workers to spawn next
  /// to a participating caller: max(count, 1) - 1.
  static size_t resolveWorkers(size_t RequestedThreads);

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::packaged_task<void()>> Queue;
  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  bool Stopping = false;
};

} // namespace opprox

#endif // OPPROX_SUPPORT_THREADPOOL_H
