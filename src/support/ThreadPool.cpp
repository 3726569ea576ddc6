//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

using namespace opprox;

/// Pool-wide instruments. One fetch_add per *task* (parallelFor enqueues
/// one drain task per helper, not one per index), so the cost is
/// invisible next to task execution itself.
static Counter &tasksExecuted() {
  static Counter &C = MetricsRegistry::global().counter(
      "threadpool.tasks_executed");
  return C;
}

static Gauge &queueDepthMax() {
  static Gauge &G =
      MetricsRegistry::global().gauge("threadpool.queue_depth.max");
  return G;
}

/// The pool that spawned the current thread, for the whole thread
/// lifetime (null on non-worker threads). Workers only ever run their
/// own pool's tasks, so a thread-lifetime pointer is equivalent to an
/// "executing a task of pool P" flag and cheaper to maintain. Tracking
/// the owner -- not just a boolean -- is what lets parallelFor() on a
/// *different* pool fan out instead of inlining: the serving tier's
/// shard threads (workers of the server's pool) hand scan chunks to the
/// planner's dedicated scan pool this way.
static thread_local const ThreadPool *CurrentWorkerPool = nullptr;

ThreadPool::ThreadPool(size_t NumWorkers) {
  Workers.reserve(NumWorkers);
  for (size_t I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  CurrentWorkerPool = this;
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    tasksExecuted().add();
    Task(); // Exceptions land in the task's future.
  }
}

bool ThreadPool::insideWorker() { return CurrentWorkerPool != nullptr; }

bool ThreadPool::insideThisPool() const { return CurrentWorkerPool == this; }

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  // The fault fires inside the packaged task so the injected death takes
  // the same route to the caller a real task exception would: the future.
  std::packaged_task<void()> Packaged([Task = std::move(Task)] {
    throwOnFault(faults::ThreadPoolTask);
    Task();
  });
  std::future<void> Future = Packaged.get_future();
  if (Workers.empty()) {
    tasksExecuted().add();
    Packaged(); // Inline mode: complete before returning.
    return Future;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Queue.push_back(std::move(Packaged));
    queueDepthMax().setMax(static_cast<double>(Queue.size()));
  }
  QueueCv.notify_one();
  return Future;
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  // Inline when there is nothing to fan out to, or when already on one
  // of *this* pool's workers (same-pool nesting; see the header's design
  // rules). A worker of a different pool fans out normally -- cross-pool
  // handoff is how serve shards reach the planner's scan pool.
  if (Workers.empty() || insideThisPool() || N == 1) {
    tasksExecuted().add(); // The caller's drain is one executor turn.
    for (size_t I = 0; I < N; ++I) {
      throwOnFault(faults::ThreadPoolTask);
      Body(I);
    }
    return;
  }

  struct LoopState {
    std::atomic<size_t> NextIndex{0};
    std::atomic<size_t> ActiveHelpers{0};
    std::mutex Mutex;
    std::condition_variable Done;
    std::exception_ptr FirstError;
    size_t N = 0;
    const std::function<void(size_t)> *Body = nullptr;
  };
  auto State = std::make_shared<LoopState>();
  State->N = N;
  State->Body = &Body;

  // Executors (caller + helpers) claim indices dynamically; on the first
  // exception the remaining unclaimed indices are abandoned.
  auto Drain = [](LoopState &S) {
    for (;;) {
      size_t I = S.NextIndex.fetch_add(1, std::memory_order_relaxed);
      if (I >= S.N)
        return;
      try {
        throwOnFault(faults::ThreadPoolTask);
        (*S.Body)(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(S.Mutex);
        if (!S.FirstError)
          S.FirstError = std::current_exception();
        S.NextIndex.store(S.N, std::memory_order_relaxed);
      }
    }
  };

  size_t NumHelpers = std::min(Workers.size(), N - 1);
  State->ActiveHelpers.store(NumHelpers, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (size_t H = 0; H < NumHelpers; ++H)
      Queue.emplace_back([State, Drain] {
        Drain(*State);
        if (State->ActiveHelpers.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          std::lock_guard<std::mutex> Lock(State->Mutex);
          State->Done.notify_all();
        }
      });
    queueDepthMax().setMax(static_cast<double>(Queue.size()));
  }
  QueueCv.notify_all();

  tasksExecuted().add(); // The caller participates as one more executor.
  Drain(*State);
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Done.wait(Lock, [&] {
    return State->ActiveHelpers.load(std::memory_order_acquire) == 0;
  });
  if (State->FirstError)
    std::rethrow_exception(State->FirstError);
}

size_t ThreadPool::defaultWorkerCount() {
  if (const char *Env = std::getenv("OPPROX_THREADS")) {
    char *End = nullptr;
    long Requested = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0' && Requested >= 1 &&
        static_cast<unsigned long>(Requested) <= MaxExecutors)
      return static_cast<size_t>(Requested);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw >= 1 ? Hw : 1;
}

size_t ThreadPool::resolveWorkers(size_t RequestedThreads) {
  size_t Executors =
      RequestedThreads ? RequestedThreads : defaultWorkerCount();
  return Executors - 1; // The caller is always one of the executors.
}
