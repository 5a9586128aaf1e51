#ifndef DPR_NET_EXECUTOR_H_
#define DPR_NET_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dpr {

struct ExecutorOptions {
  /// Worker threads. At least 1.
  uint32_t threads = 2;
  /// Maximum queued (not yet running) tasks; Submit blocks and TrySubmit
  /// fails while the queue sits at capacity. Bounded by design: an unbounded
  /// queue turns overload into unbounded memory growth and unbounded tail
  /// latency instead of backpressure.
  size_t queue_capacity = 4096;
  /// Name used in the lock-rank checker and log lines (string literal).
  const char* name = "net.executor";
};

/// Bounded work queue + fixed worker pool: each in-memory transport server
/// runs its requests on one, so the client threads that submit them never
/// execute handlers and the server's thread count stays fixed.
///
/// Task contract: a submitted task either runs to completion on a worker
/// (Shutdown drains the queue before joining) or was never accepted
/// (Submit/TrySubmit returned false) — tasks are never silently dropped, so
/// response callbacks threaded through tasks fire exactly once.
class Executor {
 public:
  explicit Executor(ExecutorOptions options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Spawns the worker pool. Call once before the first Submit.
  void Start();

  /// Runs every already-accepted task, then joins the workers. Idempotent.
  /// Submissions racing Shutdown either land (and run) or return false.
  void Shutdown();

  /// Enqueues `task`, blocking while the queue is at capacity. Returns false
  /// (task not accepted, caller keeps ownership of the work) once Shutdown
  /// has begun.
  bool Submit(std::function<void()> task);

  /// Non-blocking Submit: returns false when the queue is full or the
  /// executor is shutting down.
  bool TrySubmit(std::function<void()> task);

  size_t queue_depth() const;

 private:
  void WorkerLoop();

  const ExecutorOptions options_;
  mutable Mutex mu_{LockRank::kExecutor, "net.executor"};
  CondVar work_cv_;   // signaled when a task arrives or shutdown begins
  CondVar space_cv_;  // signaled when a queue slot frees up
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

}  // namespace dpr

#endif  // DPR_NET_EXECUTOR_H_
