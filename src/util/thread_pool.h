#ifndef DTREC_UTIL_THREAD_POOL_H_
#define DTREC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtrec {

/// Fixed-size worker pool with a FIFO task queue.
///
/// The serving subsystem fans concurrent RecommendRequests across this
/// pool; it is deliberately minimal — no priorities, no work stealing —
/// because a request is a single short CPU-bound scoring pass and FIFO
/// order is what the per-request deadline semantics assume.
///
/// Shutdown *drains*: every task submitted before Shutdown() (or the
/// destructor) runs to completion before the workers join. Tasks submitted
/// after shutdown execute inline on the calling thread, so no work is ever
/// silently dropped.
///
/// A non-zero `max_queue` bounds the number of *waiting* tasks: Submit()
/// refuses (returns false, task untouched) once the backlog reaches the
/// cap, giving callers a backpressure signal instead of an unbounded
/// queue whose tail latency grows without limit under overload.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1). `max_queue` = 0 means an
  /// unbounded task queue (the historical behavior).
  explicit ThreadPool(size_t num_threads, size_t max_queue = 0);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution; wakes one idle worker. Returns false
  /// (dropping nothing — `task` simply never ran) when the bounded queue
  /// is full; the caller decides how to shed. After Shutdown(), runs
  /// `task` inline instead and returns true.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is mid-task. The pool
  /// stays usable afterwards (unlike Shutdown).
  void WaitIdle();

  /// Drains all queued tasks, then stops and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or stop
  std::condition_variable idle_cv_;   // signals WaitIdle: drained + idle
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t max_queue_ = 0;  // 0 = unbounded
  size_t active_ = 0;     // workers currently running a task
  bool stop_ = false;
};

}  // namespace dtrec

#endif  // DTREC_UTIL_THREAD_POOL_H_
