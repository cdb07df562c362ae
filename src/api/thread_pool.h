// A fixed-size worker pool — the execution substrate of fsi::BatchRunner
// and of mutable sets' background compaction (api/epoch.cc).
//
// Deliberately minimal: a mutex-protected FIFO drained by N workers parked
// on one condition variable.  No work stealing, no priorities, no futures —
// the batch layer partitions its own work (an atomic query cursor), so the
// pool only ever holds a handful of long-running tasks and a lock-free
// deque would buy nothing.  What *is* guaranteed:
//
//  * Graceful shutdown: Shutdown() (and the destructor) stops accepting new
//    tasks, drains every task already submitted, then joins the workers —
//    submitted work is never silently dropped.
//  * Submit() after shutdown is a checked std::runtime_error.
//  * A task may Submit to the pool that runs it (compaction re-arms this
//    way), but must not *wait* on work it submits there: with every worker
//    waiting, that work never runs — the one restriction, checked only by
//    deadlock.

#ifndef FSI_API_THREAD_POOL_H_
#define FSI_API_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsi {

/// A fixed set of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means DefaultConcurrency().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Equivalent to Shutdown(): drains pending tasks, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.  Throws std::runtime_error after Shutdown().
  /// Tasks must not exit via exception — one that throws escapes the
  /// worker thread and terminates the process (std::terminate); catch
  /// inside the task and hand the error back yourself, as BatchRunner
  /// does with its first-exception slot.
  void Submit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued to completion,
  /// and joins the workers.  Idempotent; safe to call before destruction.
  void Shutdown();

  /// Number of worker threads.
  std::size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard permits it to return 0 when undeterminable).
  static std::size_t DefaultConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace fsi

#endif  // FSI_API_THREAD_POOL_H_
