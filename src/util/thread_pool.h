// A work-stealing thread pool for the batch analysis driver. Each worker owns
// a deque: it pushes and pops its own work at the back (LIFO, cache-warm) and
// steals from other workers at the front (FIFO, oldest first), so large tasks
// submitted early migrate to idle workers instead of serializing behind one
// queue. External submissions round-robin across workers.
//
//   sash::util::ThreadPool pool(8);
//   for (auto& file : files) pool.Submit([&] { Analyze(file); });
//   pool.Wait();                                // all submitted work done
//
// Submit is callable from pool threads too (a task submitted from a worker
// lands on that worker's own deque). Wait only returns when every task —
// including tasks submitted by tasks — has finished.
//
// With a journal attached the pool reports its own scheduling: each task
// start/stop, steal, and queue-depth change lands in the event journal (the
// start/stop pair is the task's span in the trace, on a lane named after its
// worker). Without one a task runs with no allocation and no clock read.
#ifndef SASH_UTIL_THREAD_POOL_H_
#define SASH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/journal.h"

namespace sash::util {

class ThreadPool {
 public:
  // `threads` <= 0 selects the hardware concurrency (at least 1). A null
  // `journal` disables all telemetry.
  explicit ThreadPool(int threads, obs::EventJournal* journal = nullptr);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every submitted task has completed. Safe to call repeatedly;
  // new work may be submitted afterwards.
  void Wait();

  int size() const { return static_cast<int>(workers_.size()); }

  // Total tasks stolen across all workers (scheduler telemetry, for tests
  // and for the "batch.steals" counter).
  int64_t steals() const;

  // The calling thread's worker slot in the pool it belongs to, or -1 when
  // the caller is not a pool worker. Lets per-worker data structures (the
  // batch cache commit queue's lanes) pick a contention-free lane without
  // the pool having to thread an index through every task closure.
  static int CurrentWorkerIndex();

 private:
  // alignas: each worker's mutex + deque head live on their own cache line.
  // Workers are hammered from two sides (the owner popping, thieves
  // stealing); when two workers' hot fields share a line, every steal probe
  // bounces the line between cores and re-serializes what the per-worker
  // deques exist to keep apart.
  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
    // Tasks this worker stole from others. Atomic so the thief records its
    // steal without re-taking its own deque lock on the steal path.
    std::atomic<int64_t> steals{0};
  };

  void WorkerLoop(int index);
  bool TryPopOwn(int index, std::function<void()>* task);
  bool TrySteal(int thief, std::function<void()>* task);
  void RunTask(int index, std::function<void()>* task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  obs::EventJournal* journal_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   // Signaled on submit and shutdown.
  std::condition_variable done_cv_;   // Signaled when pending reaches zero.
  int64_t pending_ = 0;               // Submitted but not yet finished.
  int64_t queued_ = 0;                // Submitted but not yet picked up.
  bool shutdown_ = false;
  unsigned next_ = 0;  // Round-robin cursor for external submissions.
};

}  // namespace sash::util

#endif  // SASH_UTIL_THREAD_POOL_H_
