// Asynchronous cache-write commit queue for the batch driver.
//
// Before this existed, every worker that finished a cold analysis performed
// its own cache file write (temp file + fsync-less stream + atomic rename)
// inline, inside the task — so at -j8 the cache-write wait probe showed
// workers stacked up behind per-file disk I/O that has nothing to do with
// analysis. Now workers append the encoded entry to a per-worker lane (a
// mutex the drainer alone ever contends) and move on; a single committer
// thread drains the lanes and performs the actual Cache::Put calls off the
// workers' critical path.
//
// Ordering and crash-safety:
//   - Entries for distinct keys commute (independent files), and entries for
//     the same key are byte-identical by construction (the key hashes the
//     content + options that produced the payload), so drain order is
//     irrelevant to correctness — last rename wins and all renames agree.
//   - Durability is unchanged from the synchronous path: each Put still goes
//     through Cache's temp-file + atomic-rename + bounded-retry protocol, so
//     a concurrent reader never observes a torn entry. What the queue adds
//     is a window where a crash loses queued-but-uncommitted entries; that
//     costs a future cold analysis, never a wrong replay.
//   - Flush() (and the destructor) block until every entry enqueued so far
//     is committed, so a driver that flushes before returning gives the next
//     run the same warm-cache view the synchronous path did.
#ifndef SASH_BATCH_COMMIT_QUEUE_H_
#define SASH_BATCH_COMMIT_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/cache.h"

namespace sash::batch {

class CacheCommitQueue {
 public:
  // The queue's counts over its lifetime ("cache.commit.*" in `--stats`).
  struct Stats {
    int64_t enqueued = 0;
    int64_t committed = 0;
    int64_t drains = 0;  // Committer passes that found work.
  };

  // `lanes` should match the driver's worker count (one lane per worker
  // keeps producers contention-free); clamped to >= 1. `cache` must outlive
  // the queue.
  CacheCommitQueue(Cache* cache, int lanes);
  ~CacheCommitQueue();  // Flushes, then joins the committer.
  CacheCommitQueue(const CacheCommitQueue&) = delete;
  CacheCommitQueue& operator=(const CacheCommitQueue&) = delete;

  // Appends one pending write. Callable from any thread; pool workers land
  // in their own lane (ThreadPool::CurrentWorkerIndex), others hash their
  // thread id. Never blocks on I/O — only on the lane mutex, which the
  // committer holds just long enough to swap the lane's buffer out.
  void Enqueue(std::string kind, std::string key, std::string payload);

  // Blocks until everything enqueued before the call has been handed to
  // Cache::Put (success or exhausted retries). New enqueues during a flush
  // are waited for too — the driver's usage flushes after its pool drains,
  // so in practice the queue is quiescent here.
  void Flush();

  int64_t enqueued() const { return enqueued_.load(std::memory_order_relaxed); }
  int64_t committed() const { return committed_.load(std::memory_order_relaxed); }
  Stats stats() const {
    return {enqueued(), committed(), drains_.load(std::memory_order_relaxed)};
  }

 private:
  struct Pending {
    std::string kind;
    std::string key;
    std::string payload;
  };

  // alignas: lanes are the whole point — two workers appending must not
  // share a cache line, or the queue reintroduces the false sharing it
  // exists to remove.
  struct alignas(64) Lane {
    std::mutex mu;
    std::vector<Pending> items;
  };

  void CommitterLoop();
  size_t LaneFor() const;

  Cache* cache_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::atomic<int64_t> enqueued_{0};
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> drains_{0};
  // True while the committer is (or is about to be) parked on wake_cv_:
  // producers elide the wakeup lock entirely when the committer is already
  // running. seq_cst on both sides makes flag-check and counter-bump
  // race-free in the classic sleeping-consumer pattern.
  std::atomic<bool> sleeping_{false};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;  // Signaled on enqueue (when sleeping) and shutdown.
  std::condition_variable done_cv_;  // Signaled when committed_ catches up to enqueued_.
  bool shutdown_ = false;

  std::thread committer_;
};

}  // namespace sash::batch

#endif  // SASH_BATCH_COMMIT_QUEUE_H_
