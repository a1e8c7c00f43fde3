#include "batch/commit_queue.h"

#include <functional>

#include "util/thread_pool.h"

namespace sash::batch {

CacheCommitQueue::CacheCommitQueue(Cache* cache, int lanes) : cache_(cache) {
  if (lanes < 1) {
    lanes = 1;
  }
  lanes_.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  committer_ = std::thread([this] { CommitterLoop(); });
}

CacheCommitQueue::~CacheCommitQueue() {
  Flush();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_one();
  committer_.join();
}

size_t CacheCommitQueue::LaneFor() const {
  int worker = util::ThreadPool::CurrentWorkerIndex();
  if (worker >= 0) {
    return static_cast<size_t>(worker) % lanes_.size();
  }
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % lanes_.size();
}

void CacheCommitQueue::Enqueue(std::string kind, std::string key, std::string payload) {
  Lane& lane = *lanes_[LaneFor()];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.items.push_back(Pending{std::move(kind), std::move(key), std::move(payload)});
  }
  enqueued_.fetch_add(1);  // seq_cst: must be ordered against the sleeping_ read below.
  if (sleeping_.load()) {
    // The committer parks only under wake_mu_ after re-checking the
    // counters, so taking the lock (empty critical section) before
    // notifying closes the sleep/notify race.
    { std::lock_guard<std::mutex> lock(wake_mu_); }
    wake_cv_.notify_one();
  }
}

void CacheCommitQueue::Flush() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  wake_cv_.notify_one();  // The committer may be parked with work pending.
  done_cv_.wait(lock, [this] {
    return committed_.load(std::memory_order_acquire) >= enqueued_.load(std::memory_order_acquire);
  });
}

void CacheCommitQueue::CommitterLoop() {
  std::vector<Pending> batch;
  for (;;) {
    // Drain pass: swap every lane's buffer out under its lock (cheap — the
    // producers hold lane locks only for a push_back), then do the actual
    // file I/O with no lock held at all.
    batch.clear();
    for (auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (!lane->items.empty()) {
        if (batch.empty()) {
          batch.swap(lane->items);
        } else {
          for (Pending& p : lane->items) {
            batch.push_back(std::move(p));
          }
          lane->items.clear();
        }
      }
    }
    if (!batch.empty()) {
      drains_.fetch_add(1, std::memory_order_relaxed);
      for (Pending& p : batch) {
        // Best-effort like the synchronous path: Put already retries and
        // counts write failures; a failed entry just stays cold.
        cache_->Put(p.kind, p.key, p.payload);
        committed_.fetch_add(1, std::memory_order_release);
      }
      {
        // Pair with Flush: only signal completion when fully caught up.
        std::lock_guard<std::mutex> lock(wake_mu_);
        if (committed_.load(std::memory_order_acquire) >=
            enqueued_.load(std::memory_order_acquire)) {
          done_cv_.notify_all();
        }
      }
      continue;  // More work may have arrived while writing.
    }
    // Nothing found: park. sleeping_ must be raised *before* the final
    // counter check so a producer that enqueues in between either sees the
    // flag (and notifies under wake_mu_) or we see its increment here.
    sleeping_.store(true);
    std::unique_lock<std::mutex> lock(wake_mu_);
    done_cv_.notify_all();  // Queue is drained; release any Flush waiters.
    wake_cv_.wait(lock, [this] {
      return shutdown_ || enqueued_.load() > committed_.load(std::memory_order_relaxed);
    });
    sleeping_.store(false);
    if (shutdown_ && enqueued_.load() <= committed_.load(std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace sash::batch
