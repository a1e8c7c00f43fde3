#include "util/thread_pool.h"

#include "util/faultinject.h"

namespace sash::util {

namespace {
// Which pool (and worker slot) the current thread belongs to, so Submit from
// inside a task goes to the caller's own deque.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads, obs::EventJournal* journal) : journal_(journal) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) {
      threads = 1;
    }
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  int target;
  if (tls_pool == this) {
    target = tls_index;
  } else {
    std::lock_guard<std::mutex> lock(idle_mu_);
    target = static_cast<int>(next_++ % workers_.size());
  }
  {
    std::lock_guard<std::mutex> lock(workers_[static_cast<size_t>(target)]->mu);
    workers_[static_cast<size_t>(target)]->deque.push_back(std::move(task));
  }
  int64_t depth;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++pending_;
    depth = ++queued_;
  }
  if (journal_ != nullptr) {
    journal_->Emit(obs::EventKind::kQueueDepth, "pool.queue", depth);
  }
  work_cv_.notify_one();
}

bool ThreadPool::TryPopOwn(int index, std::function<void()>* task) {
  Worker& w = *workers_[static_cast<size_t>(index)];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.deque.empty()) {
    return false;
  }
  *task = std::move(w.deque.back());
  w.deque.pop_back();
  return true;
}

bool ThreadPool::TrySteal(int thief, std::function<void()>* task) {
  const size_t n = workers_.size();
  for (size_t k = 1; k < n; ++k) {
    size_t victim = (static_cast<size_t>(thief) + k) % n;
    bool stolen = false;
    {
      Worker& w = *workers_[victim];
      std::lock_guard<std::mutex> lock(w.mu);
      if (!w.deque.empty()) {
        *task = std::move(w.deque.front());
        w.deque.pop_front();
        stolen = true;
      }
    }
    if (stolen) {
      workers_[static_cast<size_t>(thief)]->steals.fetch_add(1, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->Emit(obs::EventKind::kSteal, "pool.steal", thief,
                             static_cast<int64_t>(victim));
      }
      return true;
    }
  }
  return false;
}

void ThreadPool::RunTask(int index, std::function<void()>* task) {
  if (FaultInjector::enabled()) {
    // Chaos harness: a pool.task rule stalls the worker before it runs
    // the task, simulating a slow/starved core. Results must not change.
    FaultInjector::ApplyDelay(FaultInjector::Check(FaultSite::kPoolTask, "worker"));
  }
  obs::EventJournal* journal = journal_;
  if (journal == nullptr) {
    (*task)();
    return;
  }
  // The pair is the task's span: one clock, so the exported "task" span
  // starts at task_start's stamp and lasts task_stop's duration.
  const int64_t start_us = journal->NowMicros();
  journal->EmitAt(start_us, obs::EventKind::kTaskStart, "pool.task", index);
  (*task)();
  const int64_t stop_us = journal->NowMicros();
  journal->EmitAt(stop_us, obs::EventKind::kTaskStop, "pool.task", index, stop_us - start_us);
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_index = index;
  for (;;) {
    std::function<void()> task;
    if (TryPopOwn(index, &task) || TrySteal(index, &task)) {
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --queued_;
      }
      RunTask(index, &task);
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (--pending_ == 0) {
        done_cv_.notify_all();
      }
      continue;
    }
    // The queued_ predicate (checked under idle_mu_, which Submit also holds)
    // closes the missed-wakeup window between the deque probes above and the
    // wait below.
    std::unique_lock<std::mutex> lock(idle_mu_);
    work_cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
    if (shutdown_ && queued_ == 0) {
      return;
    }
  }
}

void ThreadPool::Wait() {
  // Workers decrement pending_ only after the task body returns, so
  // pending_ == 0 means "all queued and running work is finished".
  std::unique_lock<std::mutex> lock(idle_mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

int64_t ThreadPool::steals() const {
  int64_t total = 0;
  for (const auto& w : workers_) {
    total += w->steals.load(std::memory_order_relaxed);
  }
  return total;
}

int ThreadPool::CurrentWorkerIndex() { return tls_pool != nullptr ? tls_index : -1; }

}  // namespace sash::util
