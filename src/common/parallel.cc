#include "common/parallel.h"

#include "common/check.h"

namespace dm {

int EffectiveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads) : threads_(threads) {
  DM_CHECK(threads_ >= 1) << "WorkerPool needs at least one thread, got "
                          << threads_;
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::WorkerLoop(int index) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(index);
    {
      MutexLock lock(mu_);
      if (--pending_ == 0) done_cv_.NotifyOne();
    }
  }
}

void WorkerPool::RunOnAll(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  {
    MutexLock lock(mu_);
    job_ = &fn;
    pending_ = threads_ - 1;
    ++generation_;
  }
  work_cv_.NotifyAll();
  fn(0);
  MutexLock lock(mu_);
  while (pending_ != 0) {
    done_cv_.Wait(mu_);
  }
  job_ = nullptr;
}

void ParallelFor(WorkerPool& pool, int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain) {
    fn(0, n);
    return;
  }
  if (pool.threads() == 1) {
    // Same grain-aligned decomposition as the parallel path, run
    // serially in ascending order, so callers keying per-chunk state
    // off `begin / grain` see identical chunks at any thread count.
    for (int64_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }
  std::atomic<int64_t> next{0};
  pool.RunOnAll([&](int) {
    for (;;) {
      const int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(begin, std::min(begin + grain, n));
    }
  });
}

}  // namespace dm
