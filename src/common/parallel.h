#ifndef DIRECTMESH_COMMON_PARALLEL_H_
#define DIRECTMESH_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace dm {

/// Resolves a user-facing thread-count knob: values <= 0 mean "one
/// thread per hardware core", anything else is taken literally.
int EffectiveThreads(int requested);

/// A fixed-size pool of worker threads. The pool spawns `threads - 1`
/// background workers; the caller of RunOnAll always participates as
/// worker 0, so `threads == 1` costs nothing (no threads are spawned
/// and jobs run inline on the caller).
///
/// Determinism contract: the pool itself never influences results —
/// callers are responsible for making the *work* thread-count
/// invariant (disjoint writes, order-independent reductions). All
/// helpers below honour that contract.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(worker_index) once on every participant (indices
  /// 0..threads-1, caller is 0) and returns when all are done.
  void RunOnAll(const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int index);

  const int threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* job_ DM_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ DM_GUARDED_BY(mu_) = 0;
  int pending_ DM_GUARDED_BY(mu_) = 0;
  bool stop_ DM_GUARDED_BY(mu_) = false;
};

/// Chunked parallel loop over [0, n): `fn(begin, end)` is invoked over
/// disjoint subranges that exactly cover [0, n). Chunk boundaries are
/// multiples of `grain` and therefore independent of the thread count;
/// which worker executes which chunk is not specified, so the body
/// must only write to state owned by its index range. Runs inline on
/// the caller when the pool has one thread or the range fits in a
/// single chunk.
void ParallelFor(WorkerPool& pool, int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

namespace parallel_internal {

/// Smallest power of two >= x (x >= 1).
inline int NextPow2(int x) {
  int p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace parallel_internal

/// Stable sort of `v` using the pool. Because a stable sort's output
/// is a *unique* permutation of its input for any comparator, the
/// result is bit-identical to std::stable_sort regardless of thread
/// count or chunking: chunks are stable-sorted independently and then
/// combined with std::merge, which takes from the left-hand (earlier)
/// run on ties. Small inputs fall through to std::stable_sort.
template <typename T, typename Cmp>
void ParallelStableSort(WorkerPool& pool, std::vector<T>& v, Cmp cmp) {
  constexpr int64_t kMinParallel = 8192;
  const int64_t n = static_cast<int64_t>(v.size());
  if (pool.threads() <= 1 || n < kMinParallel) {
    std::stable_sort(v.begin(), v.end(), cmp);
    return;
  }

  const int chunks = parallel_internal::NextPow2(pool.threads());
  std::vector<int64_t> bounds(static_cast<size_t>(chunks) + 1);
  for (int i = 0; i <= chunks; ++i) {
    bounds[static_cast<size_t>(i)] = n * i / chunks;
  }

  // Sort each chunk independently.
  std::atomic<int> next_chunk{0};
  pool.RunOnAll([&](int) {
    for (;;) {
      const int c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::stable_sort(v.begin() + bounds[static_cast<size_t>(c)],
                       v.begin() + bounds[static_cast<size_t>(c) + 1], cmp);
    }
  });

  // log2(chunks) parallel merge passes, ping-ponging through scratch.
  std::vector<T> scratch(v.size());
  T* src = v.data();
  T* dst = scratch.data();
  int runs = chunks;
  while (runs > 1) {
    const int pairs = runs / 2;
    std::atomic<int> next_pair{0};
    pool.RunOnAll([&](int) {
      for (;;) {
        const int p = next_pair.fetch_add(1, std::memory_order_relaxed);
        if (p >= pairs) return;
        const int64_t lo = bounds[static_cast<size_t>(2 * p)];
        const int64_t mid = bounds[static_cast<size_t>(2 * p + 1)];
        const int64_t hi = bounds[static_cast<size_t>(2 * p + 2)];
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, cmp);
      }
    });
    for (int i = 0; i <= pairs; ++i) {
      bounds[static_cast<size_t>(i)] = bounds[static_cast<size_t>(2 * i)];
    }
    runs = pairs;
    std::swap(src, dst);
  }
  if (src != v.data()) {
    std::copy(scratch.begin(), scratch.end(), v.begin());
  }
}

template <typename T>
void ParallelStableSort(WorkerPool& pool, std::vector<T>& v) {
  ParallelStableSort(pool, v, std::less<T>());
}

}  // namespace dm

#endif  // DIRECTMESH_COMMON_PARALLEL_H_
