#ifndef HYGNN_CORE_THREAD_POOL_H_
#define HYGNN_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace hygnn::core {

/// Persistent worker pool behind ParallelFor. One pool is shared
/// process-wide (see NumThreads / SetNumThreads); kernels never spawn
/// threads themselves (scripts/lint.py rule 11 makes this file the only
/// home of raw std::thread in the repo).
///
/// Determinism contract: ParallelFor splits [begin, end) into
/// fixed-size chunks of `grain` iterations. Chunk boundaries depend
/// only on (begin, end, grain) — never on the thread count or on which
/// worker picks up which chunk — so any kernel whose chunks write
/// disjoint outputs and preserve per-element accumulation order
/// produces bit-identical results at every thread count, including the
/// inline sequential path used when the pool has one thread. Workers
/// claim runs of ⌈chunks / 256⌉ consecutive chunks, so a job touches
/// its shared counters about 256 times however many chunks it has; a
/// run decides only which worker runs a chunk, and `fn` still receives
/// one call per chunk.
///
/// Lock discipline is machine-checked: every field the pool mutex
/// protects is HYGNN_GUARDED_BY-annotated, and clang builds promote
/// -Wthread-safety to an error (see src/core/thread_annotations.h).
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the calling thread participates
  /// in every ParallelFor, so `num_threads == 1` spawns nothing.
  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int32_t num_threads() const { return num_threads_; }

  /// Runs fn(chunk_begin, chunk_end) over every grain-sized chunk of
  /// [begin, end), distributing runs of chunks across the pool. Blocks
  /// until all chunks finished. If any invocation of `fn` throws, the
  /// first exception (in completion order) is rethrown here after all
  /// remaining chunks have been skipped; the pool stays usable.
  ///
  /// Not reentrant: a nested call from inside `fn` runs the nested
  /// range inline on the calling worker (no deadlock, still exact).
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn)
      HYGNN_EXCLUDES(mutex_);

 private:
  struct Job {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t num_chunks = 0;
    /// Consecutive chunks one claim takes (see kClaimsPerJob).
    int64_t run = 1;
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> done_chunks{0};
    std::atomic<bool> failed{false};
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    Mutex error_mutex;
    std::exception_ptr error HYGNN_GUARDED_BY(error_mutex);
  };

  void WorkerLoop() HYGNN_EXCLUDES(mutex_);
  void RunChunks(Job* job) HYGNN_EXCLUDES(mutex_);

  const int32_t num_threads_;
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar job_ready_;
  CondVar job_done_;
  /// Current job; null when idle.
  std::shared_ptr<Job> job_ HYGNN_GUARDED_BY(mutex_);
  /// Bumped per job so workers run each exactly once.
  uint64_t generation_ HYGNN_GUARDED_BY(mutex_) = 0;
  bool shutdown_ HYGNN_GUARDED_BY(mutex_) = false;
};

/// Number of threads the global pool runs with. Resolved lazily on
/// first use: HYGNN_NUM_THREADS from the environment when set and
/// positive, otherwise 1 (exact sequential execution).
int32_t NumThreads();

/// Replaces the global pool with an `n`-thread one (values < 1 clamp
/// to 1; 1 destroys the pool and makes ParallelFor run inline). Joins
/// the previous pool's workers first. Not safe to call concurrently
/// with an in-flight ParallelFor.
void SetNumThreads(int32_t n);

/// Runs `fn` over grain-sized chunks of [begin, end) on the global
/// pool (see ThreadPool::ParallelFor for the determinism and exception
/// contract). With one thread — or when the whole range fits in a
/// single grain — this is exactly `fn(begin, end)` on the caller.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// A single long-lived service thread: serve::Server scorer workers,
/// load-generator submitters, and similar loops that live for a whole
/// service lifetime rather than one ParallelFor call. This file is the
/// sole sanctioned home of raw std::thread (scripts/lint.py rule 11),
/// so every service loop in src/serve, bench/, and examples/ routes
/// through this wrapper instead of spawning threads itself.
///
/// `fn` starts running immediately; Join (idempotent, also called by
/// the destructor) blocks until it returns. Movable so containers of
/// workers can grow; moving a joined or moved-from thread is fine,
/// and the moved-from object joins nothing.
class WorkerThread {
 public:
  explicit WorkerThread(std::function<void()> fn);
  WorkerThread(WorkerThread&& other) noexcept = default;
  ~WorkerThread();

  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;
  WorkerThread& operator=(WorkerThread&&) = delete;

  /// Blocks until `fn` returned. Safe to call more than once.
  void Join();

 private:
  std::thread thread_;
};

}  // namespace hygnn::core

#endif  // HYGNN_CORE_THREAD_POOL_H_
