#include "core/thread_pool.h"

#include <algorithm>

#include "core/flags.h"
#include "core/logging.h"

namespace hygnn::core {

namespace {

/// True while the current thread is executing ParallelFor chunks;
/// nested ParallelFor calls from kernel code run inline instead of
/// deadlocking on the single shared job slot.
thread_local bool t_inside_parallel_for = false;

/// Claims a job makes on its shared counters, at most (plus one failed
/// claim per worker): a job of n chunks is claimed in runs of
/// ⌈n / kClaimsPerJob⌉ consecutive chunks, so jobs of up to
/// kClaimsPerJob chunks claim them one at a time. The run depends on the
/// chunk count alone, and fn still receives one call per chunk.
constexpr int64_t kClaimsPerJob = 256;

}  // namespace

ThreadPool::ThreadPool(int32_t num_threads)
    : num_threads_(std::max<int32_t>(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int32_t i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  job_ready_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ &&
             !(job_ != nullptr && generation_ != seen_generation)) {
        job_ready_.Wait(mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    t_inside_parallel_for = true;
    RunChunks(job.get());
    t_inside_parallel_for = false;
  }
}

void ThreadPool::RunChunks(Job* job) {
  for (;;) {
    const int64_t first =
        job->next_chunk.fetch_add(job->run, std::memory_order_relaxed);
    if (first >= job->num_chunks) break;
    const int64_t last = std::min(job->num_chunks, first + job->run);
    for (int64_t chunk = first; chunk < last; ++chunk) {
      // After a failure the job is abandoned: remaining chunks are
      // counted as done without running so the caller unblocks fast.
      if (job->failed.load(std::memory_order_acquire)) break;
      try {
        const int64_t lo = job->begin + chunk * job->grain;
        const int64_t hi = std::min(job->end, lo + job->grain);
        (*job->fn)(lo, hi);
      } catch (...) {
        {
          MutexLock lock(job->error_mutex);
          if (!job->error) job->error = std::current_exception();
        }
        job->failed.store(true, std::memory_order_release);
      }
    }
    const int64_t done =
        job->done_chunks.fetch_add(last - first, std::memory_order_acq_rel) +
        (last - first);
    if (done == job->num_chunks) {
      // Lock pairs with the caller's predicate check to avoid a missed
      // wakeup between its done_chunks load and its wait.
      MutexLock lock(mutex_);
      job_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  HYGNN_CHECK_GT(grain, 0);
  if (end <= begin) return;
  const int64_t range = end - begin;
  if (num_threads_ == 1 || range <= grain || t_inside_parallel_for) {
    fn(begin, end);
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = (range + grain - 1) / grain;
  job->run = (job->num_chunks + kClaimsPerJob - 1) / kClaimsPerJob;
  job->fn = &fn;
  {
    MutexLock lock(mutex_);
    job_ = job;
    ++generation_;
  }
  job_ready_.NotifyAll();

  t_inside_parallel_for = true;
  RunChunks(job.get());
  t_inside_parallel_for = false;

  {
    MutexLock lock(mutex_);
    while (job->done_chunks.load(std::memory_order_acquire) !=
           job->num_chunks) {
      job_done_.Wait(mutex_);
    }
    job_ = nullptr;
  }
  std::exception_ptr error;
  {
    MutexLock lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

Mutex g_pool_mutex;
/// Null while the count is 1.
ThreadPool* g_pool HYGNN_GUARDED_BY(g_pool_mutex) = nullptr;
/// 0 = not yet resolved.
int32_t g_num_threads HYGNN_GUARDED_BY(g_pool_mutex) = 0;

int32_t ResolveDefaultThreads() {
  const int64_t from_env = EnvInt("HYGNN_NUM_THREADS", 0);
  return from_env > 0 ? static_cast<int32_t>(from_env) : 1;
}

}  // namespace

int32_t NumThreads() {
  MutexLock lock(g_pool_mutex);
  if (g_num_threads == 0) g_num_threads = ResolveDefaultThreads();
  return g_num_threads;
}

void SetNumThreads(int32_t n) {
  n = std::max<int32_t>(1, n);
  MutexLock lock(g_pool_mutex);
  if (n == g_num_threads) return;
  delete g_pool;
  g_pool = n > 1 ? new ThreadPool(n) : nullptr;
  g_num_threads = n;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  HYGNN_CHECK_GT(grain, 0);
  if (end <= begin) return;
  ThreadPool* pool;
  {
    MutexLock lock(g_pool_mutex);
    if (g_num_threads == 0) {
      g_num_threads = ResolveDefaultThreads();
      if (g_num_threads > 1) g_pool = new ThreadPool(g_num_threads);
    }
    pool = g_pool;
  }
  if (pool == nullptr) {
    fn(begin, end);
    return;
  }
  pool->ParallelFor(begin, end, grain, fn);
}

WorkerThread::WorkerThread(std::function<void()> fn)
    : thread_(std::move(fn)) {}

WorkerThread::~WorkerThread() { Join(); }

void WorkerThread::Join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace hygnn::core
