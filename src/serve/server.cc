#include "serve/server.h"

#include <string>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/optime.h"
#include "serve/chaos.h"

namespace hygnn::serve {

namespace {

/// Smoothing factor of the batch-service-time EWMA behind
/// deadline-aware admission (estimate = ewma_us * (queue depth + 1)
/// / workers): a request whose deadline cannot survive that estimate
/// is shed at admission with ResourceExhausted and a retry-after hint
/// instead of being queued to die.
constexpr double kEwmaAlpha = 0.2;

/// Pipeline-stage metric handles, fetched lazily (registration takes a
/// mutex; Observe afterwards is lock-free from any worker).
struct ServerMetrics {
  obs::Histogram* queue_wait_us;
  obs::Histogram* batch_pairs;
  obs::Histogram* batch_score_us;
  /// Numeric Server::Health (0 serving / 1 degraded / 2 draining /
  /// 3 swapping).
  obs::Gauge* health;
};

const ServerMetrics& GetServerMetrics() {
  static const ServerMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    // Batch sizes are counts, not latencies: power-of-two buckets up
    // to the largest batch any sane max_batch produces.
    std::vector<double> size_bounds;
    for (double bound = 1.0; bound <= 4096.0; bound *= 2.0) {
      size_bounds.push_back(bound);
    }
    return ServerMetrics{
        registry.GetHistogram("serve.server.queue_wait_us"),
        registry.GetHistogram("serve.server.batch_pairs", size_bounds),
        registry.GetHistogram("serve.server.batch_score_us"),
        registry.GetGauge("serve.server.health")};
  }();
  return metrics;
}

}  // namespace

core::Result<ScoreResponse> Server::Pending::Wait() {
  core::MutexLock lock(mutex_);
  while (!done_) done_cv_.Wait(mutex_);
  return *result_;
}

core::Result<ScoreResponse> Server::Pending::WaitFor(int64_t timeout_us) {
  // A *wall-time* bound on the caller's patience, not the request's
  // server-side deadline — so it runs on the real monotonic clock
  // (obs::NowNanos), not the core::Clock seam: a ManualClock cannot
  // wake a blocked condition variable, and a caller that asked to be
  // unblocked in N real microseconds must be.
  const uint64_t start_nanos = obs::NowNanos();
  core::MutexLock lock(mutex_);
  while (!done_) {
    const int64_t remaining_us =
        timeout_us - static_cast<int64_t>(
                         (obs::NowNanos() - start_nanos) / 1000);
    if (remaining_us <= 0) {
      return core::Status::DeadlineExceeded(
          "result not ready within " + std::to_string(timeout_us) +
          " us; the request is still in flight (Wait again to observe "
          "its eventual result)");
    }
    // Timeout or wakeup — the loop re-checks done_ and the clock
    // either way, so the return value is deliberately ignored.
    done_cv_.WaitFor(mutex_, remaining_us);
  }
  return *result_;
}

bool Server::Pending::done() const {
  core::MutexLock lock(mutex_);
  return done_;
}

void Server::Pending::Complete(core::Result<ScoreResponse> result) {
  core::MutexLock lock(mutex_);
  HYGNN_DCHECK(!done_) << "request completed twice";
  result_.emplace(std::move(result));
  done_ = true;
  done_cv_.NotifyAll();
}

Server::Server(const model::HyGnnModel* model, const EmbeddingStore* store,
               const ServerOptions& options)
    : options_(options),
      scorer_(model, store),
      store_(store),
      clock_(&core::ActiveClock()) {
  HYGNN_CHECK(store != nullptr);
}

Server::~Server() { Shutdown(); }

core::Status Server::Start() {
  if (auto s = options_.Validate(); !s.ok()) return s;
  {
    core::MutexLock lock(mutex_);
    if (shutdown_) {
      return core::Status::FailedPrecondition("server already shut down");
    }
    if (started_) {
      return core::Status::FailedPrecondition("server already started");
    }
    started_ = true;
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return core::Status::Ok();
}

void Server::Shutdown() {
  std::deque<std::shared_ptr<Pending>> orphans;
  {
    core::MutexLock lock(mutex_);
    shutdown_ = true;
    // Workers drain the queue before exiting; without workers the
    // queue would strand its waiters, so those requests are failed
    // inline below instead.
    if (!started_) orphans.swap(queue_);
    PublishHealthLocked();
    queue_nonempty_.NotifyAll();
  }
  for (auto& worker : workers_) worker.Join();
  for (const auto& pending : orphans) {
    pending->Complete(core::Status::FailedPrecondition(
        "server shut down before Start; request was never scored"));
    completed_.fetch_add(1, std::memory_order_release);
  }
}

core::Result<std::shared_ptr<Server::Pending>> Server::SubmitAsync(
    ScoreRequest request) {
  // Validate before admission so a malformed request is refused with a
  // precise error instead of poisoning the batch it would join.
  if (request.timeout_us < 0) {
    return core::Status::InvalidArgument(
        "timeout_us must be >= 0 (0 = no deadline), got " +
        std::to_string(request.timeout_us));
  }
  // Validate against the *current* epoch. Pinning a snapshot makes the
  // num_drugs read and any concurrent swap well-ordered; the request's
  // batch pins its own (possibly newer) epoch at batch open.
  const auto snapshot = store_->Snapshot();
  if (snapshot == nullptr) {
    return core::Status::FailedPrecondition(
        "embedding store is stale; Rebuild before scoring");
  }
  const int32_t num_drugs = snapshot->num_drugs();
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    const auto& pair = request.pairs[i];
    if (pair.a < 0 || pair.a >= num_drugs || pair.b < 0 ||
        pair.b >= num_drugs) {
      return core::Status::InvalidArgument(
          "pair " + std::to_string(i) + " = (" + std::to_string(pair.a) +
          ", " + std::to_string(pair.b) + ") outside catalog of " +
          std::to_string(num_drugs) + " drugs");
    }
  }
  const uint64_t now_nanos = clock_->NowNanos();
  auto pending =
      std::shared_ptr<Pending>(new Pending(std::move(request)));
  if (pending->request_.timeout_us > 0) {
    pending->deadline_nanos_ =
        now_nanos +
        static_cast<uint64_t>(pending->request_.timeout_us) * 1000;
  }
  if (obs::MetricsEnabled()) pending->enqueue_nanos_ = obs::NowNanos();
  {
    core::MutexLock lock(mutex_);
    if (shutdown_) {
      return core::Status::FailedPrecondition(
          "server is shut down and no longer accepts requests");
    }
    const int64_t est_wait_us = EstimatedWaitUsLocked();
    // Deadline-aware admission: once the EWMA is warm, a request that
    // cannot make its deadline through the current queue is dead on
    // arrival — shed it now with a typed error and a hint, instead of
    // queueing it to expire (which would still cost a queue slot and a
    // batch-close check).
    if (pending->deadline_nanos_ != 0 && est_wait_us > 0 &&
        now_nanos + static_cast<uint64_t>(est_wait_us) * 1000 >
            pending->deadline_nanos_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      retried_after_hint_.fetch_add(1, std::memory_order_relaxed);
      PublishHealthLocked();
      return core::Status::ResourceExhausted(
          "deadline of " + std::to_string(pending->request_.timeout_us) +
          " us cannot be met (estimated wait ~" +
          std::to_string(est_wait_us) +
          " us through a queue of " + std::to_string(queue_.size()) +
          "); shedding — retry after ~" + std::to_string(est_wait_us) +
          " us");
    }
    if (queue_.size() >= static_cast<size_t>(options_.queue_capacity)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      std::string message = "request queue at capacity (" +
                            std::to_string(options_.queue_capacity) +
                            "); shedding — retry after";
      if (est_wait_us > 0) {
        // The estimated drain time is the best available retry-after
        // hint; before the first batch completes there is none.
        retried_after_hint_.fetch_add(1, std::memory_order_relaxed);
        message += " ~" + std::to_string(est_wait_us) + " us";
      } else {
        message += " backoff";
      }
      PublishHealthLocked();
      return core::Status::ResourceExhausted(std::move(message));
    }
    queue_.push_back(pending);
    // Counted before the lock releases: a worker can only pop the
    // request after this critical section, so a concurrent stats()
    // sample can never observe its completion without its admission
    // (completed > accepted is impossible, not just unlikely).
    accepted_.fetch_add(1, std::memory_order_relaxed);
    PublishHealthLocked();
    queue_nonempty_.NotifyOne();
  }
  return pending;
}

core::Result<ScoreResponse> Server::Score(ScoreRequest request) {
  auto pending = SubmitAsync(std::move(request));
  if (!pending.ok()) return pending.status();
  return pending.value()->Wait();
}

Server::Stats Server::stats() const {
  Stats stats;
  // completed_ is sampled BEFORE accepted_ (and incremented with
  // release ordering, the acquire below pairing with it): every
  // completion's admission was counted before the completion, so this
  // read order makes completed <= accepted hold in every concurrent
  // sample, not just at quiescence. Reading accepted_ first would let
  // requests admitted-and-completed between the two loads surface as
  // completed > accepted.
  stats.completed = completed_.load(std::memory_order_acquire);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.retried_after_hint =
      retried_after_hint_.load(std::memory_order_relaxed);
  return stats;
}

Server::Health Server::health() const {
  core::MutexLock lock(mutex_);
  return HealthLocked();
}

Server::Health Server::HealthLocked() const {
  if (shutdown_) return Health::kDraining;
  if (queue_.size() * 2 >= static_cast<size_t>(options_.queue_capacity)) {
    return Health::kDegraded;
  }
  // The brief swap transition: some in-flight batch is pinned to an
  // epoch the store has since superseded. Ends when that batch drains
  // (its FinishBatch releases the pin). Reported below kDegraded so a
  // swap never hides queue pressure.
  if (!pinned_generations_.empty() &&
      *pinned_generations_.begin() < store_->generation()) {
    return Health::kSwapping;
  }
  return Health::kServing;
}

void Server::PublishHealthLocked() {
  if (!obs::MetricsEnabled()) return;
  GetServerMetrics().health->Set(
      static_cast<double>(static_cast<int32_t>(HealthLocked())));
}

int64_t Server::EstimatedWaitUsLocked() const {
  if (ewma_batch_us_ <= 0.0) return 0;  // cold: no batch completed yet
  // Worst case every queued request closes its own batch, spread over
  // the worker pool; the incoming request itself is the +1.
  const double batches_ahead = static_cast<double>(queue_.size()) + 1.0;
  const double est_us =
      ewma_batch_us_ * batches_ahead / static_cast<double>(options_.workers);
  return est_us < 1.0 ? 1 : static_cast<int64_t>(est_us);
}

void Server::CompleteExpiredRequest(
    const std::shared_ptr<Pending>& pending) {
  pending->Complete(core::Status::DeadlineExceeded(
      "deadline of " + std::to_string(pending->request_.timeout_us) +
      " us passed before the request was scored"));
  expired_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_release);
}

void Server::WorkerLoop() {
  while (true) {
    auto batch = NextBatch();
    if (batch.empty()) return;  // shutdown, queue drained
    RunBatch(batch);
  }
}

std::vector<std::shared_ptr<Server::Pending>> Server::NextBatch() {
  std::vector<std::shared_ptr<Pending>> batch;
  const bool record = obs::MetricsEnabled();
  obs::Histogram* queue_wait_us =
      record ? GetServerMetrics().queue_wait_us : nullptr;
  int64_t total_pairs = 0;
  uint64_t open_nanos = 0;
  // The pop-expire-record steps are written out at both sites below
  // rather than factored into a lambda: Thread Safety Analysis cannot
  // see through lambda bodies, and queue_ is GUARDED_BY(mutex_).
  core::MutexLock lock(mutex_);
  // Open the batch with the oldest *live* request. Requests whose
  // deadline passed while they queued are completed with
  // DeadlineExceeded right here — promptly, not parked until the next
  // batch happens to close (CompleteExpiredRequest only takes the
  // Pending's own lock; no path acquires mutex_ after it, so the
  // nested acquisition cannot deadlock).
  while (batch.empty()) {
    while (queue_.empty() && !shutdown_) queue_nonempty_.Wait(mutex_);
    if (queue_.empty()) return batch;  // shutdown && drained
    std::shared_ptr<Pending> pending = std::move(queue_.front());
    queue_.pop_front();
    if (pending->deadline_nanos_ != 0 &&
        clock_->NowNanos() >= pending->deadline_nanos_) {
      CompleteExpiredRequest(pending);
      continue;
    }
    total_pairs += static_cast<int64_t>(pending->request_.pairs.size());
    open_nanos = clock_->NowNanos();
    if (queue_wait_us != nullptr && pending->enqueue_nanos_ != 0) {
      queue_wait_us->Observe(
          static_cast<double>(obs::NowNanos() - pending->enqueue_nanos_) /
          1e3);
    }
    batch.push_back(std::move(pending));
  }
  // Dynamic batching: keep the batch open until it holds max_batch
  // pairs or has been open max_wait_us, whichever comes first. A
  // shutdown closes it immediately so draining stays fast.
  while (total_pairs < options_.max_batch) {
    if (!queue_.empty()) {
      std::shared_ptr<Pending> pending = std::move(queue_.front());
      queue_.pop_front();
      if (pending->deadline_nanos_ != 0 &&
          clock_->NowNanos() >= pending->deadline_nanos_) {
        CompleteExpiredRequest(pending);
        continue;
      }
      total_pairs += static_cast<int64_t>(pending->request_.pairs.size());
      if (queue_wait_us != nullptr && pending->enqueue_nanos_ != 0) {
        queue_wait_us->Observe(
            static_cast<double>(obs::NowNanos() -
                                pending->enqueue_nanos_) /
            1e3);
      }
      batch.push_back(std::move(pending));
      continue;
    }
    if (shutdown_) break;
    const int64_t elapsed_us =
        static_cast<int64_t>((clock_->NowNanos() - open_nanos) / 1000);
    const int64_t remaining_us = options_.max_wait_us - elapsed_us;
    if (remaining_us <= 0) break;
    // Wakeup (true) re-checks the queue and the seam clock; a real-time
    // timeout (false) closes the batch outright — under a ManualClock
    // the seam's elapsed time never advances on its own, and the batch
    // window must still be bounded in wall time.
    if (!queue_nonempty_.WaitFor(mutex_, remaining_us)) break;
  }
  return batch;
}

void Server::FailBatch(const std::vector<std::shared_ptr<Pending>>& batch,
                       const core::Status& status) {
  // Even in a failed batch the deadline contract holds: a waiter whose
  // deadline has passed was "never scored within its deadline" and
  // gets DeadlineExceeded (counted in expired), not the batch error —
  // the same result it would have observed had the batch succeeded.
  const uint64_t now_nanos = clock_->NowNanos();
  for (const auto& pending : batch) {
    if (pending->deadline_nanos_ != 0 &&
        now_nanos >= pending->deadline_nanos_) {
      CompleteExpiredRequest(pending);
      continue;
    }
    pending->Complete(status);
    completed_.fetch_add(1, std::memory_order_release);
  }
}

void Server::RunBatch(const std::vector<std::shared_ptr<Pending>>& batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t service_start_nanos = clock_->NowNanos();
  // Pin this batch's catalog epoch: one snapshot for validation and
  // every row read, taken BEFORE the chaos hook so a stalled worker
  // holds its pre-stall epoch across any swap published while it is
  // parked. The pin is registered for the health check and released in
  // FinishBatch; the snapshot itself lives until this frame unwinds,
  // which is what delays old-epoch reclamation until the batch drains.
  const auto snapshot = store_->Snapshot();
  const uint64_t pinned_generation =
      snapshot != nullptr ? snapshot->generation() : store_->generation();
  {
    core::MutexLock lock(mutex_);
    pinned_generations_.insert(pinned_generation);
  }
  // Chaos seam: may park this worker (injected stall) or fail the
  // whole batch with an injected status — which must flow to every
  // live waiter as a typed result, exactly like a real scoring
  // failure.
  if (options_.chaos != nullptr) {
    if (auto injected = options_.chaos->OnBatchStart(); !injected.ok()) {
      FailBatch(batch, injected);
      FinishBatch(service_start_nanos, pinned_generation);
      return;
    }
  }
  const bool record = obs::MetricsEnabled();
  const ServerMetrics* metrics = record ? &GetServerMetrics() : nullptr;
  // One scorer invocation for the whole batch: the decoder treats each
  // pair row independently and the scorer's chunk partition is fixed,
  // so per-request scores match scoring each request alone bit-for-bit.
  ScoreRequest merged;
  size_t total_pairs = 0;
  for (const auto& pending : batch) {
    total_pairs += pending->request_.pairs.size();
  }
  merged.pairs.reserve(total_pairs);
  for (const auto& pending : batch) {
    merged.pairs.insert(merged.pairs.end(), pending->request_.pairs.begin(),
                        pending->request_.pairs.end());
  }
  if (record) {
    metrics->batch_pairs->Observe(static_cast<double>(total_pairs));
  }
  const uint64_t score_start_nanos = record ? obs::NowNanos() : 0;
  auto scored = scorer_.ScorePairs(merged, snapshot);
  if (record) {
    metrics->batch_score_us->Observe(
        static_cast<double>(obs::NowNanos() - score_start_nanos) / 1e3);
  }
  if (!scored.ok()) {
    // Batch-level failure, typed: the store went stale (null snapshot
    // after Invalidate) or the pinned epoch no longer covers an id the
    // request was admitted under (catalog shrank in a Rebuild). Every
    // live request in the batch gets the typed error — never a torn or
    // stale-row score.
    FailBatch(batch, scored.status());
    FinishBatch(service_start_nanos, pinned_generation);
    return;
  }
  const std::vector<float>& scores = scored.value().scores;
  // Post-score expiry: the deadline may have passed while the batch
  // was being scored (or stalled). The waiter asked for the result
  // within its deadline or not at all, so it gets the typed error;
  // the computed scores are withheld, never delivered late.
  const uint64_t delivery_nanos = clock_->NowNanos();
  size_t offset = 0;
  for (const auto& pending : batch) {
    const size_t count = pending->request_.pairs.size();
    if (pending->deadline_nanos_ != 0 &&
        delivery_nanos >= pending->deadline_nanos_) {
      CompleteExpiredRequest(pending);
      offset += count;
      continue;
    }
    ScoreResponse response;
    response.scores.assign(
        scores.begin() + static_cast<ptrdiff_t>(offset),
        scores.begin() + static_cast<ptrdiff_t>(offset + count));
    offset += count;
    pending->Complete(std::move(response));
    completed_.fetch_add(1, std::memory_order_release);
  }
  FinishBatch(service_start_nanos, pinned_generation);
}

void Server::FinishBatch(uint64_t service_start_nanos,
                         uint64_t pinned_generation) {
  const double sample_us =
      static_cast<double>(clock_->NowNanos() - service_start_nanos) / 1e3;
  core::MutexLock lock(mutex_);
  // Release this batch's epoch pin. The multiset erase removes exactly
  // one entry, so concurrent workers pinned to the same generation keep
  // their own pins.
  pinned_generations_.erase(pinned_generations_.find(pinned_generation));
  // First completed batch seeds the EWMA; afterwards standard
  // exponential smoothing. A ManualClock that never advances keeps the
  // EWMA cold (sample 0), which tests use to isolate admission
  // behavior from service-time estimation.
  if (sample_us > 0.0) {
    ewma_batch_us_ = ewma_batch_us_ == 0.0
                         ? sample_us
                         : kEwmaAlpha * sample_us +
                               (1.0 - kEwmaAlpha) * ewma_batch_us_;
  }
  PublishHealthLocked();
}

}  // namespace hygnn::serve
