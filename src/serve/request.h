#ifndef HYGNN_SERVE_REQUEST_H_
#define HYGNN_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/drug.h"

namespace hygnn::serve {

class FaultInjectingScorer;

/// The serve request/response surface: one typed value-type contract
/// shared by the library calls (PairScorer::ScorePairs,
/// ScreeningEngine::Screen) and the serve::Server request pipeline.
/// Every entry point validates its request and reports failures as a
/// typed core::Status instead of crashing, so a malformed or mistimed
/// request from one client can never take the process down.

/// A batch of drug pairs to score. Pair ids index the serving catalog
/// (EmbeddingStore rows); labels on the pairs are ignored — only
/// (a, b) are read. An empty request is valid and yields an empty
/// response.
struct ScoreRequest {
  std::vector<data::LabeledPair> pairs;

  /// Relative deadline: the submitter needs the result within this many
  /// microseconds of admission, or not at all. 0 means no deadline.
  /// serve::Server converts it to an absolute monotonic deadline
  /// (core::ActiveClock) at SubmitAsync and never scores an expired
  /// request — it completes with DeadlineExceeded instead, checked both
  /// when its batch closes and again after scoring, so a waiter never
  /// outlives its deadline by more than one batch window. Negative
  /// values are rejected with InvalidArgument.
  int64_t timeout_us = 0;
};

/// Scores for one ScoreRequest: scores[i] is the interaction
/// probability of request.pairs[i]. Always exactly request.pairs.size()
/// entries, in request order — independent of how the server batched
/// the request (bit-identity with serial scoring is pinned by
/// tests/server_test.cc).
struct ScoreResponse {
  std::vector<float> scores;
};

/// One screening result: a catalog drug and its interaction probability
/// with the query.
struct ScreeningHit {
  int32_t drug = 0;
  float score = 0.0f;
};

/// Strict total order on screening hits: descending score with ties
/// broken by ascending drug id — the same tie-break-by-index rule the
/// AUC/F1 comparators use, so shortlist output is deterministic across
/// stdlib sort implementations (std::partial_sort is free to order
/// equivalent elements arbitrarily unless the comparator never declares
/// two distinct hits equivalent).
inline bool ScreeningHitBefore(const ScreeningHit& a,
                               const ScreeningHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.drug < b.drug;
}

/// Screen one catalog drug against the whole catalog.
struct ScreenRequest {
  /// Query drug id (an EmbeddingStore row).
  int32_t query = 0;
  /// Number of top candidates to return; fewer come back when the
  /// catalog is smaller. Zero is valid (an empty shortlist).
  int32_t top_k = 10;
};

/// Top candidates for one ScreenRequest, in ScreeningHitBefore order
/// (descending score, ties by ascending drug id). The query itself is
/// never a hit.
struct ScreenResponse {
  std::vector<ScreeningHit> hits;
};

/// Tuning knobs for serve::Server. The defaults favor latency: small
/// batches, sub-millisecond batching waits.
struct ServerOptions {
  /// Maximum requests queued awaiting a worker. Admission control:
  /// a Submit against a full queue is shed immediately with
  /// ResourceExhausted rather than blocking the caller.
  int32_t queue_capacity = 256;
  /// A batch closes once it holds at least this many pairs (a single
  /// request larger than max_batch still forms one batch — requests
  /// are never split).
  int32_t max_batch = 64;
  /// A batch also closes once it has been open this long, so a lone
  /// request never waits for company that may not come. Zero disables
  /// waiting entirely (every batch is whatever is queued right now).
  int64_t max_wait_us = 1000;
  /// Scorer worker threads draining the queue. They share one
  /// EmbeddingStore cache; each batch is scored on the worker that
  /// closed it.
  int32_t workers = 1;
  /// Chaos seam (tests): invoked at every batch open, may stall the
  /// worker or fail the batch with an injected status. Borrowed; must
  /// outlive the server. Production servers leave it null.
  FaultInjectingScorer* chaos = nullptr;

  /// Typed validation of the knobs; Server::Start refuses to spawn on
  /// any non-Ok status.
  core::Status Validate() const {
    if (queue_capacity < 1) {
      return core::Status::InvalidArgument(
          "queue_capacity must be >= 1, got " +
          std::to_string(queue_capacity));
    }
    if (max_batch < 1) {
      return core::Status::InvalidArgument(
          "max_batch must be >= 1, got " + std::to_string(max_batch));
    }
    if (max_wait_us < 0) {
      return core::Status::InvalidArgument(
          "max_wait_us must be >= 0, got " + std::to_string(max_wait_us));
    }
    if (workers < 1) {
      return core::Status::InvalidArgument(
          "workers must be >= 1, got " + std::to_string(workers));
    }
    return core::Status::Ok();
  }
};

}  // namespace hygnn::serve

#endif  // HYGNN_SERVE_REQUEST_H_
