#ifndef HYGNN_SERVE_SCORING_H_
#define HYGNN_SERVE_SCORING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/status.h"
#include "data/drug.h"
#include "hygnn/model.h"
#include "serve/embedding_store.h"
#include "serve/request.h"

namespace hygnn::serve {

/// Pairs per core::ParallelFor chunk in PairScorer. A fixed constant —
/// never derived from the thread count — so the batch partition (and
/// therefore every float) is identical at any thread count.
inline constexpr int64_t kScoreChunkPairs = 256;

/// Batched pair scoring against cached embeddings: gathers each pair's
/// rows from one pinned StoreSnapshot and runs only the decoder,
/// skipping the encoder entirely. Chunks are distributed over
/// core::ParallelFor; because the decoder is row-independent and the
/// snapshot rows are exact copies of the encoder output, scores are
/// bit-identical to the cold HyGnnModel::PredictProbabilities path at
/// any thread count — and independent of how pairs are grouped into
/// requests, which is what lets serve::Server coalesce requests into
/// dynamic batches without perturbing any result.
///
/// Every scoring call reads exactly one catalog epoch: the overload
/// without a snapshot pins the store's current one; the explicit
/// overload lets serve::Server score a whole batch against the epoch
/// it pinned at batch open, so a catalog swap mid-batch can never tear
/// a result.
///
/// Runs under tensor::InferenceModeScope; a debug assertion verifies
/// that no autograd graph nodes are allocated on the serving path.
/// Model and store must outlive the scorer; the store must be valid()
/// (Rebuild after any weight reload).
class PairScorer {
 public:
  PairScorer(const model::HyGnnModel* model, const EmbeddingStore* store);

  /// The typed request/response surface against the store's *current*
  /// epoch. Rejects a stale store with FailedPrecondition and
  /// out-of-catalog pair ids with InvalidArgument — no crash paths, so
  /// a bad request from one serving client cannot take the process
  /// down.
  core::Result<ScoreResponse> ScorePairs(const ScoreRequest& request) const;

  /// Scores against an explicit pinned epoch: validation and every row
  /// read use `snapshot`, never the live store, so the call is immune
  /// to concurrent AddDrug/Rebuild/Invalidate publications. A null
  /// snapshot is the stale store (FailedPrecondition); ids outside the
  /// snapshot's catalog are InvalidArgument.
  core::Result<ScoreResponse> ScorePairs(
      const ScoreRequest& request,
      const std::shared_ptr<const StoreSnapshot>& snapshot) const;

 private:
  /// Scoring body of ScorePairs; input must already be validated
  /// against `snapshot`.
  std::vector<float> ScoreValidated(std::span<const data::LabeledPair> pairs,
                                    const StoreSnapshot& snapshot) const;

  const model::HyGnnModel* model_;
  const EmbeddingStore* store_;
};

/// Screens one drug against the whole cached catalog and returns the
/// top-K candidates in ScreeningHitBefore order (descending score,
/// ties broken by ascending drug id — a total order, so results are
/// deterministic across stdlib sort implementations). Each Screen call
/// pins one StoreSnapshot for its whole pass, so a catalog growing
/// concurrently can never produce a shortlist that mixes epochs.
class ScreeningEngine {
 public:
  ScreeningEngine(const model::HyGnnModel* model,
                  const EmbeddingStore* store);

  /// The typed request/response surface. Rejects a stale store with
  /// FailedPrecondition, an out-of-catalog query with InvalidArgument,
  /// and a negative top_k with InvalidArgument.
  core::Result<ScreenResponse> Screen(const ScreenRequest& request) const;

 private:
  const EmbeddingStore* store_;
  PairScorer scorer_;
};

}  // namespace hygnn::serve

#endif  // HYGNN_SERVE_SCORING_H_
