#include "serve/scoring.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/debug.h"

namespace hygnn::serve {

namespace {

/// Serving-side metric handles, fetched lazily so a process that never
/// enables metrics never touches the registry (registration takes a
/// mutex; Observe/Add afterwards are lock-free, safe from ParallelFor
/// workers). Handles are process-lifetime stable.
struct ScoreMetrics {
  obs::Histogram* score_us;
  obs::Histogram* gather_us;
  obs::Histogram* decode_us;
  obs::Counter* pairs_scored;
  obs::Counter* cache_hits;
};

const ScoreMetrics& GetScoreMetrics() {
  static const ScoreMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return ScoreMetrics{registry.GetHistogram("serve.score_us"),
                        registry.GetHistogram("serve.gather_us"),
                        registry.GetHistogram("serve.decode_us"),
                        registry.GetCounter("serve.pairs_scored"),
                        registry.GetCounter("serve.embedding_cache.hits")};
  }();
  return metrics;
}

/// Validates every pair id against one pinned catalog epoch. Shared by
/// ScorePairs and Screen so both report the same typed errors; a null
/// snapshot is the stale store.
core::Status ValidateAgainstSnapshot(
    const std::shared_ptr<const StoreSnapshot>& snapshot,
    std::span<const data::LabeledPair> pairs) {
  if (snapshot == nullptr) {
    return core::Status::FailedPrecondition(
        "embedding store is stale; Rebuild before scoring");
  }
  const int32_t num_drugs = snapshot->num_drugs();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& pair = pairs[i];
    if (pair.a < 0 || pair.a >= num_drugs || pair.b < 0 ||
        pair.b >= num_drugs) {
      return core::Status::InvalidArgument(
          "pair " + std::to_string(i) + " = (" + std::to_string(pair.a) +
          ", " + std::to_string(pair.b) + ") outside catalog of " +
          std::to_string(num_drugs) + " drugs");
    }
  }
  return core::Status::Ok();
}

}  // namespace

PairScorer::PairScorer(const model::HyGnnModel* model,
                       const EmbeddingStore* store)
    : model_(model), store_(store) {
  HYGNN_CHECK(model != nullptr);
  HYGNN_CHECK(store != nullptr);
}

core::Result<ScoreResponse> PairScorer::ScorePairs(
    const ScoreRequest& request) const {
  return ScorePairs(request, store_->Snapshot());
}

core::Result<ScoreResponse> PairScorer::ScorePairs(
    const ScoreRequest& request,
    const std::shared_ptr<const StoreSnapshot>& snapshot) const {
  if (auto s = ValidateAgainstSnapshot(snapshot, request.pairs); !s.ok()) {
    return s;
  }
  return ScoreResponse{ScoreValidated(request.pairs, *snapshot)};
}

std::vector<float> PairScorer::Score(
    std::span<const data::LabeledPair> pairs) const {
  // Deprecated shim: same validation as ScorePairs, but the historical
  // crash-on-bad-input contract (callers predating typed errors never
  // checked a status).
  const auto snapshot = store_->Snapshot();
  auto s = ValidateAgainstSnapshot(snapshot, pairs);
  HYGNN_CHECK(s.ok()) << s.ToString();
  return ScoreValidated(pairs, *snapshot);
}

std::vector<float> PairScorer::ScoreValidated(
    std::span<const data::LabeledPair> pairs,
    const StoreSnapshot& snapshot) const {
  const int64_t n = static_cast<int64_t>(pairs.size());
  std::vector<float> scores(static_cast<size_t>(n));
  if (n == 0) return scores;
  const int64_t dim = snapshot.dim();
  const bool record = obs::MetricsEnabled();
  const ScoreMetrics* metrics = record ? &GetScoreMetrics() : nullptr;
  obs::Timer score_timer;
  if (record) {
    metrics->pairs_scored->Add(static_cast<uint64_t>(n));
    // Every pair reads two precomputed embedding rows from the store.
    metrics->cache_hits->Add(static_cast<uint64_t>(2 * n));
  }
  tensor::InferenceModeScope inference;
  // Fixed-size chunks: the partition never depends on the thread count,
  // and the decoder treats each pair row independently, so chunked
  // scores match the one-shot batch bit-for-bit. Nested ParallelFor
  // calls inside the decoder kernels run inline on the worker.
  core::ParallelFor(0, n, kScoreChunkPairs, [&](int64_t lo, int64_t hi) {
    const int64_t m = hi - lo;
    // The chunk's own rows, never the catalog: the a rows, then the b
    // rows, so pair i is rows (i, m + i) of the block.
    tensor::Tensor block = tensor::Tensor::Zeros(2 * m, dim);
    std::vector<int32_t> a(static_cast<size_t>(m));
    std::vector<int32_t> b(static_cast<size_t>(m));
    {
      // Per-stage spans record from pool workers concurrently; Observe
      // is one relaxed fetch_add, so no cross-worker synchronization.
      obs::ScopedTimer gather_span(record ? metrics->gather_us : nullptr);
      for (int64_t i = 0; i < m; ++i) {
        const auto& pair = pairs[static_cast<size_t>(lo + i)];
        std::memcpy(block.data() + i * dim, snapshot.Row(pair.a),
                    static_cast<size_t>(dim) * sizeof(float));
        std::memcpy(block.data() + (m + i) * dim, snapshot.Row(pair.b),
                    static_cast<size_t>(dim) * sizeof(float));
        a[static_cast<size_t>(i)] = static_cast<int32_t>(i);
        b[static_cast<size_t>(i)] = static_cast<int32_t>(m + i);
      }
    }
    obs::ScopedTimer decode_span(record ? metrics->decode_us : nullptr);
    const tensor::Tensor logits =
        model_->decoder().Score(block, a, b, /*training=*/false, nullptr);
    for (int64_t i = 0; i < m; ++i) {
      scores[static_cast<size_t>(lo + i)] =
          model::StableSigmoid(logits.data()[i]);
    }
    // Serving contract: inference mode must keep no autograd graph.
    // The data() read above materialized the tape, which strips the
    // recording edges off no-grad nodes — checked after the read
    // because until then the pending tape nodes ARE the graph.
    HYGNN_DCHECK_EQ(tensor::GraphLint(logits).nodes_visited, 1)
        << "serving path retained autograd graph nodes";
  });
  if (record) metrics->score_us->Observe(score_timer.ElapsedMicros());
  return scores;
}

ScreeningEngine::ScreeningEngine(const model::HyGnnModel* model,
                                 const EmbeddingStore* store)
    : store_(store), scorer_(model, store) {}

core::Result<ScreenResponse> ScreeningEngine::Screen(
    const ScreenRequest& request) const {
  // One pinned epoch for the whole screen: the candidate list, every
  // row read, and the shortlist all agree even if the catalog is
  // growing concurrently.
  const auto snapshot = store_->Snapshot();
  if (snapshot == nullptr) {
    return core::Status::FailedPrecondition(
        "embedding store is stale; Rebuild before screening");
  }
  const int32_t num_drugs = snapshot->num_drugs();
  if (request.query < 0 || request.query >= num_drugs) {
    return core::Status::InvalidArgument(
        "query drug " + std::to_string(request.query) +
        " outside catalog of " + std::to_string(num_drugs) + " drugs");
  }
  if (request.top_k < 0) {
    return core::Status::InvalidArgument(
        "top_k must be >= 0, got " + std::to_string(request.top_k));
  }
  const bool record = obs::MetricsEnabled();
  obs::Histogram* build_us = nullptr;
  obs::Histogram* score_us = nullptr;
  obs::Histogram* rank_us = nullptr;
  if (record) {
    auto& registry = obs::MetricsRegistry::Global();
    build_us = registry.GetHistogram("serve.topk_build_us");
    score_us = registry.GetHistogram("serve.topk_score_us");
    rank_us = registry.GetHistogram("serve.topk_rank_us");
  }
  ScoreRequest score_request;
  {
    obs::ScopedTimer build_span(build_us);
    score_request.pairs.reserve(static_cast<size_t>(num_drugs));
    for (int32_t drug = 0; drug < num_drugs; ++drug) {
      if (drug == request.query) continue;
      score_request.pairs.push_back({request.query, drug, 0.0f});
    }
  }
  std::vector<float> scores;
  {
    obs::ScopedTimer score_span(score_us);
    auto scores_or = scorer_.ScorePairs(score_request, snapshot);
    if (!scores_or.ok()) return scores_or.status();
    scores = std::move(scores_or).value().scores;
  }
  obs::ScopedTimer rank_span(rank_us);
  ScreenResponse response;
  response.hits.resize(score_request.pairs.size());
  for (size_t i = 0; i < score_request.pairs.size(); ++i) {
    response.hits[i] = {score_request.pairs[i].b, scores[i]};
  }
  const size_t keep = std::min(response.hits.size(),
                               static_cast<size_t>(request.top_k));
  std::partial_sort(response.hits.begin(),
                    response.hits.begin() + static_cast<ptrdiff_t>(keep),
                    response.hits.end(), ScreeningHitBefore);
  response.hits.resize(keep);
  return response;
}

std::vector<ScreeningHit> ScreeningEngine::TopK(int32_t query,
                                                int32_t k) const {
  // Deprecated shim over Screen; preserves the historical contract
  // (crash on bad query, clamp negative k to an empty shortlist).
  auto response = Screen({query, std::max(k, 0)});
  HYGNN_CHECK(response.ok()) << response.status().ToString();
  return std::move(response).value().hits;
}

}  // namespace hygnn::serve
