#include "serve/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/csr.h"
#include "core/logging.h"
#include "obs/metrics.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace hygnn::serve {

using core::Result;
using core::Status;

std::atomic<int64_t> StoreSnapshot::live_count_{0};

const float* StoreSnapshot::Row(int32_t drug) const {
  HYGNN_CHECK(drug >= 0 && drug < num_drugs_);
  return embeddings_.data() + static_cast<int64_t>(drug) * dim_;
}

EmbeddingStore::EmbeddingStore(const model::HyGnnModel* model)
    : model_(model) {
  HYGNN_CHECK(model != nullptr);
}

void EmbeddingStore::Publish(
    std::shared_ptr<const StoreSnapshot> snapshot) {
  // One pointer assignment under the handle lock is the whole swap: a
  // reader that copies the new pointer sees the fully built buffer;
  // readers still holding the old pointer keep its bytes until their
  // shared_ptr drops (the grace period). The generation bump is
  // published before the pointer so a reader pairing Snapshot() with
  // generation() never sees a snapshot newer than the counter.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  core::MutexLock handle_lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

void EmbeddingStore::Invalidate() {
  core::MutexLock lock(mutex_);
  Publish(nullptr);
}

int32_t EmbeddingStore::num_drugs() const {
  const auto snapshot = Snapshot();
  return snapshot == nullptr ? 0 : snapshot->num_drugs();
}

int64_t EmbeddingStore::dim() const {
  const auto snapshot = Snapshot();
  return snapshot == nullptr ? 0 : snapshot->dim();
}

const float* EmbeddingStore::Row(int32_t drug) const {
  const auto snapshot = Snapshot();
  HYGNN_CHECK(snapshot != nullptr)
      << "embedding store is stale; Rebuild first";
  // The raw pointer outlives `snapshot` here but stays valid while the
  // store itself keeps this epoch current (see the header contract).
  return snapshot->Row(drug);
}

Status EmbeddingStore::Rebuild(const model::HypergraphContext& context) {
  core::MutexLock lock(mutex_);
  if (context.edge_features == nullptr) {
    return Status::InvalidArgument("context has no edge features");
  }
  if (context.num_nodes != model_->input_dim()) {
    return Status::InvalidArgument(
        "context/model mismatch: context has " +
        std::to_string(context.num_nodes) + " substructure nodes, model "
        "input dimension is " + std::to_string(model_->input_dim()));
  }
  tensor::InferenceModeScope inference;
  const tensor::Tensor embeddings =
      model_->EmbedDrugs(context, /*training=*/false, nullptr);
  const int32_t num_drugs = context.num_edges;
  num_nodes_ = context.num_nodes;
  std::vector<float> rows(embeddings.data(),
                          embeddings.data() + embeddings.size());

  // Snapshot the single-layer intermediates AddDrug mirrors. Deeper
  // stacks skip this (AddDrug rejects them).
  q_proj_.clear();
  edge_scores_.clear();
  incident_.assign(static_cast<size_t>(num_nodes_), {});
  if (model_->encoder().num_layers() == 1) {
    const auto& layer = model_->encoder().layer(0);
    const tensor::Tensor q_proj =
        tensor::SpMM(context.edge_features, layer.w_q());
    q_proj_.assign(q_proj.data(), q_proj.data() + q_proj.size());
    if (layer.config().use_attention) {
      const tensor::Tensor scores = tensor::MatMul(
          tensor::LeakyRelu(q_proj, layer.config().leaky_slope),
          layer.g1());
      edge_scores_.assign(scores.data(), scores.data() + scores.size());
    } else {
      edge_scores_.assign(static_cast<size_t>(num_drugs), 0.0f);
    }
    // COO pairs are sorted by (edge, node), so a single ascending scan
    // leaves every node's incident-edge list in ascending edge order —
    // the order the segment kernels visit that node's rows in.
    const std::vector<int32_t>& pair_nodes = context.pair_nodes->ids();
    const std::vector<int32_t>& pair_edges = context.pair_edges->ids();
    for (size_t r = 0; r < pair_nodes.size(); ++r) {
      incident_[static_cast<size_t>(pair_nodes[r])].push_back(pair_edges[r]);
    }
  }
  Publish(std::shared_ptr<const StoreSnapshot>(new StoreSnapshot(
      generation_.load(std::memory_order_relaxed) + 1, num_drugs,
      embeddings.cols(), std::move(rows))));
  names_.clear();
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("serve.embedding_cache.rebuilds")
        ->Add();
  }
  return Status::Ok();
}

Result<int32_t> EmbeddingStore::AddDrug(
    const std::vector<int32_t>& substructures) {
  core::MutexLock lock(mutex_);
  return AddDrugLocked(substructures);
}

Result<int32_t> EmbeddingStore::AddDrugLocked(
    const std::vector<int32_t>& substructures) {
  namespace kernels = tensor::kernels;
  const auto current = Snapshot();
  if (current == nullptr) {
    return Status::FailedPrecondition(
        "embedding store is stale; Rebuild before AddDrug");
  }
  if (model_->encoder().num_layers() != 1) {
    return Status::FailedPrecondition(
        "incremental AddDrug requires a single-layer encoder; this model "
        "has " + std::to_string(model_->encoder().num_layers()) +
        " layers (use Rebuild on an extended hypergraph instead)");
  }
  for (int32_t id : substructures) {
    if (id < 0 || id >= num_nodes_) {
      return Status::OutOfRange(
          "substructure id " + std::to_string(id) +
          " outside the model vocabulary [0, " +
          std::to_string(num_nodes_) + ")");
    }
  }
  if (substructures.empty()) {
    // Graceful degradation: a drug whose SMILES matched no vocabulary
    // substructure still gets a (zero) row — scores against it are
    // uninformative but the catalog stays consistent.
    HYGNN_LOG(Warning) << "AddDrug: zero recognized substructures; "
                          "appending a zero embedding row";
  }
  // Hypergraph membership is a set: sort + dedup, matching what
  // Hypergraph/CsrMatrix::FromCoo do to incidence pairs.
  std::vector<int32_t> members = substructures;
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  const auto& layer = model_->encoder().layer(0);
  const auto& config = layer.config();
  const int64_t hidden = config.hidden_dim;
  const int64_t out_dim = config.output_dim;
  const float slope = config.leaky_slope;
  const int32_t new_edge = current->num_drugs();
  const int64_t n_members = static_cast<int64_t>(members.size());

  // 1. Projected features of the new hyperedge: the exact CSR row
  //    product SpMM computes for this drug's H^T row.
  std::vector<float> q_new(static_cast<size_t>(hidden), 0.0f);
  if (n_members > 0) {
    const std::vector<int32_t> row_zero(members.size(), 0);
    const std::vector<float> ones(members.size(), 1.0f);
    const auto csr_row = tensor::CsrMatrix::FromCoo(1, num_nodes_, row_zero,
                                                    members, ones);
    csr_row->MultiplyInto(layer.w_q().data(), hidden, q_new.data());
  }

  // 2. Hyperedge-level attention score g1 . LeakyReLU(q_new).
  float score_new = 0.0f;
  if (config.use_attention) {
    std::vector<float> e_feat(static_cast<size_t>(hidden));
    for (int64_t j = 0; j < hidden; ++j) {
      e_feat[static_cast<size_t>(j)] =
          kernels::ScalarLeakyRelu(q_new[j], slope);
    }
    kernels::MatMul(e_feat.data(), layer.g1().data(), &score_new, 1, hidden,
                    1);
  }

  // 3. Re-derive p_i (and its W_p projection) for each member node with
  //    the new hyperedge in its softmax — the only nodes whose
  //    representation the new drug's embedding depends on. Each node's
  //    incident list stays ascending (the new edge id is the maximum),
  //    so the encoder's segment kernels, run over one segment, visit
  //    rows in the same order the full-context kernels would.
  std::vector<float> p_proj_members(
      static_cast<size_t>(n_members * out_dim), 0.0f);
  for (int64_t mi = 0; mi < n_members; ++mi) {
    const auto& incident = incident_[static_cast<size_t>(members[mi])];
    const int64_t n_inc = static_cast<int64_t>(incident.size()) + 1;
    std::vector<float> scores(static_cast<size_t>(n_inc), 0.0f);
    std::vector<float> gathered(static_cast<size_t>(n_inc * hidden));
    const std::vector<int32_t> seg(static_cast<size_t>(n_inc), 0);
    core::Csr one_node;
    one_node.GroupBy(seg, 1);
    for (int64_t r = 0; r + 1 < n_inc; ++r) {
      const int32_t edge = incident[static_cast<size_t>(r)];
      if (config.use_attention) {
        scores[static_cast<size_t>(r)] =
            edge_scores_[static_cast<size_t>(edge)];
      }
      std::memcpy(&gathered[static_cast<size_t>(r * hidden)],
                  &q_proj_[static_cast<size_t>(edge) *
                           static_cast<size_t>(hidden)],
                  static_cast<size_t>(hidden) * sizeof(float));
    }
    if (config.use_attention) {
      scores[static_cast<size_t>(n_inc - 1)] = score_new;
    }
    std::memcpy(&gathered[static_cast<size_t>((n_inc - 1) * hidden)],
                q_new.data(), static_cast<size_t>(hidden) * sizeof(float));

    std::vector<float> y(static_cast<size_t>(n_inc));
    kernels::SegmentSoftmax(scores.data(), one_node, y.data());
    std::vector<float> p(static_cast<size_t>(hidden));
    kernels::WeightedSegmentSum(gathered.data(), y.data(), one_node, hidden,
                                p.data());
    for (int64_t j = 0; j < hidden; ++j) {
      p[static_cast<size_t>(j)] =
          kernels::ScalarLeakyRelu(p[static_cast<size_t>(j)], slope);
    }
    kernels::MatMul(p.data(), layer.w_p().data(),
                    &p_proj_members[static_cast<size_t>(mi * out_dim)], 1,
                    hidden, out_dim);
  }

  // 4. Node-level attention over the new hyperedge's members, then the
  //    weighted aggregation that yields its embedding.
  //    The scores are the encoder's LeakyPairScore kernel, with q_new
  //    as a one-row table that every member reads as row 0.
  const std::vector<int32_t> seg(static_cast<size_t>(n_members), 0);
  core::Csr one_edge;
  one_edge.GroupBy(seg, 1);
  std::vector<float> member_scores(static_cast<size_t>(n_members), 0.0f);
  if (config.use_attention && n_members > 0) {
    kernels::LeakyPairScore(p_proj_members.data(), n_members, out_dim,
                            q_new.data(), hidden, seg.data(),
                            layer.g2().data(), slope, member_scores.data());
  }
  std::vector<float> x(static_cast<size_t>(n_members));
  kernels::SegmentSoftmax(member_scores.data(), one_edge, x.data());
  const int64_t dim = current->dim();
  std::vector<float> q_out(static_cast<size_t>(out_dim));
  kernels::WeightedSegmentSum(p_proj_members.data(), x.data(), one_edge,
                              out_dim, q_out.data());
  for (int64_t o = 0; o < out_dim; ++o) {
    q_out[static_cast<size_t>(o)] =
        kernels::ScalarLeakyRelu(q_out[static_cast<size_t>(o)], slope);
  }

  // 5. Commit: build the next epoch off to the side (existing rows are
  //    byte-copied, so old-id scores stay memcmp-identical across the
  //    swap), publish it with one pointer store, and grow the
  //    mutator-side incidence index. Readers pinned to `current` are
  //    untouched; `current` itself is reclaimed when the last of them
  //    drains.
  const float* old_rows = current->num_drugs() > 0 ? current->Row(0) : nullptr;
  std::vector<float> rows;
  rows.reserve(static_cast<size_t>((new_edge + 1) * dim));
  if (old_rows != nullptr) {
    rows.assign(old_rows, old_rows + static_cast<int64_t>(new_edge) * dim);
  }
  rows.insert(rows.end(), q_out.begin(), q_out.end());
  Publish(std::shared_ptr<const StoreSnapshot>(new StoreSnapshot(
      generation_.load(std::memory_order_relaxed) + 1, new_edge + 1, dim,
      std::move(rows))));
  q_proj_.insert(q_proj_.end(), q_new.begin(), q_new.end());
  edge_scores_.push_back(score_new);
  for (int32_t node : members) {
    incident_[static_cast<size_t>(node)].push_back(new_edge);
  }
  if (obs::MetricsEnabled()) {
    // An AddDrug is a cache miss: the row was not in the store and had
    // to be derived incrementally (Row reads afterwards are hits).
    obs::MetricsRegistry::Global()
        .GetCounter("serve.embedding_cache.misses")
        ->Add();
    obs::MetricsRegistry::Global()
        .GetCounter("serve.embedding_cache.swaps")
        ->Add();
  }
  return new_edge;
}

Result<int32_t> EmbeddingStore::AddDrugSmiles(
    const data::SubstructureFeaturizer& featurizer,
    const std::string& smiles) {
  core::MutexLock lock(mutex_);
  if (featurizer.num_substructures() != num_nodes_) {
    return Status::InvalidArgument(
        "featurizer/model mismatch: featurizer vocabulary has " +
        std::to_string(featurizer.num_substructures()) +
        " substructures, store was built for " +
        std::to_string(num_nodes_));
  }
  auto ids = featurizer.SegmentNewSmiles(smiles);
  if (!ids.ok()) return ids.status();
  return AddDrugLocked(ids.value());
}

Result<int32_t> EmbeddingStore::AddDrugNamed(
    const std::string& external_id,
    const std::vector<int32_t>& substructures) {
  if (external_id.empty()) {
    return Status::InvalidArgument("empty external drug id");
  }
  core::MutexLock lock(mutex_);
  if (auto it = names_.find(external_id); it != names_.end()) {
    return Status::AlreadyExists(
        "drug \"" + external_id + "\" is already registered as row " +
        std::to_string(it->second));
  }
  auto row = AddDrugLocked(substructures);
  if (!row.ok()) return row.status();
  names_.emplace(external_id, row.value());
  return row;
}

Result<int32_t> EmbeddingStore::FindDrug(
    const std::string& external_id) const {
  core::MutexLock lock(mutex_);
  auto it = names_.find(external_id);
  if (it == names_.end()) {
    return Status::NotFound("no drug registered as \"" + external_id +
                            "\"");
  }
  return it->second;
}

}  // namespace hygnn::serve
