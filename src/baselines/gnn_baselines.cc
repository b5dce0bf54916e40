#include <memory>

#include "baselines/baselines.h"
#include "baselines/pair_harness.h"
#include "core/logging.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "ml/bitvector.h"
#include "nn/gnn_layers.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace hygnn::baselines {

namespace {

/// Two-layer GNN over a fixed graph with fixed or learnable input
/// features; owns all layer objects so it can live inside a closure.
struct TwoLayerGnn {
  GnnKind kind;
  std::shared_ptr<const tensor::CsrMatrix> norm_adj;   // GCN
  std::shared_ptr<const tensor::CsrMatrix> mean_adj;   // SAGE
  nn::GatEdgeIndex gat_edges;                          // GAT
  std::unique_ptr<nn::GcnConv> gcn1, gcn2;
  std::unique_ptr<nn::SageConv> sage1, sage2;
  std::unique_ptr<nn::GatConv> gat1, gat2;
  tensor::Tensor input_features;  // [n, in_dim]

  tensor::Tensor Forward() const {
    switch (kind) {
      case GnnKind::kGcn: {
        tensor::Tensor h =
            tensor::Relu(gcn1->Forward(norm_adj, input_features));
        return gcn2->Forward(norm_adj, h);
      }
      case GnnKind::kSage: {
        tensor::Tensor h =
            tensor::Relu(sage1->Forward(mean_adj, input_features));
        return sage2->Forward(mean_adj, h);
      }
      case GnnKind::kGat: {
        tensor::Tensor h =
            tensor::Relu(gat1->Forward(gat_edges, input_features));
        return gat2->Forward(gat_edges, h);
      }
    }
    HYGNN_CHECK(false) << "unknown GNN kind";
    return {};
  }

  std::vector<tensor::Tensor> Parameters() const {
    std::vector<tensor::Tensor> parameters;
    auto append = [&parameters](const std::vector<tensor::Tensor>& more) {
      parameters.insert(parameters.end(), more.begin(), more.end());
    };
    switch (kind) {
      case GnnKind::kGcn:
        append(gcn1->Parameters());
        append(gcn2->Parameters());
        break;
      case GnnKind::kSage:
        append(sage1->Parameters());
        append(sage2->Parameters());
        break;
      case GnnKind::kGat:
        append(gat1->Parameters());
        append(gat2->Parameters());
        break;
    }
    if (input_features.requires_grad()) {
      parameters.push_back(input_features);
    }
    return parameters;
  }
};

std::shared_ptr<TwoLayerGnn> BuildTwoLayerGnn(const graph::Graph& graph,
                                              GnnKind kind,
                                              tensor::Tensor input_features,
                                              const BaselineConfig& config,
                                              core::Rng* rng) {
  auto gnn = std::make_shared<TwoLayerGnn>();
  gnn->kind = kind;
  gnn->input_features = std::move(input_features);
  const int64_t in_dim = gnn->input_features.cols();
  const int64_t out_dim = config.embedding_dim;
  switch (kind) {
    case GnnKind::kGcn:
      gnn->norm_adj = graph.NormalizedAdjacency();
      gnn->gcn1 = std::make_unique<nn::GcnConv>(in_dim, out_dim, rng);
      gnn->gcn2 = std::make_unique<nn::GcnConv>(out_dim, out_dim, rng);
      break;
    case GnnKind::kSage:
      gnn->mean_adj = graph.MeanAdjacency();
      gnn->sage1 = std::make_unique<nn::SageConv>(in_dim, out_dim, rng);
      gnn->sage2 = std::make_unique<nn::SageConv>(out_dim, out_dim, rng);
      break;
    case GnnKind::kGat: {
      gnn->gat_edges = nn::GatEdgeIndex::FromGraph(graph);
      const int32_t heads = config.gat_heads;
      const int64_t head_dim =
          std::max<int64_t>(1, out_dim / std::max(1, heads));
      gnn->gat1 = std::make_unique<nn::GatConv>(in_dim, head_dim, heads, rng);
      gnn->gat2 = std::make_unique<nn::GatConv>(head_dim * heads, out_dim, 1,
                                                rng);
      break;
    }
  }
  return gnn;
}

/// Stage 1 of the paper's two-stage baseline protocol (§IV-B): the GNN
/// learns drug representations by unsupervised link prediction on the
/// training DDI edges (dot-product score, BCE loss, fresh random
/// negatives each epoch). The representations are then frozen.
tensor::Tensor TrainUnsupervisedEmbeddings(
    TwoLayerGnn* gnn, const BaselineInputs& inputs,
    const BaselineConfig& config, core::Rng* rng) {
  auto positives = data::PositivePairs(inputs.train);
  const tensor::ReleaseHeldBuffersOnReturn release_held_buffers;
  tensor::Adam optimizer(gnn->Parameters(), config.learning_rate);
  for (int32_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<int32_t> left, right;
    std::vector<float> labels;
    left.reserve(positives.size() * 2);
    right.reserve(positives.size() * 2);
    labels.reserve(positives.size() * 2);
    for (const auto& [a, b] : positives) {
      left.push_back(a);
      right.push_back(b);
      labels.push_back(1.0f);
    }
    for (size_t i = 0; i < positives.size(); ++i) {
      left.push_back(static_cast<int32_t>(
          rng->UniformInt(inputs.num_drugs)));
      right.push_back(static_cast<int32_t>(
          rng->UniformInt(inputs.num_drugs)));
      labels.push_back(0.0f);
    }
    optimizer.ZeroGrad();
    tensor::Tensor embeddings = gnn->Forward();
    tensor::Tensor logits = tensor::RowwiseDot(
        tensor::IndexSelectRows(embeddings, left),
        tensor::IndexSelectRows(embeddings, right));
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, labels);
    loss.Backward();
    optimizer.ClipGradNorm(5.0f);
    optimizer.Step();
  }
  return gnn->Forward().Detach();
}

model::EvalResult RunGnnBaseline(const graph::Graph& graph,
                                 tensor::Tensor input_features,
                                 const BaselineInputs& inputs, GnnKind kind,
                                 const BaselineConfig& config) {
  core::Rng rng(inputs.seed);
  auto gnn = BuildTwoLayerGnn(graph, kind, std::move(input_features), config,
                              &rng);
  // Two-stage protocol: representation learning, then a separately
  // trained feed-forward pair classifier on the frozen embeddings.
  tensor::Tensor frozen =
      TrainUnsupervisedEmbeddings(gnn.get(), inputs, config, &rng);
  auto embed_fn = [frozen](bool /*training*/, core::Rng* /*rng*/) {
    return frozen;
  };
  PairModelHarness harness(embed_fn, /*embed_params=*/{},
                           config.embedding_dim, config, rng.Next());
  return harness.FitAndEvaluate(inputs.train, inputs.test);
}

}  // namespace

model::EvalResult RunGnnOnDdiGraph(const BaselineInputs& inputs,
                                   GnnKind kind,
                                   const BaselineConfig& config) {
  core::Rng rng(inputs.seed ^ 0x9e3779b9);
  graph::Graph ddi_graph = graph::BuildDdiGraph(
      inputs.num_drugs, data::PositivePairs(inputs.train));
  // Transductive learnable node features (the DDI graph carries no
  // intrinsic drug attributes).
  tensor::Tensor features = tensor::XavierUniform(
      inputs.num_drugs, config.embedding_dim, &rng, /*requires_grad=*/true);
  return RunGnnBaseline(ddi_graph, std::move(features), inputs, kind,
                        config);
}

model::EvalResult RunGnnOnSsg(const BaselineInputs& inputs, GnnKind kind,
                              const BaselineConfig& config) {
  HYGNN_CHECK(inputs.drug_substructures != nullptr);
  graph::Graph ssg = graph::BuildSubstructureSimilarityGraph(
      *inputs.drug_substructures, inputs.num_substructures,
      config.ssg_min_common);
  // Node features: the drugs' binary functional representations.
  auto frs = ml::BuildFunctionalRepresentations(*inputs.drug_substructures,
                                                inputs.num_substructures);
  std::vector<float> flat;
  flat.reserve(frs.size() * static_cast<size_t>(inputs.num_substructures));
  for (const auto& fr : frs) {
    auto row = fr.ToFloats();
    flat.insert(flat.end(), row.begin(), row.end());
  }
  tensor::Tensor features = tensor::Tensor::FromVector(
      std::move(flat), inputs.num_drugs, inputs.num_substructures);
  return RunGnnBaseline(ssg, std::move(features), inputs, kind, config);
}

std::string GnnKindName(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn:
      return "GCN";
    case GnnKind::kSage:
      return "GraphSAGE";
    case GnnKind::kGat:
      return "GAT";
  }
  return "?";
}

}  // namespace hygnn::baselines
