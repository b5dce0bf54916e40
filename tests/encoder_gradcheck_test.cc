#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "hygnn/encoder.h"
#include "hygnn/model.h"
#include "tensor/loss.h"
#include "tensor/ops.h"

namespace hygnn::model {
namespace {

/// Full numeric gradient check of the hypergraph edge encoder: for every
/// element of every parameter (W_q, g1, W_p, g2), compare the autograd
/// gradient of a scalar loss with central finite differences. This
/// exercises the complete attention pipeline — SpMM, IndexSelect,
/// SegmentSoftmax, MulColumnBroadcast, SegmentSum, ConcatCols,
/// LeakyReLU — end to end through both attention levels.
TEST(EncoderGradCheckTest, AllParametersMatchNumericGradients) {
  core::Rng rng(11);
  graph::Hypergraph hypergraph(4, {{0, 1}, {1, 2, 3}, {0, 3}});
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  EncoderConfig config;
  config.hidden_dim = 3;
  config.output_dim = 2;
  HypergraphEdgeEncoder encoder(4, config, &rng);

  auto loss_value = [&]() {
    tensor::Tensor q = encoder.Forward(context, false, nullptr);
    return tensor::ReduceSum(tensor::RowwiseDot(q, q));
  };

  // Analytic gradients.
  tensor::Tensor loss = loss_value();
  loss.Backward();
  auto params = encoder.Parameters();
  std::vector<std::vector<float>> analytic;
  for (auto& param : params) {
    ASSERT_TRUE(param.has_grad());
    analytic.emplace_back(param.grad(), param.grad() + param.size());
  }

  // Numeric gradients, element by element.
  const float eps = 1e-3f;
  for (size_t p = 0; p < params.size(); ++p) {
    for (int64_t i = 0; i < params[p].size(); ++i) {
      const float saved = params[p].data()[i];
      params[p].data()[i] = saved + eps;
      const float f_plus = loss_value().item();
      params[p].data()[i] = saved - eps;
      const float f_minus = loss_value().item();
      params[p].data()[i] = saved;
      const float numeric = (f_plus - f_minus) / (2.0f * eps);
      const float a = analytic[p][static_cast<size_t>(i)];
      const float scale =
          std::max({std::fabs(numeric), std::fabs(a), 1.0f});
      EXPECT_NEAR(a, numeric, 3e-2f * scale)
          << "param " << p << " element " << i;
    }
  }
}

/// Same check for the full model with the MLP decoder and BCE loss —
/// the exact training objective (eq. 12).
TEST(EncoderGradCheckTest, FullModelBceGradientsMatchNumeric) {
  core::Rng rng(12);
  graph::Hypergraph hypergraph(4, {{0, 1}, {1, 2, 3}, {0, 3}});
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  HyGnnConfig config;
  config.encoder.hidden_dim = 3;
  config.encoder.output_dim = 2;
  config.decoder_hidden_dim = 3;
  HyGnnModel model(4, config, &rng);
  std::vector<data::LabeledPair> pairs{{0, 1, 1.0f}, {1, 2, 0.0f},
                                       {0, 2, 1.0f}};
  std::vector<float> labels{1.0f, 0.0f, 1.0f};

  auto loss_value = [&]() {
    tensor::Tensor logits = model.Forward(context, pairs, false, nullptr);
    return tensor::BceWithLogitsLoss(logits, labels);
  };

  tensor::Tensor loss = loss_value();
  loss.Backward();
  auto params = model.Parameters();
  std::vector<std::vector<float>> analytic;
  for (auto& param : params) {
    ASSERT_TRUE(param.has_grad());
    analytic.emplace_back(param.grad(), param.grad() + param.size());
  }

  const float eps = 1e-3f;
  for (size_t p = 0; p < params.size(); ++p) {
    for (int64_t i = 0; i < params[p].size(); ++i) {
      const float saved = params[p].data()[i];
      params[p].data()[i] = saved + eps;
      const float f_plus = loss_value().item();
      params[p].data()[i] = saved - eps;
      const float f_minus = loss_value().item();
      params[p].data()[i] = saved;
      const float numeric = (f_plus - f_minus) / (2.0f * eps);
      const float a = analytic[p][static_cast<size_t>(i)];
      const float scale =
          std::max({std::fabs(numeric), std::fabs(a), 0.5f});
      EXPECT_NEAR(a, numeric, 3e-2f * scale)
          << "param " << p << " element " << i;
    }
  }
}

}  // namespace
}  // namespace hygnn::model
