#include <vector>

#include <gtest/gtest.h>

#include "metrics/metrics.h"

namespace hygnn::metrics {
namespace {

TEST(AccuracyTest, Basic) {
  std::vector<float> scores{0.9f, 0.2f, 0.7f, 0.4f};
  std::vector<float> labels{1.0f, 0.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Accuracy(scores, labels), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy(scores, labels, 0.95f), 0.5);  // all negative
}

}  // namespace
}  // namespace hygnn::metrics
