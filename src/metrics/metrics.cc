#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.h"

namespace hygnn::metrics {

double ConfusionMatrix::Accuracy() const {
  const int64_t total = true_positives + false_positives + true_negatives +
                        false_negatives;
  if (total == 0) return 0.0;
  return static_cast<double>(true_positives + true_negatives) /
         static_cast<double>(total);
}

double ConfusionMatrix::Precision() const {
  const int64_t denom = true_positives + false_positives;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double ConfusionMatrix::Recall() const {
  const int64_t denom = true_positives + false_negatives;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double ConfusionMatrix::F1() const {
  const double precision = Precision();
  const double recall = Recall();
  if (precision + recall == 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

ConfusionMatrix ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels,
                                 float threshold) {
  HYGNN_CHECK_EQ(scores.size(), labels.size());
  ConfusionMatrix cm;
  for (size_t i = 0; i < scores.size(); ++i) {
    const bool predicted = scores[i] >= threshold;
    const bool actual = labels[i] > 0.5f;
    if (predicted && actual) {
      ++cm.true_positives;
    } else if (predicted && !actual) {
      ++cm.false_positives;
    } else if (!predicted && actual) {
      ++cm.false_negatives;
    } else {
      ++cm.true_negatives;
    }
  }
  return cm;
}

double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels, float threshold) {
  return ComputeConfusion(scores, labels, threshold).F1();
}

double RocAuc(const std::vector<float>& scores,
              const std::vector<float>& labels) {
  HYGNN_CHECK_EQ(scores.size(), labels.size());
  const size_t n = scores.size();
  // Rank the scores (average ranks on ties), then apply Mann-Whitney.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  // Tie-break by index: std::sort is not stable and a score-only
  // comparator leaves tied elements in an unspecified, standard-library-
  // dependent order. Ties are processed as one rank group below, so the
  // value is unchanged — but the traversal order (and any future code
  // that peels the groups apart) is now deterministic everywhere.
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) +
                             static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  double positive_rank_sum = 0.0;
  int64_t positives = 0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[k] > 0.5f) {
      positive_rank_sum += ranks[k];
      ++positives;
    }
  }
  const int64_t negatives = static_cast<int64_t>(n) - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = positive_rank_sum -
                   static_cast<double>(positives) *
                       (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) *
              static_cast<double>(negatives));
}

double PrAuc(const std::vector<float>& scores,
             const std::vector<float>& labels) {
  HYGNN_CHECK_EQ(scores.size(), labels.size());
  const size_t n = scores.size();
  int64_t total_positives = 0;
  for (float label : labels) {
    if (label > 0.5f) ++total_positives;
  }
  if (total_positives == 0) return 0.0;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  // Non-stable sort with a score-only comparator ordered ties
  // unspecifiedly (libstdc++ vs libc++ disagree); the index tie-break
  // makes the ranking a total order, so results are deterministic
  // across standard libraries. Regression: PrAucTest.TiedScores*.
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  // Average precision: sum over thresholds of precision * delta-recall,
  // processing tied scores as a single threshold.
  double average_precision = 0.0;
  int64_t tp = 0, fp = 0;
  double previous_recall = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] > 0.5f) {
        ++tp;
      } else {
        ++fp;
      }
    }
    const double recall = static_cast<double>(tp) /
                          static_cast<double>(total_positives);
    const double precision = static_cast<double>(tp) /
                             static_cast<double>(tp + fp);
    average_precision += precision * (recall - previous_recall);
    previous_recall = recall;
    i = j + 1;
  }
  return average_precision;
}

double Accuracy(const std::vector<float>& scores,
                const std::vector<float>& labels, float threshold) {
  return ComputeConfusion(scores, labels, threshold).Accuracy();
}

BinaryEval EvaluateBinary(const std::vector<float>& scores,
                          const std::vector<float>& labels) {
  BinaryEval result;
  result.f1 = F1Score(scores, labels);
  result.roc_auc = RocAuc(scores, labels);
  result.pr_auc = PrAuc(scores, labels);
  return result;
}

MultiClassEval EvaluateMultiClass(const std::vector<int32_t>& predicted,
                                  const std::vector<int32_t>& actual,
                                  int32_t num_classes) {
  HYGNN_CHECK_EQ(predicted.size(), actual.size());
  HYGNN_CHECK(!predicted.empty());
  MultiClassEval result;
  int64_t correct = 0;
  std::vector<int64_t> tp(num_classes, 0), fp(num_classes, 0),
      fn(num_classes, 0);
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == actual[i]) {
      ++correct;
      ++tp[static_cast<size_t>(actual[i])];
    } else {
      ++fp[static_cast<size_t>(predicted[i])];
      ++fn[static_cast<size_t>(actual[i])];
    }
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(predicted.size());
  double f1_sum = 0.0;
  int32_t active_classes = 0;
  for (int32_t c = 0; c < num_classes; ++c) {
    const int64_t support = tp[c] + fn[c];
    const int64_t predicted_count = tp[c] + fp[c];
    if (support == 0 && predicted_count == 0) continue;
    ++active_classes;
    if (tp[c] == 0) continue;
    const double precision = static_cast<double>(tp[c]) /
                             static_cast<double>(predicted_count);
    const double recall =
        static_cast<double>(tp[c]) / static_cast<double>(support);
    f1_sum += 2.0 * precision * recall / (precision + recall);
  }
  if (active_classes > 0) {
    result.macro_f1 = f1_sum / active_classes;
  }
  return result;
}

Aggregate AggregateOf(const std::vector<double>& values) {
  Aggregate agg;
  if (values.empty()) return agg;
  for (double v : values) agg.mean += v;
  agg.mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - agg.mean) * (v - agg.mean);
  var /= static_cast<double>(values.size());
  agg.stddev = std::sqrt(var);
  return agg;
}

}  // namespace hygnn::metrics
