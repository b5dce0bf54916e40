#ifndef HYGNN_METRICS_METRICS_H_
#define HYGNN_METRICS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hygnn::metrics {

/// Binary confusion counts at a fixed decision threshold.
struct ConfusionMatrix {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t true_negatives = 0;
  int64_t false_negatives = 0;

  double Accuracy() const;
  double Precision() const;
  double Recall() const;
  double F1() const;
};

/// Builds the confusion matrix of `scores` vs binary `labels` at
/// `threshold` (score >= threshold predicts positive).
ConfusionMatrix ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels,
                                 float threshold = 0.5f);

/// F1 at threshold 0.5 — the paper's F1 column.
double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels, float threshold = 0.5f);

/// Area under the ROC curve, computed exactly via the Mann-Whitney U
/// statistic with tie correction. Returns 0.5 when one class is absent.
double RocAuc(const std::vector<float>& scores,
              const std::vector<float>& labels);

/// Area under the precision-recall curve (average precision, step-wise
/// interpolation — matches sklearn's average_precision_score). Returns
/// the positive prevalence when all scores tie.
double PrAuc(const std::vector<float>& scores,
             const std::vector<float>& labels);

/// Accuracy at the given threshold.
double Accuracy(const std::vector<float>& scores,
                const std::vector<float>& labels, float threshold = 0.5f);

/// F1 / ROC-AUC / PR-AUC triple — the paper's binary reporting columns.
/// Shared by the trainer, the baseline harness, and the serving scorers
/// so every evaluation path thresholds and aggregates identically.
struct BinaryEval {
  double f1 = 0.0;
  double roc_auc = 0.0;
  double pr_auc = 0.0;
};

/// Computes the paper's three binary metrics from scores and labels.
BinaryEval EvaluateBinary(const std::vector<float>& scores,
                          const std::vector<float>& labels);

/// Multi-class evaluation: accuracy and macro-averaged F1 over the
/// classes that actually occur (true or predicted).
struct MultiClassEval {
  double accuracy = 0.0;
  double macro_f1 = 0.0;
};

/// Computes accuracy and macro-F1 of predicted vs actual class ids in
/// [0, num_classes).
MultiClassEval EvaluateMultiClass(const std::vector<int32_t>& predicted,
                                  const std::vector<int32_t>& actual,
                                  int32_t num_classes);

/// Mean and (population) standard deviation over repeated runs.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
};

Aggregate AggregateOf(const std::vector<double>& values);

}  // namespace hygnn::metrics

#endif  // HYGNN_METRICS_METRICS_H_
