#ifndef HYGNN_TENSOR_DEBUG_H_
#define HYGNN_TENSOR_DEBUG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace hygnn::tensor {

/// Correctness tooling for the autograd engine: a static linter over a
/// Tensor's parent DAG (GraphLint) and an opt-in runtime mode that
/// attributes the first NaN/Inf to the operator that produced it
/// (NumericsGuard). Both are diagnostic aids — they never change
/// numerical results.

/// True when every element of [data, data + n) is finite (no NaN/Inf).
bool AllFinite(const float* data, int64_t n);

/// Categories of autograd-graph misuse detected by GraphLint.
enum class LintKind {
  /// The parent DAG contains a cycle (impossible via the public op API;
  /// indicates manual TensorImpl surgery and a guaranteed shared_ptr
  /// leak).
  kCycle,
  /// A node's backward_fn ran more than once, double-accumulating
  /// gradients into its parents.
  kDoubleBackward,
  /// A reachable requires_grad leaf (parameter) never received a
  /// gradient even though Backward() ran — the chain rule path to it is
  /// broken.
  kParamWithoutGradient,
  /// A node still holds a backward_fn although its parent list was
  /// released, or carries one despite requires_grad being false; the
  /// closure pins freed subgraphs alive and re-running it would write
  /// into detached parents.
  kDanglingBackwardFn,
  /// data/grad buffer sizes disagree with rows*cols.
  kShapeMismatch,
};

/// A single linter finding with a human-readable explanation.
struct LintIssue {
  LintKind kind;
  std::string message;
};

/// Result of linting one autograd graph.
struct LintReport {
  std::vector<LintIssue> issues;
  int64_t nodes_visited = 0;

  bool clean() const { return issues.empty(); }

  /// All findings joined into a printable block, one issue per line.
  std::string ToString() const;
};

/// Walks the autograd DAG rooted at `root` (following parent edges) and
/// reports structural misuse. Cheap: O(nodes + edges), no allocation of
/// tensor-sized buffers. Safe to call before or after Backward();
/// kParamWithoutGradient is only diagnosed once Backward() has run.
LintReport GraphLint(const Tensor& root);

/// Opt-in global watchdog that scans every operator result for NaN/Inf
/// and records the *first* offending op with a parent-chain trace. Off
/// by default: disabled cost is one relaxed atomic load per op. Enable
/// either explicitly (Enable / NumericsGuardScope) or via the
/// HYGNN_NUMERICS_GUARD=1 environment variable in the trainer.
///
/// Single write-site state: the guard records only the first violation
/// so attribution always names the op that introduced the bad value,
/// not downstream ops it contaminated.
class NumericsGuard {
 public:
  /// Turns the guard on. With `fatal` set, the first violation aborts
  /// via HYGNN_CHECK with the full report; otherwise it is recorded and
  /// readable through report().
  static void Enable(bool fatal = false);
  static void Disable();
  static bool enabled();

  /// True once a non-finite op result has been observed since the last
  /// Reset().
  static bool triggered();

  /// Human-readable description of the first violation (empty when not
  /// triggered): op name, shape, flat index, value, input summary, and
  /// a producer-chain trace.
  static std::string report();

  /// Clears triggered state and report; keeps the enabled/fatal mode.
  static void Reset();
};

/// RAII enable/restore for NumericsGuard; saves the previous
/// enabled/fatal mode and restores it on destruction. The triggered
/// state and report survive scope exit so callers can inspect them.
class NumericsGuardScope {
 public:
  explicit NumericsGuardScope(bool fatal = false);
  ~NumericsGuardScope();

  NumericsGuardScope(const NumericsGuardScope&) = delete;
  NumericsGuardScope& operator=(const NumericsGuardScope&) = delete;

 private:
  bool previous_enabled_;
  bool previous_fatal_;
};

/// Hook called after an op's forward value is written (the tape
/// executor for recorded ops, loss.cc for opaque eager ones). No-op
/// unless NumericsGuard is enabled and has not yet triggered. `input`,
/// when set, is an operand whose non-finite values the output can hide
/// (BiasRelu's bias, under its ReLU): it is scanned first, and a hit is
/// reported under the op's name.
void GuardOpResult(const std::shared_ptr<TensorImpl>& out);
void GuardOpResult(TensorImpl* out, const TensorImpl* input = nullptr);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_DEBUG_H_
