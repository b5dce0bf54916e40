#include "tensor/debug.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

bool AllFinite(const float* data, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

namespace {

/// "'MatMul' Tensor[3x4]" — shared label format for reports.
std::string Describe(const TensorImpl* node) {
  std::ostringstream os;
  os << "'" << node->op << "' Tensor[" << node->rows << "x" << node->cols
     << "]";
  return os.str();
}

/// Follows the first-parent chain upward, e.g. "Relu <- MatMul <- leaf".
std::string ProducerTrace(const TensorImpl* node) {
  constexpr int kMaxDepth = 10;
  std::ostringstream os;
  const TensorImpl* cur = node;
  for (int depth = 0; cur != nullptr; ++depth) {
    if (depth > 0) os << " <- ";
    if (depth == kMaxDepth) {
      os << "...";
      break;
    }
    os << cur->op;
    cur = cur->parents.empty() ? nullptr : cur->parents.front().get();
  }
  return os.str();
}

}  // namespace

std::string LintReport::ToString() const {
  if (issues.empty()) {
    return "GraphLint: clean (" + std::to_string(nodes_visited) + " nodes)";
  }
  std::ostringstream os;
  os << "GraphLint: " << issues.size() << " issue(s) across "
     << nodes_visited << " nodes";
  for (const auto& issue : issues) os << "\n  " << issue.message;
  return os.str();
}

LintReport GraphLint(const Tensor& root) {
  LintReport report;
  HYGNN_CHECK(root.defined()) << "GraphLint on a null tensor";

  // Iterative DFS with an on-stack set for cycle detection; `visited`
  // doubles as the node collection for the per-node checks below.
  std::vector<TensorImpl*> nodes;
  std::unordered_set<TensorImpl*> visited;
  std::unordered_set<TensorImpl*> on_stack;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  bool cycle_reported = false;
  stack.emplace_back(root.impl().get(), 0);
  visited.insert(root.impl().get());
  on_stack.insert(root.impl().get());
  nodes.push_back(root.impl().get());
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (next_parent < node->parents.size()) {
      TensorImpl* parent = node->parents[next_parent++].get();
      if (on_stack.count(parent) > 0) {
        if (!cycle_reported) {
          cycle_reported = true;
          report.issues.push_back(
              {LintKind::kCycle,
               "cycle through " + Describe(parent) +
                   " — the \"DAG\" is not acyclic; its shared_ptr ring "
                   "can never be freed"});
        }
        continue;
      }
      if (visited.insert(parent).second) {
        nodes.push_back(parent);
        on_stack.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      on_stack.erase(node);
      stack.pop_back();
    }
  }
  report.nodes_visited = static_cast<int64_t>(nodes.size());

  int32_t max_backward_runs = 0;
  for (TensorImpl* node : nodes) {
    max_backward_runs = std::max(max_backward_runs, node->backward_runs);
  }

  for (TensorImpl* node : nodes) {
    const int64_t expected = node->rows * node->cols;
    // Pending tape nodes legitimately carry empty data: they have not
    // executed yet. Their shapes are validated once the buffer exists.
    if (node->materialized &&
        (static_cast<int64_t>(node->data.size()) != expected ||
         (!node->grad.empty() &&
          static_cast<int64_t>(node->grad.size()) != expected))) {
      report.issues.push_back(
          {LintKind::kShapeMismatch,
           Describe(node) + " has data[" + std::to_string(node->data.size()) +
               "] / grad[" + std::to_string(node->grad.size()) +
               "] but rows*cols = " + std::to_string(expected)});
    }
    if (node->backward_runs > 1) {
      report.issues.push_back(
          {LintKind::kDoubleBackward,
           Describe(node) + " ran backward " +
               std::to_string(node->backward_runs) +
               " times — gradients were double-accumulated into its "
               "parents"});
    }
    if (node->rec != nullptr && node->parents.empty()) {
      // A tape record without parents cannot execute or run backward.
      // (The executor itself always clears rec and parents together.)
      report.issues.push_back(
          {LintKind::kDanglingRecord,
           Describe(node) +
               " holds a tape record but its parent list was released; "
               "the record can neither execute nor propagate gradients"});
    }
    const bool is_leaf = node->parents.empty() && node->rec == nullptr;
    if (is_leaf && node->requires_grad && max_backward_runs > 0 &&
        node->grad.empty()) {
      report.issues.push_back(
          {LintKind::kParamWithoutGradient,
           Describe(node) +
               " requires grad and Backward() ran, but no gradient ever "
               "reached it — the chain-rule path is broken"});
    }
  }
  return report;
}

namespace {

// Guard state. `g_enabled`/`g_triggered` are relaxed atomics so the
// per-op fast path is a single uncontended load even under TSan; the
// report string is written once, under the mutex, by the first
// violating op.
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_fatal{false};
std::atomic<bool> g_triggered{false};
core::Mutex g_report_mutex;
std::string g_report HYGNN_GUARDED_BY(g_report_mutex);

}  // namespace

void NumericsGuard::Enable(bool fatal) {
  g_fatal.store(fatal, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void NumericsGuard::Disable() {
  g_enabled.store(false, std::memory_order_relaxed);
}

bool NumericsGuard::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

bool NumericsGuard::triggered() {
  return g_triggered.load(std::memory_order_acquire);
}

std::string NumericsGuard::report() {
  core::MutexLock lock(g_report_mutex);
  return g_report;
}

void NumericsGuard::Reset() {
  core::MutexLock lock(g_report_mutex);
  g_report.clear();
  g_triggered.store(false, std::memory_order_release);
}

NumericsGuardScope::NumericsGuardScope(bool fatal)
    : previous_enabled_(g_enabled.load(std::memory_order_relaxed)),
      previous_fatal_(g_fatal.load(std::memory_order_relaxed)) {
  NumericsGuard::Enable(fatal);
}

NumericsGuardScope::~NumericsGuardScope() {
  g_fatal.store(previous_fatal_, std::memory_order_relaxed);
  g_enabled.store(previous_enabled_, std::memory_order_relaxed);
}

void GuardOpResult(TensorImpl* out, const TensorImpl* input) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (g_triggered.load(std::memory_order_acquire)) return;

  const auto first_non_finite = [](const TensorImpl* node) -> int64_t {
    const int64_t total = static_cast<int64_t>(node->data.size());
    for (int64_t i = 0; i < total; ++i) {
      if (!std::isfinite(node->data[i])) return i;
    }
    return -1;
  };
  const TensorImpl* bad = input;
  int64_t bad_index = input != nullptr ? first_non_finite(input) : -1;
  if (bad_index < 0) {
    bad = out;
    bad_index = first_non_finite(out);
  }
  if (bad_index < 0) return;

  std::ostringstream os;
  os << "NumericsGuard: op '" << out->op << "' "
     << (bad == out ? "produced" : "read") << " non-finite value "
     << bad->data[bad_index] << " at index " << bad_index << " of "
     << (bad == out ? "" : "input ") << "Tensor[" << bad->rows << "x"
     << bad->cols << "]";
  if (!out->parents.empty()) {
    os << "\n  inputs:";
    for (const auto& parent : out->parents) {
      const bool finite = AllFinite(
          parent->data.data(), static_cast<int64_t>(parent->data.size()));
      os << " " << Describe(parent.get())
         << (finite ? " (finite)" : " (already non-finite)");
    }
  }
  os << "\n  trace: " << ProducerTrace(out);

  {
    core::MutexLock lock(g_report_mutex);
    if (g_triggered.load(std::memory_order_relaxed)) return;
    g_report = os.str();
    g_triggered.store(true, std::memory_order_release);
  }
  if (g_fatal.load(std::memory_order_relaxed)) {
    HYGNN_CHECK(false) << NumericsGuard::report();
  }
}

}  // namespace hygnn::tensor
