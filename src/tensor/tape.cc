// Tape linearizer and executor (see tape.h for the design overview).
// This file owns all numeric dispatch for recorded ops: the recording
// layer (ops.cc) never touches the kernel layer, and the forward /
// backward kernel calls here replicate the eager engine's exact
// arguments and operand order so results stay bit-identical.

#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/mutex.h"
#include "obs/optime.h"
#include "tensor/debug.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor {

namespace {

/// Smallest buffer the recycler holds: glibc's dynamic mmap ceiling
/// (mallopt(3), DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB on 64-bit). malloc
/// serves every block at or above it with a fresh mmap and hands it
/// back with munmap on free, so each such buffer costs one page fault
/// per 4 KiB on first touch; below it, malloc already reuses freed
/// blocks from its own heap.
constexpr size_t kRecycleFloorBytes = size_t{32} << 20;

/// Freed tensor storage of at least kRecycleFloorBytes, waiting for a
/// request of the same length. Tensors die on any thread (serving
/// workers, pool threads), hence the lock; smaller buffers never take
/// it.
struct HeldBuffers {
  core::Mutex mu;
  std::vector<std::vector<float>> buffers HYGNN_GUARDED_BY(mu);
};

HeldBuffers& Held() {
  // Never destroyed: tensors may still die during static destruction.
  static HeldBuffers* held = new HeldBuffers();
  return *held;
}

std::atomic<uint64_t> g_buffers_recycled{0};

bool Recyclable(size_t floats) {
  return floats * sizeof(float) >= kRecycleFloorBytes;
}

/// Moves storage of at least the floor into the held list; smaller
/// storage stays put and is freed by its owner. Callers pass only
/// storage that ZeroFill sized, so held plus live recyclable storage
/// never exceeds the most of it the program had live at once: a drop
/// or a hit moves a buffer between the two, and a miss empties the
/// held list.
void HoldIfLarge(std::vector<float>* buffer) {
  if (!Recyclable(buffer->size())) return;
  HeldBuffers& held = Held();
  core::MutexLock lock(held.mu);
  held.buffers.push_back(std::move(*buffer));
}

/// Takes a held buffer of exactly `n` floats. On a miss everything held
/// is freed (outside the lock) before the caller allocates, so storage
/// stays held only while the program keeps asking for the lengths it
/// drops. Returns empty storage on a miss.
std::vector<float> TakeHeld(size_t n) {
  std::vector<std::vector<float>> evicted;
  HeldBuffers& held = Held();
  {
    core::MutexLock lock(held.mu);
    for (auto it = held.buffers.begin(); it != held.buffers.end(); ++it) {
      if (it->size() == n) {
        std::vector<float> hit = std::move(*it);
        held.buffers.erase(it);
        return hit;
      }
    }
    evicted.swap(held.buffers);
  }
  return {};
}

/// Sizes `buffer` to `count` zeros, on held storage of exactly that
/// length when there is one: the one zero-fill behind AssignZeros and
/// EnsureGrad.
void ZeroFill(std::vector<float>* buffer, size_t count) {
  if (Recyclable(count)) {
    std::vector<float> held = TakeHeld(count);
    if (!held.empty()) {
      *buffer = std::move(held);
      g_buffers_recycled.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A constant zero lets the compiler fill with memset.
  buffer->assign(count, 0.0f);
}

}  // namespace

// OpRecord is complete here, so the out-of-line special members keep
// tensor.h free of tape internals.
TensorImpl::TensorImpl() = default;

TensorImpl::~TensorImpl() {
  if (data_recyclable) HoldIfLarge(&data);
  if (grad_recyclable) HoldIfLarge(&grad);
}

void TensorImpl::EnsureGrad() {
  if (grad.size() != data.size()) {
    ZeroFill(&grad, data.size());
    grad_recyclable = true;
  }
}

void AssignZeros(TensorImpl* node) {
  ZeroFill(&node->data, static_cast<size_t>(node->size()));
  node->data_recyclable = true;
}

void ReleaseHeldBuffers() {
  // Declared before the lock, so the buffers are freed after it is
  // released.
  std::vector<std::vector<float>> evicted;
  HeldBuffers& held = Held();
  core::MutexLock lock(held.mu);
  evicted.swap(held.buffers);
}

namespace {

std::atomic<uint64_t> g_ops_executed{0};
std::atomic<uint64_t> g_fused_groups{0};
std::atomic<uint64_t> g_buffers_allocated{0};

/// Zero-fills the node's output buffer, recycled or fresh. Every
/// kernel below either plain-assigns or accumulates into zero, matching
/// the eager engine.
void AllocateOutput(TensorImpl* node) {
  AssignZeros(node);
  g_buffers_allocated.fetch_add(1, std::memory_order_relaxed);
}

/// Dispatches one op to the kernel layer. The kernel names and argument
/// order mirror the eager ops.cc exactly.
void DispatchForward(TensorImpl* node, OpRecord* rec) {
  float* out = node->data.data();
  const int64_t total = node->size();
  const TensorImpl* p0 = node->parents[0].get();
  const float* x = p0->data.data();
  switch (rec->kind) {
    case OpKind::kMatMul: {
      const TensorImpl* p1 = node->parents[1].get();
      kernels::MatMul(x, p1->data.data(), out, p0->rows, p0->cols, p1->cols);
      break;
    }
    case OpKind::kAdd:
      kernels::Add(x, node->parents[1]->data.data(), out, total);
      break;
    case OpKind::kAddRowBroadcast:
      kernels::AddRowBroadcast(x, node->parents[1]->data.data(), out,
                               node->rows, node->cols);
      break;
    case OpKind::kSub:
      kernels::Sub(x, node->parents[1]->data.data(), out, total);
      break;
    case OpKind::kMul:
      kernels::MulAccumulate(x, node->parents[1]->data.data(), out, total);
      break;
    case OpKind::kScale:
      kernels::Axpy(rec->alpha, x, out, total);
      break;
    case OpKind::kMulColumnBroadcast:
      // parents = {x, w}; the kernel takes the [n,1] scale first.
      kernels::RowScaleAccumulate(node->parents[1]->data.data(), x, out,
                                  node->rows, node->cols);
      break;
    case OpKind::kConcatCols: {
      const int64_t d1 = p0->cols;
      const int64_t d2 = node->parents[1]->cols;
      kernels::CopyColumnBlock(x, node->rows, d1, 0, out, d1 + d2, 0, d1);
      kernels::CopyColumnBlock(node->parents[1]->data.data(), node->rows, d2,
                               0, out, d1 + d2, d1, d2);
      break;
    }
    case OpKind::kIndexSelectRows:
      kernels::GatherRows(x, node->cols, rec->ibuf.data(), node->rows, out);
      break;
    case OpKind::kPairConcat:
      kernels::GatherRowPairs(x, p0->cols, rec->ibuf.data(),
                              rec->ibuf.data() + node->rows, node->rows, out);
      break;
    case OpKind::kSegmentSoftmax:
      kernels::SegmentSoftmax(x, rec->ibuf.data(), node->rows,
                              rec->num_segments, out);
      break;
    case OpKind::kSegmentSum:
      kernels::SegmentSumAccumulate(x, node->cols, rec->ibuf.data(), p0->rows,
                                    node->cols, out, rec->num_segments);
      break;
    case OpKind::kRowwiseDot:
      kernels::RowwiseDotAccumulate(x, node->parents[1]->data.data(), out,
                                    node->rows, p0->cols);
      break;
    case OpKind::kReduceSum:
      node->data[0] = kernels::Sum(x, p0->size());
      break;
    case OpKind::kRelu:
      kernels::RowwiseMap(x, out, total,
                          [](float v) { return kernels::ScalarRelu(v); });
      break;
    case OpKind::kBiasRelu:
      kernels::BiasRelu(x, node->parents[1]->data.data(), out, node->rows,
                        node->cols);
      break;
    case OpKind::kLeakyRelu:
      kernels::RowwiseMap(x, out, total, [slope = rec->alpha](float v) {
        return kernels::ScalarLeakyRelu(v, slope);
      });
      break;
    case OpKind::kSigmoid:
      kernels::RowwiseMap(x, out, total,
                          [](float v) { return kernels::ScalarSigmoid(v); });
      break;
    case OpKind::kTanh:
      kernels::RowwiseMap(x, out, total,
                          [](float v) { return kernels::ScalarTanh(v); });
      break;
    case OpKind::kExp:
      kernels::RowwiseMap(x, out, total,
                          [](float v) { return kernels::ScalarExp(v); });
      break;
    case OpKind::kLog:
      kernels::RowwiseMap(x, out, total, [eps = rec->alpha](float v) {
        return kernels::ScalarLog(v, eps);
      });
      break;
    case OpKind::kDropout:
      kernels::MulAccumulate(x, rec->fbuf->data(), out, total);
      break;
    case OpKind::kL2NormalizeRows:
      // The norms cache feeds the backward pass; allocated here, at
      // execution time, like the eager engine allocated it per call.
      rec->fbuf = std::make_shared<std::vector<float>>(
          static_cast<size_t>(node->rows), 0.0f);
      kernels::L2NormalizeRows(x, node->rows, node->cols, rec->alpha, out,
                               rec->fbuf->data());
      break;
    case OpKind::kRowSoftmax:
      kernels::RowSoftmax(x, node->rows, node->cols, out);
      break;
    case OpKind::kTranspose:
      kernels::Transpose(x, p0->rows, p0->cols, out);
      break;
  }
}

/// Executes one tape node: allocates its output, runs the kernel, and
/// reports to obs / NumericsGuard.
void ExecuteNodeForward(TensorImpl* node) {
  OpRecord* rec = node->rec.get();
  HYGNN_DCHECK(rec != nullptr) << "pending node without a tape record";
  obs::OpStart(node);
  AllocateOutput(node);
  DispatchForward(node, rec);
  g_ops_executed.fetch_add(1, std::memory_order_relaxed);
  const bool fused =
      rec->kind == OpKind::kPairConcat || rec->kind == OpKind::kBiasRelu;
  if (fused) g_fused_groups.fetch_add(1, std::memory_order_relaxed);
  node->materialized = true;
  obs::OpFinish(node, node->op);
  // BiasRelu's ReLU maps a NaN sum to 0, so its output alone would hide
  // a non-finite bias; the guard reads the bias too.
  GuardOpResult(node, rec->kind == OpKind::kBiasRelu
                          ? node->parents[1].get()
                          : nullptr);
}

/// Gradient dispatch for one recorded op — a line-for-line mirror of
/// the eager engine's backward closures (same kernels, same operand
/// order, same NeedsGrad gating), driven by OpKind instead of a
/// captured lambda.
void DispatchBackward(TensorImpl* node, OpRecord* rec) {
  if (node->grad.empty()) return;  // no gradient reached this node
  const float* g = node->grad.data();
  const int64_t total = node->size();
  TensorImpl* p0 = node->parents[0].get();
  switch (rec->kind) {
    case OpKind::kMatMul: {
      TensorImpl* p1 = node->parents[1].get();
      const int64_t n = p0->rows, k = p0->cols, m = p1->cols;
      if (p0->requires_grad) {
        p0->EnsureGrad();
        // dA = G · Bᵀ via the transposed-operand kernel — no
        // materialized transpose.
        kernels::MatMulNT(g, p1->data.data(), p0->grad.data(), n, m, k);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        // dB = Aᵀ · G, likewise transpose-free.
        kernels::MatMulTN(p0->data.data(), g, p1->grad.data(), n, k, m);
      }
      break;
    }
    case OpKind::kAdd: {
      TensorImpl* p1 = node->parents[1].get();
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::Axpy(1.0f, g, p0->grad.data(), total);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::Axpy(1.0f, g, p1->grad.data(), total);
      }
      break;
    }
    case OpKind::kAddRowBroadcast: {
      TensorImpl* p1 = node->parents[1].get();
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::Axpy(1.0f, g, p0->grad.data(), total);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::ColumnSumAccumulate(g, node->rows, node->cols,
                                     p1->grad.data());
      }
      break;
    }
    case OpKind::kSub: {
      TensorImpl* p1 = node->parents[1].get();
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::Axpy(1.0f, g, p0->grad.data(), total);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::Axpy(-1.0f, g, p1->grad.data(), total);
      }
      break;
    }
    case OpKind::kMul: {
      TensorImpl* p1 = node->parents[1].get();
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::MulAccumulate(g, p1->data.data(), p0->grad.data(), total);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::MulAccumulate(g, p0->data.data(), p1->grad.data(), total);
      }
      break;
    }
    case OpKind::kScale:
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::Axpy(rec->alpha, g, p0->grad.data(), total);
      }
      break;
    case OpKind::kMulColumnBroadcast: {
      TensorImpl* p1 = node->parents[1].get();  // the [n,1] weights
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::RowScaleAccumulate(p1->data.data(), g, p0->grad.data(),
                                    node->rows, node->cols);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::RowwiseDotAccumulate(g, p0->data.data(), p1->grad.data(),
                                      node->rows, node->cols);
      }
      break;
    }
    case OpKind::kConcatCols: {
      TensorImpl* p1 = node->parents[1].get();
      const int64_t d1 = p0->cols, d2 = p1->cols;
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::AccumulateColumnBlock(g, node->rows, d1 + d2, 0,
                                       p0->grad.data(), d1, 0, d1);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::AccumulateColumnBlock(g, node->rows, d1 + d2, d1,
                                       p1->grad.data(), d2, 0, d2);
      }
      break;
    }
    case OpKind::kIndexSelectRows:
      // The gather's backward is a segment sum keyed by the indices: each
      // source row adds its gathered rows in ascending order.
      p0->EnsureGrad();
      kernels::SegmentSumAccumulate(g, node->cols, rec->ibuf.data(),
                                    node->rows, node->cols, p0->grad.data(),
                                    p0->rows);
      break;
    case OpKind::kPairConcat: {
      // The b half first, then the a half: the order in which the tape
      // runs the backward of IndexSelectRows(x, b) and then of
      // IndexSelectRows(x, a) under ConcatCols, so every row of x sums
      // its gradients in the same order.
      const int64_t d = p0->cols, n = node->rows;
      p0->EnsureGrad();
      kernels::SegmentSumAccumulate(g + d, 2 * d, rec->ibuf.data() + n, n, d,
                                    p0->grad.data(), p0->rows);
      kernels::SegmentSumAccumulate(g, 2 * d, rec->ibuf.data(), n, d,
                                    p0->grad.data(), p0->rows);
      break;
    }
    case OpKind::kSegmentSoftmax:
      p0->EnsureGrad();
      kernels::SegmentSoftmaxBackward(g, node->data.data(), rec->ibuf.data(),
                                      node->rows, rec->num_segments,
                                      p0->grad.data());
      break;
    case OpKind::kSegmentSum:
      p0->EnsureGrad();
      kernels::SegmentSumBackward(g, rec->ibuf.data(), p0->rows, node->cols,
                                  p0->grad.data());
      break;
    case OpKind::kRowwiseDot: {
      TensorImpl* p1 = node->parents[1].get();
      if (p0->requires_grad) {
        p0->EnsureGrad();
        kernels::RowScaleAccumulate(g, p1->data.data(), p0->grad.data(),
                                    p0->rows, p0->cols);
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        kernels::RowScaleAccumulate(g, p0->data.data(), p1->grad.data(),
                                    p0->rows, p0->cols);
      }
      break;
    }
    case OpKind::kReduceSum:
      p0->EnsureGrad();
      kernels::AccumulateConstant(node->grad[0], p0->grad.data(), p0->size());
      break;
    case OpKind::kRelu:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [](float v, float) { return kernels::ScalarReluGrad(v); });
      break;
    case OpKind::kBiasRelu: {
      TensorImpl* p1 = node->parents[1].get();
      float* dx = nullptr;
      float* dbias = nullptr;
      if (p0->requires_grad) {
        p0->EnsureGrad();
        dx = p0->grad.data();
      }
      if (p1->requires_grad) {
        p1->EnsureGrad();
        dbias = p1->grad.data();
      }
      kernels::BiasReluBackward(node->data.data(), g, node->rows, node->cols,
                                dx, dbias);
      break;
    }
    case OpKind::kLeakyRelu:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [slope = rec->alpha](float v, float) {
            return kernels::ScalarLeakyReluGrad(v, slope);
          });
      break;
    case OpKind::kSigmoid:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [](float, float y) { return kernels::ScalarSigmoidGrad(y); });
      break;
    case OpKind::kTanh:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [](float, float y) { return kernels::ScalarTanhGrad(y); });
      break;
    case OpKind::kExp:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [](float, float y) { return y; });
      break;
    case OpKind::kLog:
      p0->EnsureGrad();
      kernels::RowwiseMapGradAccumulate(
          p0->data.data(), node->data.data(), g, p0->grad.data(), total,
          [eps = rec->alpha](float v, float) {
            return kernels::ScalarLogGrad(v, eps);
          });
      break;
    case OpKind::kDropout:
      p0->EnsureGrad();
      kernels::MulAccumulate(g, rec->fbuf->data(), p0->grad.data(), total);
      break;
    case OpKind::kL2NormalizeRows:
      p0->EnsureGrad();
      kernels::L2NormalizeRowsBackward(g, node->data.data(),
                                       rec->fbuf->data(), node->rows,
                                       node->cols, p0->grad.data());
      break;
    case OpKind::kRowSoftmax:
      p0->EnsureGrad();
      kernels::RowSoftmaxBackward(g, node->data.data(), node->rows,
                                  node->cols, p0->grad.data());
      break;
    case OpKind::kTranspose:
      // Recorded detached; never reached with requires_grad set.
      break;
  }
}

}  // namespace

std::shared_ptr<TensorImpl> RecordOp(
    const char* op, OpKind kind, int64_t rows, int64_t cols,
    std::vector<std::shared_ptr<TensorImpl>> parents, bool detached) {
  HYGNN_CHECK_GT(rows, 0);
  HYGNN_CHECK_GT(cols, 0);
  auto out = std::make_shared<TensorImpl>();
  out->op = op;
  out->rows = rows;
  out->cols = cols;
  out->materialized = false;
  out->requires_grad =
      !detached && !InferenceModeEnabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const std::shared_ptr<TensorImpl>& p) {
                    return p->requires_grad;
                  });
  out->parents = std::move(parents);
  out->rec = std::make_unique<OpRecord>();
  out->rec->kind = kind;
  return out;
}

Tensor FinishRecord(std::shared_ptr<TensorImpl> out) {
  // Under the numerics watchdog every op materializes at the call site,
  // restoring the eager engine's program-order NaN attribution (a lazy
  // first-read would blame the op whose *read* triggered execution).
  if (NumericsGuard::enabled()) MaterializeTensor(out);
  return Tensor(std::move(out));
}

void MaterializeTensor(const std::shared_ptr<TensorImpl>& root) {
  if (root == nullptr || root->materialized) return;
  // Linearize: iterative post-order DFS over the *pending* subgraph —
  // the same traversal Tensor::Backward uses over the full graph, so
  // execution order is a fixed function of the recorded graph shape.
  // Materialized parents are frontier inputs, not tape entries.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->parents.size()) {
      TensorImpl* parent = node->parents[child_index++].get();
      if (!parent->materialized && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  for (TensorImpl* node : order) ExecuteNodeForward(node);
  // Nodes that will never run backward keep neither graph edges nor
  // tape state — inference forwards end up as plain value nodes (the
  // serve tests pin this with GraphLint).
  for (TensorImpl* node : order) {
    if (!node->requires_grad) {
      node->parents.clear();
      node->rec.reset();
    }
  }
}

void ExecuteNodeBackward(TensorImpl* node, bool time_ops) {
  if (node->backward_fn) {
    ++node->backward_runs;
    if (time_ops) {
      // Attribute each node's gradient kernel to its producing op —
      // the backward half of the obs per-op attribution table.
      const uint64_t start = obs::NowNanos();
      node->backward_fn();
      obs::RecordBackward(node->op, obs::NowNanos() - start);
    } else {
      node->backward_fn();
    }
    return;
  }
  OpRecord* rec = node->rec.get();
  if (rec == nullptr || !node->requires_grad) return;
  ++node->backward_runs;
  if (time_ops) {
    const uint64_t start = obs::NowNanos();
    DispatchBackward(node, rec);
    obs::RecordBackward(node->op, obs::NowNanos() - start);
  } else {
    DispatchBackward(node, rec);
  }
}

ExecStatsSnapshot ExecStats() {
  ExecStatsSnapshot snapshot;
  snapshot.ops_executed = g_ops_executed.load(std::memory_order_relaxed);
  snapshot.fused_groups = g_fused_groups.load(std::memory_order_relaxed);
  snapshot.buffers_allocated =
      g_buffers_allocated.load(std::memory_order_relaxed);
  snapshot.buffers_recycled =
      g_buffers_recycled.load(std::memory_order_relaxed);
  HeldBuffers& held = Held();
  core::MutexLock lock(held.mu);
  for (const std::vector<float>& buffer : held.buffers) {
    snapshot.bytes_held += buffer.size() * sizeof(float);
  }
  return snapshot;
}

void ResetExecStats() {
  g_ops_executed.store(0, std::memory_order_relaxed);
  g_fused_groups.store(0, std::memory_order_relaxed);
  g_buffers_allocated.store(0, std::memory_order_relaxed);
  g_buffers_recycled.store(0, std::memory_order_relaxed);
}

bool IndicesInRange(const int32_t* v, int64_t n, int32_t lo, int32_t hi) {
  return kernels::AllInRange(v, n, lo, hi);
}

void DrawDropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                     int64_t n) {
  kernels::DropoutMask(rng, p, keep_scale, mask, n);
}

}  // namespace hygnn::tensor
