// Tape linearizer and executor (see tape.h for the design overview).
// This file owns all numeric dispatch, forward and backward: the
// recording layer (ops.cc, loss.cc, sparse.cc) never touches the kernel
// layer, and every node, SpMM and the losses included, runs through
// the one dispatch below.

#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/mutex.h"
#include "obs/optime.h"
#include "tensor/debug.h"
#include "tensor/kernels/kernels.h"
#include "tensor/segment_index.h"
#include "tensor/sparse.h"

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

/// Sizes `buffer` to `count` floats, on held storage of exactly that
/// length when there is one: the one fill behind AssignZeros,
/// EnsureGrad, EnsureGradToOverwrite and the tape's outputs. With
/// `zeros` every element is +0. Without, for a kernel that writes every
/// element before it reads any, held storage comes as it is, and a
/// miss is zero-filled because std::vector cannot hand out
/// uninitialized storage. DCHECK builds fill storage handed out without
/// zeros with NaN at every size, held or fresh, so a kernel that reads
/// an element it did not write shows it in any test.
void ZeroFill(std::vector<float>* buffer, size_t count, bool zeros) {
  if (Recyclable(count)) {
    std::vector<float> held = TakeHeld(count);
    if (!held.empty()) {
      *buffer = std::move(held);
      g_buffers_recycled.fetch_add(1, std::memory_order_relaxed);
      if (!zeros && !HYGNN_DCHECK_ENABLED) return;
    }
  }
  if (zeros || !HYGNN_DCHECK_ENABLED) {
    // A constant zero lets the compiler fill with memset.
    buffer->assign(count, 0.0f);
  } else {
    buffer->assign(count, std::numeric_limits<float>::quiet_NaN());
  }
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
    ZeroFill(&grad, data.size(), /*zeros=*/true);
    grad_recyclable = true;
  }
}

bool TensorImpl::EnsureGradToOverwrite() {
  if (grad.size() == data.size()) return false;
  ZeroFill(&grad, data.size(), /*zeros=*/false);
  grad_recyclable = true;
  return true;
}

void AssignZeros(TensorImpl* node) {
  ZeroFill(&node->data, static_cast<size_t>(node->size()), /*zeros=*/true);
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

/// True for the forward kinds whose kernel adds into its output, which
/// must therefore start at +0. Every other kernel below writes each
/// element of its output before it reads any.
bool AccumulatesIntoOutput(OpKind kind) {
  switch (kind) {
    case OpKind::kMulColumnBroadcast:
    case OpKind::kSegmentSum:
    case OpKind::kRowwiseDot:
    case OpKind::kDropout:
      return true;
    case OpKind::kMatMul:
    case OpKind::kAdd:
    case OpKind::kAddRowBroadcast:
    case OpKind::kConcatCols:
    case OpKind::kIndexSelectRows:
    case OpKind::kPairMatMul:
    case OpKind::kLeakyPairScore:
    case OpKind::kSegmentSoftmax:
    case OpKind::kWeightedSegmentSum:
    case OpKind::kReduceSum:
    case OpKind::kRelu:
    case OpKind::kBiasRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSpMM:  // MultiplyInto zero-fills each row, then adds
    case OpKind::kBceWithLogitsLoss:
    case OpKind::kSoftmaxCrossEntropyLoss:
      return false;
  }
  return true;
}

/// Sizes the node's output buffer, recycled or fresh: zero-filled for
/// an accumulating kernel, as it comes otherwise.
void AllocateOutput(TensorImpl* node, OpKind kind) {
  ZeroFill(&node->data, static_cast<size_t>(node->size()),
           AccumulatesIntoOutput(kind));
  node->data_recyclable = true;
  g_buffers_allocated.fetch_add(1, std::memory_order_relaxed);
}

/// Dispatches one op's forward to the kernel layer.
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
      kernels::GatherRows(x, node->cols, rec->index->ids().data(), node->rows,
                          out);
      break;
    case OpKind::kPairMatMul: {
      const TensorImpl* w = node->parents[1].get();
      kernels::PairMatMul(x, p0->rows, p0->cols, rec->ibuf.data(),
                          rec->ibuf.data() + node->rows, node->rows,
                          w->data.data(), w->cols, out);
      break;
    }
    case OpKind::kLeakyPairScore: {
      const TensorImpl* table = node->parents[1].get();
      kernels::LeakyPairScore(x, node->rows, p0->cols, table->data.data(),
                              table->cols, rec->index->ids().data(),
                              node->parents[2]->data.data(), rec->alpha, out);
      break;
    }
    case OpKind::kSegmentSoftmax:
      kernels::SegmentSoftmax(x, rec->index->groups(), out);
      break;
    case OpKind::kSegmentSum:
      kernels::SegmentSumAccumulate(x, rec->index->groups(), node->cols, out);
      break;
    case OpKind::kWeightedSegmentSum:
      kernels::WeightedSegmentSum(x, node->parents[1]->data.data(),
                                  rec->index->groups(), node->cols, out);
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
    case OpKind::kDropout:
      kernels::MulAccumulate(x, rec->fbuf->data(), out, total);
      break;
    case OpKind::kSpMM:
      // The loop EmbeddingStore::AddDrug also runs, so a drug added
      // online gets the bits a full re-encode gives it.
      rec->csr->MultiplyInto(x, node->cols, out);
      break;
    case OpKind::kBceWithLogitsLoss:
      node->data[0] = kernels::BceWithLogits(x, rec->fbuf->data(), p0->rows);
      break;
    case OpKind::kSoftmaxCrossEntropyLoss:
      // The softmax cache feeds the backward pass; allocated here, at
      // execution time.
      rec->fbuf =
          std::make_shared<std::vector<float>>(static_cast<size_t>(p0->size()));
      node->data[0] = kernels::SoftmaxCrossEntropy(
          x, rec->ibuf.data(), p0->rows, p0->cols, rec->fbuf->data());
      break;
  }
}

/// Executes one tape node: allocates its output, runs the kernel, and
/// reports to obs / NumericsGuard. With `time_ops`, the node's span runs
/// from before the allocation until the kernel returns, as
/// ExecuteNodeBackward times the backward step.
void ExecuteNodeForward(TensorImpl* node, bool time_ops) {
  OpRecord* rec = node->rec.get();
  HYGNN_DCHECK(rec != nullptr) << "pending node without a tape record";
  const uint64_t start = time_ops ? obs::NowNanos() : 0;
  AllocateOutput(node, rec->kind);
  DispatchForward(node, rec);
  if (time_ops) obs::RecordForward(node->op, obs::NowNanos() - start);
  g_ops_executed.fetch_add(1, std::memory_order_relaxed);
  const bool fused = rec->kind == OpKind::kPairMatMul ||
                     rec->kind == OpKind::kLeakyPairScore ||
                     rec->kind == OpKind::kWeightedSegmentSum ||
                     rec->kind == OpKind::kBiasRelu;
  if (fused) g_fused_groups.fetch_add(1, std::memory_order_relaxed);
  node->materialized = true;
  // BiasRelu's ReLU maps a NaN sum to 0, so its output alone would hide
  // a non-finite bias; the guard reads the bias too.
  GuardOpResult(node, rec->kind == OpKind::kBiasRelu
                          ? node->parents[1].get()
                          : nullptr);
}

/// Gradient dispatch for one recorded op: each input that requires grad
/// gets the kernel's contribution added into its gradient.
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
        // dA = G · Bᵀ via the transposed-operand kernel — no
        // materialized transpose. It overwrites a gradient it creates
        // and adds into one that another consumer already started.
        const kernels::Store store = p0->EnsureGradToOverwrite()
                                         ? kernels::Store::kOverwrite
                                         : kernels::Store::kAccumulate;
        kernels::MatMulNT(g, p1->data.data(), p0->grad.data(), n, m, k,
                          store);
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
      kernels::SegmentSumAccumulate(g, rec->index->groups(), node->cols,
                                    p0->grad.data());
      break;
    case OpKind::kPairMatMul: {
      // The bits of MatMul's backward over the pair input (dW, and dX
      // that no buffer holds), then of the two gathers' backward into
      // h: the composition ran them in that order, one after the other.
      TensorImpl* w = node->parents[1].get();
      float* dw = nullptr;
      float* dh = nullptr;
      if (w->requires_grad) {
        w->EnsureGrad();
        dw = w->grad.data();
      }
      if (p0->requires_grad) {
        p0->EnsureGrad();
        dh = p0->grad.data();
      }
      const int64_t n = node->rows;
      kernels::PairMatMulBackward(p0->data.data(), p0->rows, p0->cols,
                                  rec->ibuf.data(), rec->ibuf.data() + n, n,
                                  w->data.data(), w->cols, g, dh, dw);
      break;
    }
    case OpKind::kLeakyPairScore: {
      // The bits of MatMul's backward (dw, and the [n, dx + dt] input
      // gradient that no buffer holds), LeakyRelu's, ConcatCols's into
      // x and the gather's into table: the composition ran them in that
      // order, one after the other.
      TensorImpl* table = node->parents[1].get();
      TensorImpl* w = node->parents[2].get();
      float* dw = nullptr;
      float* dx = nullptr;
      float* dtable = nullptr;
      if (w->requires_grad) {
        w->EnsureGrad();
        dw = w->grad.data();
      }
      if (p0->requires_grad) {
        p0->EnsureGrad();
        dx = p0->grad.data();
      }
      if (table->requires_grad) {
        table->EnsureGrad();
        dtable = table->grad.data();
      }
      kernels::LeakyPairScoreBackward(
          p0->data.data(), node->rows, p0->cols, table->data.data(),
          table->cols, rec->index->ids().data(), rec->index->groups(),
          w->data.data(), rec->alpha, g, dx, dtable, dw);
      break;
    }
    case OpKind::kSegmentSoftmax:
      p0->EnsureGrad();
      kernels::SegmentSoftmaxBackward(g, node->data.data(),
                                      rec->index->groups(), p0->grad.data());
      break;
    case OpKind::kSegmentSum:
      p0->EnsureGrad();
      kernels::SegmentSumBackward(g, rec->index->ids().data(), p0->rows,
                                  node->cols, p0->grad.data());
      break;
    case OpKind::kWeightedSegmentSum: {
      // The bits of SegmentSum's backward (g broadcast onto the zeroed
      // gradient of the [n, d] product, which no buffer holds), then of
      // MulColumnBroadcast's into x and w: the composition ran them in
      // that order, one after the other.
      TensorImpl* w = node->parents[1].get();
      float* dx = nullptr;
      float* dw = nullptr;
      if (p0->requires_grad) {
        p0->EnsureGrad();
        dx = p0->grad.data();
      }
      if (w->requires_grad) {
        w->EnsureGrad();
        dw = w->grad.data();
      }
      kernels::WeightedSegmentSumBackward(
          p0->data.data(), w->data.data(), rec->index->ids().data(),
          p0->rows, node->cols, g, dx, dw);
      break;
    }
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
    case OpKind::kDropout:
      p0->EnsureGrad();
      kernels::MulAccumulate(g, rec->fbuf->data(), p0->grad.data(), total);
      break;
    case OpKind::kSpMM: {
      // dx += Aᵀ·g: the product goes into a zeroed temporary, then one
      // add per element into x's gradient.
      p0->EnsureGrad();
      std::vector<float> product(p0->data.size(), 0.0f);
      rec->csr->Transpose()->MultiplyInto(g, node->cols, product.data());
      kernels::Add(p0->grad.data(), product.data(), p0->grad.data(),
                   p0->size());
      break;
    }
    case OpKind::kBceWithLogitsLoss:
      p0->EnsureGrad();
      kernels::BceWithLogitsBackward(p0->data.data(), rec->fbuf->data(),
                                     p0->rows, g[0], p0->grad.data());
      break;
    case OpKind::kSoftmaxCrossEntropyLoss:
      p0->EnsureGrad();
      kernels::SoftmaxCrossEntropyBackward(rec->fbuf->data(), rec->ibuf.data(),
                                           p0->rows, p0->cols, g[0],
                                           p0->grad.data());
      break;
  }
}

}  // namespace

std::shared_ptr<TensorImpl> RecordOp(
    const char* op, OpKind kind, int64_t rows, int64_t cols,
    std::vector<std::shared_ptr<TensorImpl>> parents) {
  HYGNN_CHECK_GT(rows, 0);
  HYGNN_CHECK_GT(cols, 0);
  auto out = std::make_shared<TensorImpl>();
  out->op = op;
  out->rows = rows;
  out->cols = cols;
  out->materialized = false;
  out->requires_grad =
      !InferenceModeEnabled() &&
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
  // so NaN attribution follows program order (a lazy first read would
  // blame the op whose *read* triggered execution).
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
  const bool time_ops = obs::KernelTimingEnabled();
  for (TensorImpl* node : order) ExecuteNodeForward(node, time_ops);
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
