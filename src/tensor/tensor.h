#ifndef HYGNN_TENSOR_TENSOR_H_
#define HYGNN_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/logging.h"

namespace hygnn::tensor {

/// Tape record for a recorded-but-not-yet-executed op (tensor/tape.h).
struct OpRecord;

/// Internal storage and autograd node for a Tensor. Holds the value, the
/// accumulated gradient, the node's parents in the dynamic computation
/// graph, and the tape record (tensor/tape.h) the executor runs forward
/// and backward.
struct TensorImpl {
  std::vector<float> data;
  std::vector<float> grad;  // same length as data once EnsureGrad ran
  int64_t rows = 0;
  int64_t cols = 0;
  bool requires_grad = false;

  std::vector<std::shared_ptr<TensorImpl>> parents;

  /// Name of the operator that produced this node ("leaf" for inputs and
  /// parameters). Static strings only; used by NumericsGuard reports and
  /// GraphLint (see tensor/debug.h).
  const char* op = "leaf";

  /// How many times Backward() has run this node's backward step. A
  /// value above 1 means gradients were double-accumulated through this
  /// node (flagged by GraphLint).
  int32_t backward_runs = 0;

  /// False while the node is a recorded tape op whose value has not been
  /// computed yet; the executor (tensor/tape.cc) flips it after writing
  /// `data`. Leaves and hand-built nodes are born materialized.
  bool materialized = true;

  /// Present on every node produced by the recording layer (ops.cc,
  /// loss.cc, sparse.cc): the op kind plus op-specific payload the
  /// executor dispatches on. Cleared after execution for nodes that will
  /// never run backward, so inference graphs carry no tape state.
  std::unique_ptr<OpRecord> rec;

  /// Set when the tape or AssignZeros sized `data` / EnsureGrad or
  /// EnsureGradToOverwrite sized `grad`. Only such storage goes back to
  /// the buffer recycler, so it never holds more buffers than it handed
  /// out (a caller's vector is freed).
  bool data_recyclable = false;
  bool grad_recyclable = false;

  TensorImpl();   // defined in tape.cc (OpRecord is incomplete here)
  /// Also defined in tape.cc: hands recyclable `data` and `grad`
  /// storage of at least 32 MiB to the buffer recycler instead of
  /// freeing it.
  ~TensorImpl();

  int64_t size() const { return rows * cols; }

  /// Allocates gradient storage if absent, by the same path as
  /// AssignZeros. The storage may be recycled, but it always arrives
  /// zero-filled, so backward kernels accumulate into zero. Every
  /// backward kernel but MatMul's dA product uses it.
  void EnsureGrad();  // defined in tape.cc

  /// For a backward kernel that can either overwrite or add: returns
  /// true if the gradient was absent and is now allocated, in which
  /// case the caller must write every element, because recycled
  /// storage of at least 32 MiB arrives holding old values (NaN in
  /// DCHECK builds, at any size). Returns false, changing nothing, if
  /// another consumer already started the gradient; the caller then
  /// adds into it. MatMul's backward uses it for dA.
  bool EnsureGradToOverwrite();  // defined in tape.cc
};

/// Sizes `node->data` to node->size() zeros (Tensor::Zeros) by the one
/// fill path behind every tensor buffer, ZeroFill in tape.cc, which
/// also sizes tape outputs and gradients. A
/// request of at least 32 MiB first takes a held buffer of exactly that
/// length, if the recycler has one (see ~TensorImpl in tape.cc); either
/// way every element is then zeroed, so recycled storage is
/// indistinguishable from fresh storage.
void AssignZeros(TensorImpl* node);

/// Executes the pending tape subgraph below `root`: linearizes it into
/// topological order and dispatches every op to the kernel layer. No-op
/// when `root` is already materialized. Declared here so Tensor's
/// accessors can trigger it; implementation in tensor/tape.cc.
void MaterializeTensor(const std::shared_ptr<TensorImpl>& root);

/// RAII guard that switches the whole tensor engine into inference
/// mode while alive: every operator recorded inside the scope produces
/// a detached result — requires_grad is forced off, so once executed
/// the node keeps neither parents nor a tape record — regardless of
/// whether the inputs are trainable parameters. Serving paths wrap
/// their forward passes in this scope so scoring millions of pairs
/// leaves zero autograd graph nodes (verified with GraphLint in the
/// serve tests).
///
/// Scopes nest; the engine leaves inference mode when the outermost
/// scope is destroyed. The flag is process-global (not thread-local)
/// so kernel worker threads spawned by core::ParallelFor inherit it;
/// do not run training concurrently with an active inference scope —
/// the same restriction the global thread pool already imposes.
class InferenceModeScope {
 public:
  InferenceModeScope();
  ~InferenceModeScope();

  InferenceModeScope(const InferenceModeScope&) = delete;
  InferenceModeScope& operator=(const InferenceModeScope&) = delete;
};

/// True while at least one InferenceModeScope is alive.
bool InferenceModeEnabled();

/// A dense row-major 2-D float tensor with reverse-mode autograd.
///
/// Tensor is a cheap shared handle: copying a Tensor aliases the same
/// storage and autograd node. Column vectors are [n, 1], row vectors
/// [1, d], scalars [1, 1]. Gradients are accumulated by `Backward()`
/// called on a scalar result (typically a loss).
class Tensor {
 public:
  /// Constructs a null tensor (no storage). `defined()` is false.
  Tensor() = default;

  /// Wraps an existing implementation node.
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// A [rows, cols] tensor of zeros.
  static Tensor Zeros(int64_t rows, int64_t cols, bool requires_grad = false);

  /// A [rows, cols] tensor filled with `value`.
  static Tensor Full(int64_t rows, int64_t cols, float value,
                     bool requires_grad = false);

  /// A [rows, cols] tensor initialized from `values` (row-major;
  /// values.size() must equal rows*cols).
  static Tensor FromVector(std::vector<float> values, int64_t rows,
                           int64_t cols, bool requires_grad = false);

  /// A [1, 1] scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  int64_t rows() const {
    HYGNN_DCHECK(defined()) << "rows() on a null tensor";
    return impl_->rows;
  }
  int64_t cols() const {
    HYGNN_DCHECK(defined()) << "cols() on a null tensor";
    return impl_->cols;
  }
  int64_t size() const {
    HYGNN_DCHECK(defined()) << "size() on a null tensor";
    return impl_->size();
  }
  bool requires_grad() const {
    HYGNN_DCHECK(defined()) << "requires_grad() on a null tensor";
    return impl_->requires_grad;
  }

  float* data() {
    EnsureValue();
    return impl_->data.data();
  }
  const float* data() const {
    EnsureValue();
    return impl_->data.data();
  }

  /// Gradient storage; valid after Backward() reached this node.
  float* grad() { return impl_->grad.data(); }
  const float* grad() const { return impl_->grad.data(); }
  bool has_grad() const { return !impl_->grad.empty(); }

  float At(int64_t r, int64_t c) const;
  void Set(int64_t r, int64_t c, float value);

  /// Value of a [1, 1] tensor.
  float item() const;

  /// Runs reverse-mode differentiation from this node. The node must be a
  /// scalar ([1, 1]); its gradient is seeded with 1.
  void Backward();

  /// Clears this node's gradient (if allocated), in parallel over
  /// elements.
  void ZeroGrad();

  /// Detaches from the autograd graph: returns a tensor sharing no
  /// history (fresh copy of the data, requires_grad = false).
  Tensor Detach() const;

  /// Human-readable summary, e.g. "Tensor[3x4]".
  std::string ToString() const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

 private:
  /// Runs the recorded tape below this tensor if its value is pending.
  /// Reading through `impl()` directly bypasses this; inside the engine
  /// only the executor reads a node's data, after running its inputs.
  void EnsureValue() const {
    if (impl_ != nullptr && !impl_->materialized) MaterializeTensor(impl_);
  }

  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_TENSOR_H_
