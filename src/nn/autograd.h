#ifndef FAIRGEN_NN_AUTOGRAD_H_
#define FAIRGEN_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace fairgen::nn {

class Node;

/// A handle to a node of the dynamically built computation graph.
/// Graphs are built eagerly by the op functions in ops.h and freed when the
/// last handle goes out of scope after Backward().
using Var = std::shared_ptr<Node>;

/// \brief One node of the reverse-mode autodiff tape.
///
/// `backward_fn`, installed by the op that created the node, reads
/// `grad` (dL/d value) and accumulates into the parents' `grad` tensors.
class Node {
 public:
  Node(Tensor value, bool requires_grad);

  /// Forward value.
  Tensor value;
  /// Gradient of the loss w.r.t. `value`; allocated lazily by Backward().
  Tensor grad;
  /// True while `grad` is known to hold only zeros: set by ZeroGrad() and
  /// by EnsureGrad() when it allocates, cleared by Backward() and
  /// AddGrads(). Lets Backward() skip the fold through `fold_buffer`.
  /// Code that writes a leaf's `grad` by hand must clear it.
  bool grad_zero = false;
  /// Scratch for Backward's fold (S + X) on a leaf whose grad is not
  /// known zero; kept between calls so repeated Backward calls on one
  /// model reuse it instead of allocating. Its content is unspecified.
  Tensor fold_buffer;
  /// Whether gradients should flow into (and through) this node.
  bool requires_grad = false;
  /// Direct inputs of the op that produced this node (empty for leaves).
  std::vector<Var> parents;
  /// Propagates this node's grad into its parents. Null for leaves.
  std::function<void(Node&)> backward_fn;
  /// Static name of the op that produced this node ("matmul", ...);
  /// null for leaves.
  const char* op_name = nullptr;

  /// Allocates (zeroed) `grad` if not yet allocated.
  void EnsureGrad();

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }
};

/// \brief Creates a leaf variable. Gradients are accumulated into it when
/// `requires_grad` is true (i.e., it is a model parameter).
Var MakeLeaf(Tensor value, bool requires_grad = false);

/// \brief Creates a trainable parameter (leaf with requires_grad = true).
Var MakeParameter(Tensor value);

/// \brief Creates a constant (leaf with requires_grad = false).
Var MakeConstant(Tensor value);

/// \brief RAII guard that disables gradient-graph construction on this
/// thread: while at least one scope is alive, op nodes are created
/// without parents or backward closures, exactly as if no input required
/// grad. Forward values are unchanged. Wrap inference-only paths (the
/// generators' sequential decode) in one — it removes the tape
/// allocation and shared_ptr churn from code that never calls
/// Backward(). Scopes nest; thread-local, so worker threads are
/// independent.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;
};

/// True when gradient recording is enabled on this thread (no live
/// NoGradScope).
bool GradRecordingEnabled();

/// \brief Runs reverse-mode differentiation from `root`, which must hold a
/// 1x1 scalar. After the call, every reachable leaf with requires_grad has
/// dL/d leaf added to its `grad` (existing grad content is kept, enabling
/// gradient accumulation across minibatch elements).
///
/// Fold-once contract: each call computes a leaf's whole gradient X from
/// +0, then adds it to the existing content S with one addition per
/// element, grad = S + X — never ((S + a1) + a2) + ... over the call's
/// individual addends. So a sequence of Backward calls on one model is
/// bit-identical to computing each X separately (on a replica, on another
/// thread) and folding the Xs into S in the same order with AddGrads.
/// When S is known zero (`grad_zero`), the addends go straight into
/// `grad`, which gives the same bits; otherwise S waits in the leaf's
/// `fold_buffer` during the call.
void Backward(const Var& root);

/// \brief Zeroes the grad buffers of `params`.
void ZeroGrad(const std::vector<Var>& params);

/// \brief dst[i]->grad += src[i]->grad for every i, one addition per
/// element: the fold that makes per-replica Backward calls equal one
/// model's sequential calls (see Backward). Shapes must match.
void AddGrads(const std::vector<Var>& dst, const std::vector<Var>& src);

/// \brief Sum of squared entries across parameter grads (diagnostics).
double GradNormSquared(const std::vector<Var>& params);

namespace internal {
/// Creates an interior node from an op. For use by ops.h implementations.
Var MakeOpNode(Tensor value, std::vector<Var> parents,
               std::function<void(Node&)> backward_fn, const char* op_name);
}  // namespace internal

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_AUTOGRAD_H_
