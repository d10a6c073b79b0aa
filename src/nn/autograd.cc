#include "nn/autograd.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace fairgen::nn {

Node::Node(Tensor value_in, bool requires_grad_in)
    : value(std::move(value_in)), requires_grad(requires_grad_in) {}

void Node::EnsureGrad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    grad = Tensor(value.rows(), value.cols());
    grad_zero = true;
  }
}

Var MakeLeaf(Tensor value, bool requires_grad) {
  return std::make_shared<Node>(std::move(value), requires_grad);
}

Var MakeParameter(Tensor value) { return MakeLeaf(std::move(value), true); }

Var MakeConstant(Tensor value) { return MakeLeaf(std::move(value), false); }

namespace {
thread_local int no_grad_depth = 0;
}  // namespace

NoGradScope::NoGradScope() { ++no_grad_depth; }

NoGradScope::~NoGradScope() { --no_grad_depth; }

bool GradRecordingEnabled() { return no_grad_depth == 0; }

namespace internal {

Var MakeOpNode(Tensor value, std::vector<Var> parents,
               std::function<void(Node&)> backward_fn, const char* op_name) {
  bool needs_grad = false;
  if (GradRecordingEnabled()) {
    for (const Var& p : parents) {
      if (p->requires_grad) {
        needs_grad = true;
        break;
      }
    }
  }
  Var node = std::make_shared<Node>(std::move(value), needs_grad);
  if (needs_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  node->op_name = op_name;
  return node;
}

}  // namespace internal

namespace {

// Iterative post-order DFS: children (parents in autodiff terms) before the
// node itself; reversing gives a valid order for backward propagation.
void TopoSort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      Node* parent = node->parents[idx].get();
      ++idx;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  FAIRGEN_CHECK(root != nullptr);
  FAIRGEN_CHECK(root->rows() == 1 && root->cols() == 1)
      << "Backward requires a scalar root, got [" << root->rows() << ","
      << root->cols() << "]";
  if (!root->requires_grad) return;

  std::vector<Node*> order;
  TopoSort(root, order);

  // Interior grads restart from zero so stale values from a previous
  // pass do not leak in. A leaf whose grad may hold a sum S from earlier
  // calls restarts from zero too, with S parked in its fold buffer, so
  // this pass computes the leaf's whole gradient X before it is folded
  // in as S + X.
  std::vector<Node*> folded;
  for (Node* node : order) {
    if (node->backward_fn) {
      node->grad = Tensor(node->value.rows(), node->value.cols());
      continue;
    }
    node->EnsureGrad();
    if (!node->grad_zero) {
      std::swap(node->grad, node->fold_buffer);
      if (node->grad.SameShape(node->fold_buffer)) {
        node->grad.Zero();
      } else {
        node->grad = Tensor(node->value.rows(), node->value.cols());
      }
      folded.push_back(node);
    }
    node->grad_zero = false;
  }
  root->grad.Fill(1.0f);

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn) {
      node->backward_fn(*node);
    }
  }

  for (Node* leaf : folded) {
    leaf->fold_buffer.Add(leaf->grad);
    std::swap(leaf->grad, leaf->fold_buffer);
  }
}

void ZeroGrad(const std::vector<Var>& params) {
  for (const Var& p : params) {
    p->EnsureGrad();
    p->grad.Zero();
    p->grad_zero = true;
  }
}

void AddGrads(const std::vector<Var>& dst, const std::vector<Var>& src) {
  FAIRGEN_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i]->EnsureGrad();
    dst[i]->grad.Add(src[i]->grad);
    dst[i]->grad_zero = false;
  }
}

double GradNormSquared(const std::vector<Var>& params) {
  double total = 0.0;
  for (const Var& p : params) {
    if (p->grad.empty()) continue;
    double n = p->grad.Norm();
    total += n * n;
  }
  return total;
}

}  // namespace fairgen::nn
