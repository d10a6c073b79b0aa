// Backward's fold-once contract (nn/autograd.h): each call computes a
// leaf's whole gradient X from +0 and adds it to the existing grad S with
// one addition per element, so grad = S + X exactly.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/ops.h"
#include "rng/rng.h"

namespace fairgen::nn {
namespace {

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A loss with many addends per leaf element: the bias broadcasts over 9
// rows, and the gathered table rows repeat index 2.
struct Model {
  Var table = MakeParameter(Tensor::Randn(6, 5, 1.0f, *Rng0()));
  Var bias = MakeParameter(Tensor::Randn(1, 5, 1.0f, *Rng0()));

  static Rng* Rng0() {
    static Rng rng(11);
    return &rng;
  }

  Var Loss(const std::vector<uint32_t>& ids, float scale) const {
    Var x = AddRowBroadcast(GatherRows(table, ids), bias);
    return SumAll(Square(Scale(TanhOp(x), scale)));
  }
};

const std::vector<uint32_t> kIdsA = {2, 0, 2, 5, 2, 1, 3, 2, 4};
const std::vector<uint32_t> kIdsB = {1, 2, 4, 4, 0, 2, 5, 3, 2};

TEST(BackwardFoldTest, SecondBackwardIsStashPlusFreshGradient) {
  Model m;
  const std::vector<Var> params = {m.table, m.bias};

  // X alone: one Backward after ZeroGrad.
  ZeroGrad(params);
  Backward(m.Loss(kIdsB, 0.7f));
  const Tensor x_table = m.table->grad;
  const Tensor x_bias = m.bias->grad;

  // S, then a second Backward on top of it.
  ZeroGrad(params);
  Backward(m.Loss(kIdsA, 1.3f));
  Tensor want_table = m.table->grad;
  Tensor want_bias = m.bias->grad;
  want_table.Add(x_table);
  want_bias.Add(x_bias);
  Backward(m.Loss(kIdsB, 0.7f));

  EXPECT_TRUE(SameBits(m.table->grad, want_table));
  EXPECT_TRUE(SameBits(m.bias->grad, want_bias));
  EXPECT_FALSE(m.table->grad_zero);
}

// The third call reuses the fold buffer the second one left behind.
TEST(BackwardFoldTest, RepeatedBackwardFoldsEachCallOnce) {
  Model m;
  const std::vector<Var> params = {m.table, m.bias};
  ZeroGrad(params);
  Backward(m.Loss(kIdsA, 1.3f));
  const Tensor xa_table = m.table->grad;
  const Tensor xa_bias = m.bias->grad;
  ZeroGrad(params);
  Backward(m.Loss(kIdsB, 0.7f));
  Tensor want_table = xa_table;
  Tensor want_bias = xa_bias;
  want_table.Add(m.table->grad);
  want_bias.Add(m.bias->grad);
  want_table.Add(xa_table);
  want_bias.Add(xa_bias);

  ZeroGrad(params);
  Backward(m.Loss(kIdsA, 1.3f));
  Backward(m.Loss(kIdsB, 0.7f));
  Backward(m.Loss(kIdsA, 1.3f));
  EXPECT_TRUE(SameBits(m.table->grad, want_table));
  EXPECT_TRUE(SameBits(m.bias->grad, want_bias));
}

TEST(BackwardFoldTest, ReplicaFoldEqualsSequentialBackward) {
  Model m;
  Model replica;
  replica.table->value = Tensor::ViewOf(m.table->value);
  replica.bias->value = Tensor::ViewOf(m.bias->value);
  const std::vector<Var> params = {m.table, m.bias};
  const std::vector<Var> replica_params = {replica.table, replica.bias};

  ZeroGrad(params);
  Backward(m.Loss(kIdsA, 1.3f));
  Backward(m.Loss(kIdsB, 0.7f));
  const Tensor sequential = m.table->grad;

  ZeroGrad(params);
  for (const auto* ids : {&kIdsA, &kIdsB}) {
    ZeroGrad(replica_params);
    Backward(replica.Loss(*ids, ids == &kIdsA ? 1.3f : 0.7f));
    AddGrads(params, replica_params);
  }
  EXPECT_TRUE(SameBits(m.table->grad, sequential));
}

TEST(BackwardFoldTest, FirstBackwardAfterZeroGradAccumulatesDirectly) {
  Model m;
  ZeroGrad({m.table, m.bias});
  Var x = AddRowBroadcast(GatherRows(m.table, kIdsA), m.bias);
  // Upstream gradient with distinct values per row, so the order of the
  // nine bias addends and the four index-2 addends is visible.
  Tensor w(x->rows(), x->cols());
  for (size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = 0.1f + 0.37f * static_cast<float>(i % 7) -
                  0.05f * static_cast<float>(i);
  }
  Backward(SumAll(Mul(x, MakeConstant(w))));

  // Direct accumulation in row order from +0.
  std::vector<float> bias(5, 0.0f);
  std::vector<float> row2(5, 0.0f);
  for (size_t r = 0; r < kIdsA.size(); ++r) {
    for (size_t c = 0; c < 5; ++c) {
      bias[c] += w.at(r, c);
      if (kIdsA[r] == 2) row2[c] += w.at(r, c);
    }
  }
  EXPECT_EQ(std::memcmp(m.bias->grad.data(), bias.data(), 5 * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(m.table->grad.row(2), row2.data(), 5 * sizeof(float)),
            0);
}

TEST(BackwardFoldTest, ViewSharesStorageAndCopiesOwn) {
  Tensor base(2, 3, 1.5f);
  Tensor view = Tensor::ViewOf(base);
  view.at(1, 2) = 4.0f;
  EXPECT_EQ(base.at(1, 2), 4.0f);
  Tensor copy = view;
  copy.at(0, 0) = -1.0f;
  EXPECT_EQ(base.at(0, 0), 1.5f);
  EXPECT_EQ(view.size(), 6u);
}

}  // namespace
}  // namespace fairgen::nn
