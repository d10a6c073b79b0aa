#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn {

using internal::MakeOpNode;

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;

// grad += a^T · b, computed a block of output rows at a time, so no
// [a.cols(), b.cols()] temporary is materialised: for the tied output
// projection that temporary is a whole [vocab, dim] table per walk. The
// bits equal grad.Add(MatMulTransA(a, b)), because the kernel's
// accumulation order for an output element does not depend on how many
// rows one call covers.
void AddMatMulTransA(const Tensor& a, const Tensor& b, Tensor& grad) {
  constexpr size_t kRowBlock = 64;
  const size_t k = a.rows();
  const size_t m = a.cols();
  const size_t n = b.cols();
  FAIRGEN_CHECK(b.rows() == k && grad.rows() == m && grad.cols() == n);
  if (m <= kRowBlock) {
    grad.Add(MatMulTransA(a, b));
    return;
  }
  std::vector<float> a_cols(k * kRowBlock);  // a[:, i0:i1], packed
  std::vector<float> rows(kRowBlock * n);
  for (size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const size_t len = std::min(kRowBlock, m - i0);
    for (size_t p = 0; p < k; ++p) {
      std::copy(a.row(p) + i0, a.row(p) + i0 + len, a_cols.data() + p * len);
    }
    kernels::MatMulTransA(a_cols.data(), b.data(), rows.data(), len, k, n);
    kernels::Add(grad.row(i0), rows.data(), len * n);
  }
}
}  // namespace

Var Add(const Var& a, const Var& b) {
  FAIRGEN_CHECK(a->value.SameShape(b->value));
  Tensor out = a->value;
  out.Add(b->value);
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        for (int i = 0; i < 2; ++i) {
          Node* p = n.parents[i].get();
          if (!p->requires_grad) continue;
          p->grad.Add(n.grad);
        }
      },
      "add");
}

Var Sub(const Var& a, const Var& b) {
  FAIRGEN_CHECK(a->value.SameShape(b->value));
  Tensor out = a->value;
  out.AddScaled(b->value, -1.0f);
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        if (n.parents[0]->requires_grad) n.parents[0]->grad.Add(n.grad);
        if (n.parents[1]->requires_grad) {
          n.parents[1]->grad.AddScaled(n.grad, -1.0f);
        }
      },
      "sub");
}

Var Mul(const Var& a, const Var& b) {
  FAIRGEN_CHECK(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= b->value.data()[i];
  }
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        Node* pa = n.parents[0].get();
        Node* pb = n.parents[1].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float g = n.grad.data()[i];
          if (pa->requires_grad) pa->grad.data()[i] += g * pb->value.data()[i];
          if (pb->requires_grad) pb->grad.data()[i] += g * pa->value.data()[i];
        }
      },
      "mul");
}

Var Scale(const Var& a, float alpha) {
  Tensor out = a->value;
  out.Scale(alpha);
  return MakeOpNode(
      std::move(out), {a},
      [alpha](Node& n) { n.parents[0]->grad.AddScaled(n.grad, alpha); },
      "scale");
}

Var AddScalar(const Var& a, float alpha) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] += alpha;
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) { n.parents[0]->grad.Add(n.grad); }, "add_scalar");
}

Var AddRowBroadcast(const Var& a, const Var& b) {
  FAIRGEN_CHECK(b->rows() == 1 && b->cols() == a->cols());
  Tensor out = a->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* orow = out.row(r);
    const float* brow = b->value.row(0);
    for (size_t c = 0; c < out.cols(); ++c) orow[c] += brow[c];
  }
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        Node* pa = n.parents[0].get();
        Node* pb = n.parents[1].get();
        if (pa->requires_grad) pa->grad.Add(n.grad);
        if (pb->requires_grad) {
          float* brow = pb->grad.row(0);
          for (size_t r = 0; r < n.grad.rows(); ++r) {
            const float* grow = n.grad.row(r);
            for (size_t c = 0; c < n.grad.cols(); ++c) brow[c] += grow[c];
          }
        }
      },
      "add_row_broadcast");
}

Var Relu(const Var& a) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::max(0.0f, out.data()[i]);
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          if (p->value.data()[i] > 0.0f) {
            p->grad.data()[i] += n.grad.data()[i];
          }
        }
      },
      "relu");
}

Var TanhOp(const Var& a) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::tanh(out.data()[i]);
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float y = n.value.data()[i];
          p->grad.data()[i] += n.grad.data()[i] * (1.0f - y * y);
        }
      },
      "tanh");
}

Var SigmoidOp(const Var& a) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0f / (1.0f + std::exp(-out.data()[i]));
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float y = n.value.data()[i];
          p->grad.data()[i] += n.grad.data()[i] * y * (1.0f - y);
        }
      },
      "sigmoid");
}

Var Gelu(const Var& a) {
  Tensor out = a->value;
  // Cache tanh(inner) for the backward pass: the libm tanh is the most
  // expensive part of the gradient and is recomputed bit-identically
  // otherwise.
  auto tanhs = std::make_shared<std::vector<float>>(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    float x = out.data()[i];
    float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
    float t = std::tanh(inner);
    (*tanhs)[i] = t;
    out.data()[i] = 0.5f * x * (1.0f + t);
  }
  return MakeOpNode(
      std::move(out), {a},
      [tanhs = std::move(tanhs)](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float x = p->value.data()[i];
          float t = (*tanhs)[i];
          float dinner = kSqrt2OverPi * (1.0f + 3.0f * 0.044715f * x * x);
          float dy = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
          p->grad.data()[i] += n.grad.data()[i] * dy;
        }
      },
      "gelu");
}

Var LogOp(const Var& a, float eps) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::log(std::max(out.data()[i], eps));
  }
  return MakeOpNode(
      std::move(out), {a},
      [eps](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float x = std::max(p->value.data()[i], eps);
          p->grad.data()[i] += n.grad.data()[i] / x;
        }
      },
      "log");
}

Var ExpOp(const Var& a, float max_input) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::exp(std::min(out.data()[i], max_input));
  }
  return MakeOpNode(
      std::move(out), {a},
      [max_input](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          // d exp(min(x, M))/dx = exp(x) for x < M, 0 beyond the clamp.
          if (p->value.data()[i] < max_input) {
            p->grad.data()[i] += n.grad.data()[i] * n.value.data()[i];
          }
        }
      },
      "exp");
}

Var AbsOp(const Var& a) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::abs(out.data()[i]);
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          float x = p->value.data()[i];
          float sign = x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
          p->grad.data()[i] += n.grad.data()[i] * sign;
        }
      },
      "abs");
}

Var Square(const Var& a) {
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= out.data()[i];
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < n.grad.size(); ++i) {
          p->grad.data()[i] += 2.0f * n.grad.data()[i] * p->value.data()[i];
        }
      },
      "square");
}

Var MatMulOp(const Var& a, const Var& b) {
  Tensor out = MatMul(a->value, b->value);
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        Node* pa = n.parents[0].get();
        Node* pb = n.parents[1].get();
        if (pa->requires_grad) {
          // dA = dC · B^T
          pa->grad.Add(MatMulTransB(n.grad, pb->value));
        }
        if (pb->requires_grad) {
          // dB = A^T · dC
          pb->grad.Add(MatMulTransA(pa->value, n.grad));
        }
      },
      "matmul");
}

Var LinearOp(const Var& x, const Var& w, const Var& bias) {
  Tensor out = MatMul(x->value, w->value);
  if (bias != nullptr) {
    FAIRGEN_CHECK(bias->rows() == 1 && bias->cols() == out.cols());
    const float* brow = bias->value.row(0);
    for (size_t r = 0; r < out.rows(); ++r) {
      float* orow = out.row(r);
      for (size_t c = 0; c < out.cols(); ++c) orow[c] += brow[c];
    }
  }
  std::vector<Var> parents =
      bias != nullptr ? std::vector<Var>{x, w, bias} : std::vector<Var>{x, w};
  return MakeOpNode(
      std::move(out), std::move(parents),
      [](Node& n) {
        Node* px = n.parents[0].get();
        Node* pw = n.parents[1].get();
        if (px->requires_grad) {
          // dX = dC · W^T
          px->grad.Add(MatMulTransB(n.grad, pw->value));
        }
        if (pw->requires_grad) {
          // dW = X^T · dC
          pw->grad.Add(MatMulTransA(px->value, n.grad));
        }
        if (n.parents.size() > 2 && n.parents[2]->requires_grad) {
          // db = column sums of dC.
          float* brow = n.parents[2]->grad.row(0);
          for (size_t r = 0; r < n.grad.rows(); ++r) {
            const float* grow = n.grad.row(r);
            for (size_t c = 0; c < n.grad.cols(); ++c) brow[c] += grow[c];
          }
        }
      },
      "linear");
}

Var TransposeOp(const Var& a) {
  return MakeOpNode(
      Transpose(a->value), {a},
      [](Node& n) { n.parents[0]->grad.Add(Transpose(n.grad)); },
      "transpose");
}

Var MatMulTransBOp(const Var& a, const Var& b) {
  Tensor out = MatMulTransB(a->value, b->value);
  return MakeOpNode(
      std::move(out), {a, b},
      [](Node& n) {
        Node* pa = n.parents[0].get();
        Node* pb = n.parents[1].get();
        if (pa->requires_grad) {
          // dA = dC · B
          pa->grad.Add(MatMul(n.grad, pb->value));
        }
        if (pb->requires_grad) {
          // dB = dC^T · A
          AddMatMulTransA(n.grad, pa->value, pb->grad);
        }
      },
      "matmul_trans_b");
}

Var SliceCols(const Var& a, size_t start, size_t len) {
  FAIRGEN_CHECK(start + len <= a->cols());
  Tensor out(a->rows(), len);
  for (size_t r = 0; r < a->rows(); ++r) {
    const float* src = a->value.row(r) + start;
    std::copy(src, src + len, out.row(r));
  }
  return MakeOpNode(
      std::move(out), {a},
      [start, len](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t r = 0; r < n.grad.rows(); ++r) {
          float* dst = p->grad.row(r) + start;
          const float* src = n.grad.row(r);
          for (size_t c = 0; c < len; ++c) dst[c] += src[c];
        }
      },
      "slice_cols");
}

Var ConcatCols(const std::vector<Var>& parts) {
  FAIRGEN_CHECK(!parts.empty());
  size_t rows = parts[0]->rows();
  size_t total_cols = 0;
  for (const Var& p : parts) {
    FAIRGEN_CHECK(p->rows() == rows);
    total_cols += p->cols();
  }
  Tensor out(rows, total_cols);
  size_t offset = 0;
  for (const Var& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      std::copy(p->value.row(r), p->value.row(r) + p->cols(),
                out.row(r) + offset);
    }
    offset += p->cols();
  }
  std::vector<size_t> widths;
  widths.reserve(parts.size());
  for (const Var& p : parts) widths.push_back(p->cols());
  return MakeOpNode(
      std::move(out), parts,
      [widths](Node& n) {
        size_t offset = 0;
        for (size_t k = 0; k < n.parents.size(); ++k) {
          Node* p = n.parents[k].get();
          if (p->requires_grad) {
            for (size_t r = 0; r < n.grad.rows(); ++r) {
              const float* src = n.grad.row(r) + offset;
              float* dst = p->grad.row(r);
              for (size_t c = 0; c < widths[k]; ++c) dst[c] += src[c];
            }
          }
          offset += widths[k];
        }
      },
      "concat_cols");
}

Var GatherRows(const Var& table, const std::vector<uint32_t>& indices) {
  Tensor out(indices.size(), table->cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    FAIRGEN_CHECK(indices[i] < table->rows());
    std::copy(table->value.row(indices[i]),
              table->value.row(indices[i]) + table->cols(), out.row(i));
  }
  return MakeOpNode(
      std::move(out), {table},
      [indices](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < indices.size(); ++i) {
          float* dst = p->grad.row(indices[i]);
          const float* src = n.grad.row(i);
          for (size_t c = 0; c < n.grad.cols(); ++c) dst[c] += src[c];
        }
      },
      "gather_rows");
}

Var Row(const Var& a, size_t r) {
  FAIRGEN_CHECK(r < a->rows());
  Tensor out(1, a->cols());
  std::copy(a->value.row(r), a->value.row(r) + a->cols(), out.row(0));
  return MakeOpNode(
      std::move(out), {a},
      [r](Node& n) {
        Node* p = n.parents[0].get();
        float* dst = p->grad.row(r);
        const float* src = n.grad.row(0);
        for (size_t c = 0; c < n.grad.cols(); ++c) dst[c] += src[c];
      },
      "row");
}

Var SumAll(const Var& a) {
  return MakeOpNode(
      Tensor::Scalar(a->value.Sum()), {a},
      [](Node& n) {
        float g = n.grad.ScalarValue();
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < p->grad.size(); ++i) p->grad.data()[i] += g;
      },
      "sum_all");
}

Var MeanAll(const Var& a) {
  float inv = 1.0f / static_cast<float>(a->value.size());
  return MakeOpNode(
      Tensor::Scalar(a->value.Sum() * inv), {a},
      [inv](Node& n) {
        float g = n.grad.ScalarValue() * inv;
        Node* p = n.parents[0].get();
        for (size_t i = 0; i < p->grad.size(); ++i) p->grad.data()[i] += g;
      },
      "mean_all");
}

namespace {
// Computes row-wise softmax of `x` into a new tensor.
Tensor SoftmaxForward(const Tensor& x) {
  Tensor out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* src = x.row(r);
    float* dst = out.row(r);
    float max_val = src[0];
    for (size_t c = 1; c < x.cols(); ++c) max_val = std::max(max_val, src[c]);
    double total = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      dst[c] = std::exp(src[c] - max_val);
      total += dst[c];
    }
    float inv = static_cast<float>(1.0 / total);
    for (size_t c = 0; c < x.cols(); ++c) dst[c] *= inv;
  }
  return out;
}
}  // namespace

Var SoftmaxRows(const Var& a) {
  return MakeOpNode(
      SoftmaxForward(a->value), {a},
      [](Node& n) {
        // dx = y ⊙ (dy − (dy · y) 1) per row.
        Node* p = n.parents[0].get();
        for (size_t r = 0; r < n.value.rows(); ++r) {
          const float* y = n.value.row(r);
          const float* dy = n.grad.row(r);
          double dot = 0.0;
          for (size_t c = 0; c < n.value.cols(); ++c) dot += dy[c] * y[c];
          float* dx = p->grad.row(r);
          for (size_t c = 0; c < n.value.cols(); ++c) {
            dx[c] += y[c] * (dy[c] - static_cast<float>(dot));
          }
        }
      },
      "softmax_rows");
}

Var LogSoftmaxRows(const Var& a) {
  Tensor out(a->rows(), a->cols());
  for (size_t r = 0; r < a->rows(); ++r) {
    const float* src = a->value.row(r);
    float* dst = out.row(r);
    float max_val = src[0];
    for (size_t c = 1; c < a->cols(); ++c) max_val = std::max(max_val, src[c]);
    double total = 0.0;
    for (size_t c = 0; c < a->cols(); ++c) {
      total += std::exp(src[c] - max_val);
    }
    float lse = max_val + static_cast<float>(std::log(total));
    for (size_t c = 0; c < a->cols(); ++c) dst[c] = src[c] - lse;
  }
  return MakeOpNode(
      std::move(out), {a},
      [](Node& n) {
        // dx = dy − softmax(x) * sum(dy) per row; softmax = exp(logsoftmax).
        Node* p = n.parents[0].get();
        for (size_t r = 0; r < n.value.rows(); ++r) {
          const float* logp = n.value.row(r);
          const float* dy = n.grad.row(r);
          double total = 0.0;
          for (size_t c = 0; c < n.value.cols(); ++c) total += dy[c];
          float* dx = p->grad.row(r);
          for (size_t c = 0; c < n.value.cols(); ++c) {
            dx[c] += dy[c] - std::exp(logp[c]) * static_cast<float>(total);
          }
        }
      },
      "log_softmax_rows");
}

Var PickPerRow(const Var& a, const std::vector<uint32_t>& targets) {
  FAIRGEN_CHECK(targets.size() == a->rows());
  Tensor out(a->rows(), 1);
  for (size_t r = 0; r < a->rows(); ++r) {
    FAIRGEN_CHECK(targets[r] < a->cols());
    out.at(r, 0) = a->value.at(r, targets[r]);
  }
  return MakeOpNode(
      std::move(out), {a},
      [targets](Node& n) {
        Node* p = n.parents[0].get();
        for (size_t r = 0; r < targets.size(); ++r) {
          p->grad.at(r, targets[r]) += n.grad.at(r, 0);
        }
      },
      "pick_per_row");
}

Var LayerNormRows(const Var& x, const Var& gain, const Var& bias, float eps) {
  const size_t rows = x->rows();
  const size_t cols = x->cols();
  FAIRGEN_CHECK(gain->rows() == 1 && gain->cols() == cols);
  FAIRGEN_CHECK(bias->rows() == 1 && bias->cols() == cols);
  Tensor out(rows, cols);
  // Cache per-row mean and inverse stddev for the backward pass.
  auto stats = std::make_shared<std::vector<float>>(2 * rows);
  for (size_t r = 0; r < rows; ++r) {
    const float* src = x->value.row(r);
    double mean = 0.0;
    for (size_t c = 0; c < cols; ++c) mean += src[c];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      double d = src[c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
    (*stats)[2 * r] = static_cast<float>(mean);
    (*stats)[2 * r + 1] = inv_std;
    float* dst = out.row(r);
    const float* g = gain->value.row(0);
    const float* b = bias->value.row(0);
    for (size_t c = 0; c < cols; ++c) {
      float xhat = (src[c] - static_cast<float>(mean)) * inv_std;
      dst[c] = g[c] * xhat + b[c];
    }
  }
  return MakeOpNode(
      std::move(out), {x, gain, bias},
      [stats](Node& n) {
        Node* px = n.parents[0].get();
        Node* pg = n.parents[1].get();
        Node* pb = n.parents[2].get();
        const size_t rows = n.value.rows();
        const size_t cols = n.value.cols();
        const float* g = pg->value.row(0);
        for (size_t r = 0; r < rows; ++r) {
          float mean = (*stats)[2 * r];
          float inv_std = (*stats)[2 * r + 1];
          const float* xr = px->value.row(r);
          const float* dy = n.grad.row(r);
          // xhat_c and the two reduction terms of the layer-norm backward.
          double sum_dyg = 0.0;
          double sum_dyg_xhat = 0.0;
          for (size_t c = 0; c < cols; ++c) {
            float xhat = (xr[c] - mean) * inv_std;
            float dyg = dy[c] * g[c];
            sum_dyg += dyg;
            sum_dyg_xhat += dyg * xhat;
          }
          float invn = 1.0f / static_cast<float>(cols);
          if (px->requires_grad) {
            float* dx = px->grad.row(r);
            for (size_t c = 0; c < cols; ++c) {
              float xhat = (xr[c] - mean) * inv_std;
              float dyg = dy[c] * g[c];
              dx[c] += inv_std *
                       (dyg - invn * static_cast<float>(sum_dyg) -
                        xhat * invn * static_cast<float>(sum_dyg_xhat));
            }
          }
          if (pg->requires_grad || pb->requires_grad) {
            float* dg = pg->grad.row(0);
            float* db = pb->grad.row(0);
            for (size_t c = 0; c < cols; ++c) {
              float xhat = (xr[c] - mean) * inv_std;
              if (pg->requires_grad) dg[c] += dy[c] * xhat;
              if (pb->requires_grad) db[c] += dy[c];
            }
          }
        }
      },
      "layer_norm");
}

Var WeightedColumnSum(const Var& a, const std::vector<float>& weights) {
  FAIRGEN_CHECK(a->cols() == 1);
  FAIRGEN_CHECK(weights.size() == a->rows());
  double total = 0.0;
  for (size_t r = 0; r < a->rows(); ++r) {
    total += static_cast<double>(weights[r]) * a->value.at(r, 0);
  }
  return MakeOpNode(
      Tensor::Scalar(static_cast<float>(total)), {a},
      [weights](Node& n) {
        float g = n.grad.ScalarValue();
        Node* p = n.parents[0].get();
        for (size_t r = 0; r < weights.size(); ++r) {
          p->grad.at(r, 0) += g * weights[r];
        }
      },
      "weighted_column_sum");
}

Tensor SparseMatrix::Apply(const Tensor& x) const {
  FAIRGEN_CHECK(x.rows() == cols);
  Tensor y(rows, x.cols());
  for (size_t r = 0; r < rows; ++r) {
    float* yrow = y.row(r);
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      float w = values[k];
      const float* xrow = x.row(indices[k]);
      for (size_t c = 0; c < x.cols(); ++c) yrow[c] += w * xrow[c];
    }
  }
  return y;
}

Var SpMM(std::shared_ptr<const SparseMatrix> s, const Var& x) {
  FAIRGEN_CHECK(s != nullptr);
  FAIRGEN_CHECK(s->rows == s->cols) << "SpMM requires a symmetric operator";
  Tensor out = s->Apply(x->value);
  return MakeOpNode(
      std::move(out), {x},
      [s](Node& n) {
        // S symmetric: dX = S^T dY = S dY.
        n.parents[0]->grad.Add(s->Apply(n.grad));
      },
      "spmm");
}

}  // namespace fairgen::nn
