#include "nn/tensor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn {

Tensor::Tensor(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor::Tensor(size_t rows, size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Tensor::Tensor(size_t rows, size_t cols, const std::vector<float>& data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  FAIRGEN_CHECK(data_.size() == rows_ * cols_);
}

Tensor Tensor::Randn(size_t rows, size_t cols, float stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (float& x : t.data_) {
    x = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(size_t rows, size_t cols, float bound, Rng& rng) {
  Tensor t(rows, cols);
  for (float& x : t.data_) {
    x = static_cast<float>(rng.UniformDouble(-bound, bound));
  }
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t(1, 1);
  t.data_[0] = value;
  return t;
}

Tensor Tensor::ViewOf(Tensor& other) {
  Tensor t;
  t.rows_ = other.rows_;
  t.cols_ = other.cols_;
  t.view_ = other.data();
  return t;
}

Tensor::Tensor(const Tensor& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(other.data(), other.data() + other.size()) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.data(), other.data() + other.size());
    view_ = nullptr;
  }
  return *this;
}

void Tensor::Fill(float value) { std::fill(data(), data() + size(), value); }

void Tensor::Add(const Tensor& other) {
  FAIRGEN_CHECK(SameShape(other));
  kernels::Add(data(), other.data(), size());
}

void Tensor::AddScaled(const Tensor& other, float alpha) {
  FAIRGEN_CHECK(SameShape(other));
  kernels::AddScaled(data(), other.data(), alpha, size());
}

void Tensor::Scale(float alpha) {
  kernels::Scale(data(), alpha, size());
}

float Tensor::Sum() const {
  double s = 0.0;
  for (size_t i = 0; i < size(); ++i) s += data()[i];
  return static_cast<float>(s);
}

float Tensor::ScalarValue() const {
  FAIRGEN_CHECK(rows_ == 1 && cols_ == 1);
  return data()[0];
}

float Tensor::Norm() const {
  double s = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    const double x = data()[i];
    s += x * x;
  }
  return static_cast<float>(std::sqrt(s));
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FAIRGEN_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: [" << a.rows() << "," << a.cols() << "] x ["
      << b.rows() << "," << b.cols() << "]";
  Tensor c(a.rows(), b.cols());
  kernels::MatMul(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  FAIRGEN_CHECK(a.rows() == b.rows());
  Tensor c(a.cols(), b.cols());
  kernels::MatMulTransA(a.data(), b.data(), c.data(), a.cols(), a.rows(),
                        b.cols());
  return c;
}

// Delegates to the kernel's transpose-then-matmul path: saxpy over the
// shared dimension vectorizes, and the bits match MatMul on B^T exactly
// (the old per-element double-precision dot product did not, and kept
// this path scalar).
Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  FAIRGEN_CHECK(a.cols() == b.cols());
  Tensor c(a.rows(), b.rows());
  kernels::MatMulTransB(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                        b.rows());
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      t.at(j, i) = a.at(i, j);
    }
  }
  return t;
}

}  // namespace fairgen::nn
