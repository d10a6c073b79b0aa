#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"
#include "nn/loss.h"
#include "rng/sampling.h"

namespace fairgen::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      qkv_(dim, 3 * dim, rng),
      out_(dim, dim, rng) {
  FAIRGEN_CHECK(dim % num_heads == 0)
      << "dim " << dim << " not divisible by heads " << num_heads;
}

Var MultiHeadSelfAttention::Forward(const Var& x) const {
  const size_t t_len = x->rows();
  Var qkv = qkv_.Forward(x);  // [T, 3D]

  // Causal additive mask: -inf above the diagonal.
  Tensor mask(t_len, t_len);
  for (size_t i = 0; i < t_len; ++i) {
    for (size_t j = i + 1; j < t_len; ++j) {
      mask.at(i, j) = -1e9f;
    }
  }
  Var mask_var = MakeConstant(std::move(mask));

  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Var> head_outputs;
  head_outputs.reserve(num_heads_);
  for (size_t h = 0; h < num_heads_; ++h) {
    Var q = SliceCols(qkv, h * head_dim_, head_dim_);
    Var k = SliceCols(qkv, dim_ + h * head_dim_, head_dim_);
    Var v = SliceCols(qkv, 2 * dim_ + h * head_dim_, head_dim_);
    Var scores = Scale(MatMulTransBOp(q, k), scale);  // [T, T]
    scores = Add(scores, mask_var);
    Var probs = SoftmaxRows(scores);
    head_outputs.push_back(MatMulOp(probs, v));  // [T, dh]
  }
  return out_.Forward(ConcatCols(head_outputs));
}

std::vector<Var> MultiHeadSelfAttention::Parameters() const {
  std::vector<Var> params = qkv_.Parameters();
  for (const Var& p : out_.Parameters()) params.push_back(p);
  return params;
}

TransformerBlock::TransformerBlock(size_t dim, size_t num_heads,
                                   size_t ffn_dim, Rng& rng)
    : ln1_(dim),
      attn_(dim, num_heads, rng),
      ln2_(dim),
      ffn1_(dim, ffn_dim, rng),
      ffn2_(ffn_dim, dim, rng) {}

Var TransformerBlock::Forward(const Var& x) const {
  Var h = Add(x, attn_.Forward(ln1_.Forward(x)));
  Var ffn = ffn2_.Forward(Gelu(ffn1_.Forward(ln2_.Forward(h))));
  return Add(h, ffn);
}

std::vector<Var> TransformerBlock::Parameters() const {
  std::vector<Var> params;
  for (const auto* m :
       std::initializer_list<const Module*>{&ln1_, &attn_, &ln2_}) {
    for (const Var& p : m->Parameters()) params.push_back(p);
  }
  for (const Var& p : ffn1_.Parameters()) params.push_back(p);
  for (const Var& p : ffn2_.Parameters()) params.push_back(p);
  return params;
}

TransformerLM::TransformerLM(const TransformerConfig& config, Rng& rng)
    : config_(config),
      tok_(config.vocab_size, config.dim, rng),
      pos_(config.max_len, config.dim, rng),
      final_ln_(config.dim) {
  FAIRGEN_CHECK(config.vocab_size > 0);
  blocks_.reserve(config.num_layers);
  for (size_t l = 0; l < config.num_layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        config.dim, config.num_heads, config.ffn_dim, rng));
  }
}

namespace {
// Hidden states [T, D] after the final layer norm.
Var HiddenStates(const Embedding& tok, const Embedding& pos,
                 const std::vector<std::unique_ptr<TransformerBlock>>& blocks,
                 const LayerNorm& final_ln,
                 const std::vector<uint32_t>& walk) {
  std::vector<uint32_t> positions(walk.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    positions[i] = static_cast<uint32_t>(i);
  }
  Var x = Add(tok.Forward(walk), pos.Forward(positions));
  for (const auto& block : blocks) {
    x = block->Forward(x);
  }
  return final_ln.Forward(x);
}

// Temperature-scaled categorical draw from a [vocab] logits row. Shared
// by SampleNext and the KV-cache SampleWalk so the two paths consume the
// rng stream identically. exp(row - max) keeps the max weight at 1, but
// NaN logits can still poison the total; SampleDiscrete then degrades to
// a uniform in-range pick, so the result is always a valid token.
uint32_t SampleFromLogitsRow(const float* row, size_t vocab, Rng& rng,
                             float temperature) {
  float max_val = row[0];
  for (size_t i = 1; i < vocab; ++i) {
    max_val = std::max(max_val, row[i]);
  }
  std::vector<double> weights(vocab);
  for (size_t i = 0; i < vocab; ++i) {
    weights[i] = std::exp((row[i] - max_val) / temperature);
  }
  uint32_t pick = SampleDiscrete(weights, rng);
  FAIRGEN_CHECK(pick < vocab);
  return pick;
}
}  // namespace

Var TransformerLM::Logits(const std::vector<uint32_t>& walk) const {
  FAIRGEN_CHECK(!walk.empty());
  FAIRGEN_CHECK(walk.size() <= config_.max_len)
      << "walk length " << walk.size() << " exceeds max_len "
      << config_.max_len;
  Var x = HiddenStates(tok_, pos_, blocks_, final_ln_, walk);
  // Tied output projection: logits = x · E^T.
  return MatMulTransBOp(x, tok_.table());
}

Var TransformerLM::NextLogits(const std::vector<uint32_t>& prefix) const {
  FAIRGEN_CHECK(!prefix.empty());
  FAIRGEN_CHECK(prefix.size() <= config_.max_len);
  Var x = HiddenStates(tok_, pos_, blocks_, final_ln_, prefix);
  return MatMulTransBOp(Row(x, x->rows() - 1), tok_.table());
}

Var TransformerLM::WalkNll(const std::vector<uint32_t>& walk) const {
  FAIRGEN_CHECK(walk.size() >= 2);
  // Row t predicts walk[t+1]; drop the last row.
  std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
  std::vector<uint32_t> targets(walk.begin() + 1, walk.end());
  Var logits = Logits(prefix);
  return SequenceNll(logits, targets);
}

uint32_t TransformerLM::SampleNext(const std::vector<uint32_t>& prefix,
                                   Rng& rng, float temperature) const {
  FAIRGEN_CHECK(!prefix.empty());
  FAIRGEN_CHECK(temperature > 0.0f);
  // Pure inference: skip tape construction entirely (forward values are
  // identical with or without the tape).
  NoGradScope no_grad;
  Var logits = NextLogits(prefix);
  return SampleFromLogitsRow(logits->value.row(0), config_.vocab_size, rng,
                             temperature);
}

std::vector<uint32_t> TransformerLM::SampleWalk(uint32_t start,
                                                uint32_t length, Rng& rng,
                                                float temperature) const {
  FAIRGEN_CHECK(start < config_.vocab_size);
  std::vector<uint32_t> walk{start};
  if (walk.size() >= length) return walk;
  FAIRGEN_CHECK(temperature > 0.0f);
  // Incremental decode: one KV-cached step per token instead of a full
  // forward pass over the growing prefix. The decoder's logits are
  // bitwise identical to NextLogits (see TransformerDecoder), and
  // SampleFromLogitsRow consumes the rng stream exactly like SampleNext,
  // so this produces the same walks as the SampleNext loop it replaced.
  TransformerDecoder decoder(*this);
  uint32_t cur = start;
  while (walk.size() < length) {
    const std::vector<float>& logits = decoder.Step(cur);
    cur = SampleFromLogitsRow(logits.data(), config_.vocab_size, rng,
                              temperature);
    walk.push_back(cur);
  }
  return walk;
}

std::vector<Var> TransformerLM::Parameters() const {
  std::vector<Var> params = tok_.Parameters();
  for (const Var& p : pos_.Parameters()) params.push_back(p);
  for (const auto& block : blocks_) {
    for (const Var& p : block->Parameters()) params.push_back(p);
  }
  for (const Var& p : final_ln_.Parameters()) params.push_back(p);
  return params;
}

std::unique_ptr<TransformerLM> TransformerLM::Replica() {
  Rng init_rng(0);  // the replica's own init is replaced by views below
  auto replica = std::make_unique<TransformerLM>(config_, init_rng);
  const std::vector<Var> src = Parameters();
  const std::vector<Var> dst = replica->Parameters();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i]->value = Tensor::ViewOf(src[i]->value);
  }
  return replica;
}

// ---------------------------------------------------------------------------
// TransformerDecoder
// ---------------------------------------------------------------------------
//
// The single-row helpers below replay the exact floating-point operation
// sequences of the ops.cc forwards they shadow (LayerNormRows,
// SoftmaxForward, Gelu, AddRowBroadcast). Any change to those loops must
// be mirrored here; the KvDecoderMatchesNextLogitsBitwise test pins the
// equivalence.

namespace {
// Keep in sync with ops.cc (Gelu).
constexpr float kSqrt2OverPiDecode = 0.7978845608028654f;

// LayerNormRows forward on one row, eps = LayerNorm's default 1e-5f.
void NormRow(const float* src, const float* g, const float* b, size_t cols,
             float* dst) {
  double mean = 0.0;
  for (size_t c = 0; c < cols; ++c) mean += src[c];
  mean /= static_cast<double>(cols);
  double var = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    double d = src[c] - mean;
    var += d * d;
  }
  var /= static_cast<double>(cols);
  float inv_std = static_cast<float>(1.0 / std::sqrt(var + 1e-5f));
  for (size_t c = 0; c < cols; ++c) {
    float xhat = (src[c] - static_cast<float>(mean)) * inv_std;
    dst[c] = g[c] * xhat + b[c];
  }
}

// SoftmaxForward on one row (float max, float exp, double total).
void SoftmaxRow(const float* src, size_t cols, float* dst) {
  float max_val = src[0];
  for (size_t c = 1; c < cols; ++c) max_val = std::max(max_val, src[c]);
  double total = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    dst[c] = std::exp(src[c] - max_val);
    total += dst[c];
  }
  float inv = static_cast<float>(1.0 / total);
  for (size_t c = 0; c < cols; ++c) dst[c] *= inv;
}

// Gelu forward on one row.
void GeluRow(float* row, size_t cols) {
  for (size_t i = 0; i < cols; ++i) {
    float x = row[i];
    float inner = kSqrt2OverPiDecode * (x + 0.044715f * x * x * x);
    row[i] = 0.5f * x * (1.0f + std::tanh(inner));
  }
}

// AddRowBroadcast on one row; Linear skips the add when bias is null.
void AddBiasRow(float* row, const Var& bias, size_t cols) {
  if (bias == nullptr) return;
  const float* b = bias->value.row(0);
  for (size_t c = 0; c < cols; ++c) row[c] += b[c];
}

// Single-row matmul c[1,n] = a[1,k] · B[k,n] where B's rows are `stride`
// apart (a submatrix view). Per output element this accumulates p in
// ascending order with the same zero-skip as the kernel matmuls, so the
// bits match a kernels::MatMul call on a compacted B. (This TU is built
// without FMA, so the separate multiply and add cannot be contracted.)
void MatVecStrided(const float* a, const float* b, size_t stride, float* c,
                   size_t k, size_t n) {
  std::fill(c, c + n, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    const float av = a[p];
    if (av == 0.0f) continue;
    const float* brow = b + p * stride;
    for (size_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}
}  // namespace

TransformerDecoder::TransformerDecoder(const TransformerLM& lm)
    : lm_(&lm),
      dim_(lm.config_.dim),
      head_dim_(lm.config_.dim / lm.config_.num_heads),
      layers_(lm.config_.num_layers) {
  const TransformerConfig& cfg = lm.config_;
  for (LayerCache& layer : layers_) {
    layer.heads.resize(cfg.num_heads);
    for (HeadCache& head : layer.heads) {
      head.kt.resize(head_dim_ * cfg.max_len);
      head.v.resize(cfg.max_len * head_dim_);
    }
  }
  // Transpose the tied embedding table once (same element moves as
  // MatMulTransB's internal transpose, hoisted out of the step loop).
  const float* table = lm.tok_.table()->value.data();
  tok_t_.resize(dim_ * cfg.vocab_size);
  for (size_t j = 0; j < cfg.vocab_size; ++j) {
    for (size_t p = 0; p < dim_; ++p) {
      tok_t_[p * cfg.vocab_size + j] = table[j * dim_ + p];
    }
  }
  x_.resize(dim_);
  norm_.resize(dim_);
  qkv_row_.resize(3 * dim_);
  scores_.resize(cfg.max_len);
  probs_.resize(cfg.max_len);
  concat_.resize(dim_);
  sub_.resize(std::max(dim_, cfg.ffn_dim));
  logits_.resize(cfg.vocab_size);
}

const std::vector<float>& TransformerDecoder::Step(uint32_t token) {
  const TransformerConfig& cfg = lm_->config_;
  FAIRGEN_CHECK(token < cfg.vocab_size);
  FAIRGEN_CHECK(length_ < cfg.max_len)
      << "decoder prefix already at max_len " << cfg.max_len;
  const size_t t = length_;

  // Embedding row: tok[token] + pos[t].
  const float* tok_row = lm_->tok_.table()->value.row(token);
  const float* pos_row = lm_->pos_.table()->value.row(t);
  for (size_t c = 0; c < dim_; ++c) x_[c] = tok_row[c] + pos_row[c];

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (size_t l = 0; l < layers_.size(); ++l) {
    const TransformerBlock& block = *lm_->blocks_[l];
    const MultiHeadSelfAttention& attn = block.attn_;
    LayerCache& cache = layers_[l];

    // Attention sublayer: x += Wout · concat_h(softmax(q·Kᵀ/√dh)·V) + b.
    NormRow(x_.data(), block.ln1_.gain()->value.row(0),
            block.ln1_.bias()->value.row(0), dim_, norm_.data());
    kernels::MatMul(norm_.data(), attn.qkv_.weight()->value.data(),
                    qkv_row_.data(), 1, dim_, 3 * dim_);
    AddBiasRow(qkv_row_.data(), attn.qkv_.bias(), 3 * dim_);
    for (size_t h = 0; h < cache.heads.size(); ++h) {
      HeadCache& head = cache.heads[h];
      const float* q = qkv_row_.data() + h * head_dim_;
      const float* k_new = qkv_row_.data() + dim_ + h * head_dim_;
      const float* v_new = qkv_row_.data() + 2 * dim_ + h * head_dim_;
      for (size_t p = 0; p < head_dim_; ++p) {
        head.kt[p * cfg.max_len + t] = k_new[p];
      }
      std::copy(v_new, v_new + head_dim_, head.v.begin() + t * head_dim_);

      // scores = (q · Kᵀ) * scale, then the causal-mask add: the mask row
      // for the newest position is all zeros, and x + 0.0f is *not* an FP
      // identity (it flips -0.0 to +0.0), so the add is replayed
      // verbatim to keep the bits equal to the full forward pass.
      MatVecStrided(q, head.kt.data(), cfg.max_len, scores_.data(),
                    head_dim_, t + 1);
      kernels::Scale(scores_.data(), scale, t + 1);
      for (size_t j = 0; j <= t; ++j) scores_[j] += 0.0f;
      SoftmaxRow(scores_.data(), t + 1, probs_.data());
      kernels::MatMul(probs_.data(), head.v.data(),
                      concat_.data() + h * head_dim_, 1, t + 1, head_dim_);
    }
    kernels::MatMul(concat_.data(), attn.out_.weight()->value.data(),
                    sub_.data(), 1, dim_, dim_);
    AddBiasRow(sub_.data(), attn.out_.bias(), dim_);
    for (size_t c = 0; c < dim_; ++c) x_[c] += sub_[c];

    // FFN sublayer: x += W2 · gelu(W1 · ln2(x) + b1) + b2.
    NormRow(x_.data(), block.ln2_.gain()->value.row(0),
            block.ln2_.bias()->value.row(0), dim_, norm_.data());
    kernels::MatMul(norm_.data(), block.ffn1_.weight()->value.data(),
                    sub_.data(), 1, dim_, cfg.ffn_dim);
    AddBiasRow(sub_.data(), block.ffn1_.bias(), cfg.ffn_dim);
    GeluRow(sub_.data(), cfg.ffn_dim);
    kernels::MatMul(sub_.data(), block.ffn2_.weight()->value.data(),
                    norm_.data(), 1, cfg.ffn_dim, dim_);
    AddBiasRow(norm_.data(), block.ffn2_.bias(), dim_);
    for (size_t c = 0; c < dim_; ++c) x_[c] += norm_[c];
  }

  // Final layer norm + tied output projection (logits = x · Eᵀ, against
  // the table transposed once at construction).
  NormRow(x_.data(), lm_->final_ln_.gain()->value.row(0),
          lm_->final_ln_.bias()->value.row(0), dim_, norm_.data());
  kernels::MatMul(norm_.data(), tok_t_.data(), logits_.data(), 1, dim_,
                  cfg.vocab_size);
  ++length_;
  return logits_;
}

}  // namespace fairgen::nn
