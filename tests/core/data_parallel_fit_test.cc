// Data-parallel generator minibatches: a Fit at any thread count must
// equal, bit for bit, a serial replay of Algorithm 1 that trains the
// generator one walk at a time (WalkNll or Logits + NegativeWalkPenalty,
// then Backward, then Adam) on the one model. The replay below uses only
// public calls, in the order FairGenTrainer::Fit makes them.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/fairgen_model.h"
#include "core/self_paced.h"
#include "core/trainer.h"
#include "core/walk_dataset.h"
#include "data/synthetic.h"
#include "graph/subgraph.h"
#include "nn/autograd.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rng/sampling.h"
#include "walk/context_sampler.h"
#include "walk/node2vec_walk.h"

namespace fairgen {
namespace {

FairGenConfig SmallConfig() {
  FairGenConfig cfg;
  cfg.num_walks = 40;
  cfg.self_paced_cycles = 2;
  cfg.generator_epochs = 2;
  cfg.generator_batch = 7;  // minibatches do not divide the walk count
  cfg.batch_size = 32;
  cfg.batch_iterations = 3;
  cfg.embedding_dim = 16;
  cfg.ffn_dim = 24;
  return cfg;
}

struct Data {
  LabeledGraph graph;
  std::vector<int32_t> labels;
};

Data MakeData() {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_edges = 400;
  cfg.num_classes = 3;
  cfg.protected_size = 12;
  Rng rng(17);
  Data d{GenerateSynthetic(cfg, rng).MoveValueUnsafe(), {}};
  d.labels = FewShotLabels(d.graph, 4, rng);
  return d;
}

// Everything a replayed Fit produces that the real one exposes.
struct FitOutput {
  std::vector<FairGenLosses> history;
  std::vector<nn::Tensor> params;  // generator, then discriminator
};

std::vector<nn::Tensor> Values(const FairGenModel& model) {
  std::vector<nn::Tensor> out;
  for (const nn::Var& p : model.GeneratorParameters()) out.push_back(p->value);
  for (const nn::Var& p : model.DiscriminatorParameters()) {
    out.push_back(p->value);
  }
  return out;
}

FitOutput RealFit(const Data& d, FairGenConfig cfg, uint32_t threads) {
  cfg.num_threads = threads;
  FairGenTrainer trainer(cfg);
  EXPECT_TRUE(trainer
                  .SetSupervision(d.labels, d.graph.protected_set,
                                  d.graph.num_classes)
                  .ok());
  Rng rng(5);
  EXPECT_TRUE(trainer.Fit(d.graph.graph, rng).ok());
  return {trainer.loss_history(), Values(*trainer.model())};
}

// One Backward per walk on the model itself, Adam per minibatch.
double SerialTrainGenerator(const FairGenConfig& c, uint32_t n,
                            FairGenModel& model, nn::Adam& optim,
                            const WalkDataset& dataset, Rng& rng) {
  const float floor = -c.negative_floor_scale * std::log(static_cast<float>(n));
  const nn::TransformerLM& lm = model.generator();
  auto step = [&](uint32_t in_batch) {
    for (const nn::Var& p : optim.params()) {
      p->grad.Scale(1.0f / static_cast<float>(in_batch));
    }
    optim.ClipGradNorm(c.grad_clip);
    optim.Step();
    optim.ZeroGrad();
  };
  double sum = 0.0;
  uint64_t count = 0;
  for (uint32_t epoch = 0; epoch < c.generator_epochs; ++epoch) {
    std::vector<std::pair<bool, uint32_t>> order = dataset.EpochOrder(rng);
    optim.ZeroGrad();
    uint32_t in_batch = 0;
    for (const auto& [positive, idx] : order) {
      const Walk& walk =
          positive ? dataset.positives()[idx] : dataset.negatives()[idx];
      if (walk.size() < 2) continue;
      nn::Var loss;
      if (positive) {
        loss = lm.WalkNll(walk);
      } else {
        std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
        std::vector<uint32_t> targets(walk.begin() + 1, walk.end());
        loss = nn::NegativeWalkPenalty(lm.Logits(prefix), targets, floor);
      }
      nn::Backward(loss);
      const double value = loss->value.ScalarValue();
      if (std::isfinite(value)) {
        sum += value;
        ++count;
      }
      if (++in_batch == c.generator_batch) {
        step(in_batch);
        in_batch = 0;
      }
    }
    if (in_batch > 0) step(in_batch);
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void SerialTrainDiscriminator(const FairGenConfig& c, const Data& d,
                              const std::vector<int32_t>& labels,
                              FairGenModel& model, nn::Adam& optim,
                              FairGenLosses& losses, Rng& rng) {
  const uint32_t n = d.graph.graph.num_nodes();
  const std::vector<int32_t>& truth = d.labels;
  std::vector<uint32_t> gt_nodes;
  std::vector<uint32_t> pseudo_nodes;
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (truth[v] != kUnlabeled) {
      gt_nodes.push_back(v);
    } else if (labels[v] != kUnlabeled) {
      pseudo_nodes.push_back(v);
    }
  }
  if (gt_nodes.empty()) return;
  const std::vector<NodeId>& prot = d.graph.protected_set;
  const bool use_parity = c.variant != FairGenVariant::kNoParity &&
                          !prot.empty() && prot.size() < n;
  const std::vector<NodeId> unprot = ComplementSet(n, prot);
  FairLearningModule& fair = model.fair_module();
  auto sample = [&](const std::vector<uint32_t>& pool, uint32_t count) {
    std::vector<uint32_t> picked;
    if (pool.empty() || count == 0) return picked;
    for (uint32_t i : SampleWithoutReplacement(
             static_cast<uint32_t>(pool.size()),
             std::min<uint32_t>(count, static_cast<uint32_t>(pool.size())),
             rng)) {
      picked.push_back(pool[i]);
    }
    return picked;
  };
  double jp = 0.0, jf = 0.0, jl = 0.0;
  uint64_t steps = 0;
  for (uint32_t t = 0; t < c.batch_iterations; ++t) {
    optim.ZeroGrad();
    std::vector<uint32_t> gt = sample(gt_nodes, c.batch_size);
    std::vector<uint32_t> gt_labels;
    for (uint32_t v : gt) gt_labels.push_back(static_cast<uint32_t>(truth[v]));
    nn::Var loss = fair.PredictionLoss(gt, gt_labels, c.alpha);
    jp += loss->value.ScalarValue();
    if (!pseudo_nodes.empty() && c.variant != FairGenVariant::kNoSelfPaced) {
      std::vector<uint32_t> ps = sample(pseudo_nodes, c.batch_size);
      std::vector<uint32_t> ps_labels;
      for (uint32_t v : ps) ps_labels.push_back(static_cast<uint32_t>(labels[v]));
      nn::Var l = fair.PropagationLoss(ps, ps_labels, c.beta);
      jl += l->value.ScalarValue();
      loss = nn::Add(loss, l);
    }
    if (use_parity) {
      const uint32_t k = c.parity_sample;
      std::vector<uint32_t> p = sample(
          std::vector<uint32_t>(prot.begin(), prot.end()),
          k == 0 ? static_cast<uint32_t>(prot.size()) : k);
      std::vector<uint32_t> u = sample(
          std::vector<uint32_t>(unprot.begin(), unprot.end()),
          k == 0 ? static_cast<uint32_t>(unprot.size()) : k);
      if (!p.empty() && !u.empty()) {
        nn::Var f = fair.ParityLoss(p, u, c.gamma);
        jf += f->value.ScalarValue();
        loss = nn::Add(loss, f);
      }
    }
    nn::Backward(loss);
    optim.ClipGradNorm(c.grad_clip);
    optim.Step();
    ++steps;
  }
  losses.j_p = jp / static_cast<double>(steps);
  losses.j_f = jf / static_cast<double>(steps);
  if (losses.j_l == 0.0) losses.j_l = jl / static_cast<double>(steps);
}

FitOutput SerialFit(const Data& d, const FairGenConfig& c) {
  const Graph& graph = d.graph.graph;
  const uint32_t n = graph.num_nodes();
  const uint32_t classes = d.graph.num_classes;
  Rng rng(5);
  FairGenModel model(c, n, classes, NodeMask(n, d.graph.protected_set), rng);
  ContextSamplerConfig sampler_cfg;
  sampler_cfg.walk_length = c.walk_length;
  sampler_cfg.general_ratio = c.general_ratio;
  ContextSampler sampler(graph, sampler_cfg, classes);
  std::vector<int32_t> labels = d.labels;
  EXPECT_TRUE(sampler.SetLabels(labels).ok());
  StartDistribution start(graph, StartDistribution::Kind::kDegreeProportional);
  nn::Adam gen_optim(model.GeneratorParameters(), c.generator_lr);
  nn::Adam disc_optim(model.DiscriminatorParameters(), c.discriminator_lr);

  WalkDataset dataset;
  dataset.AddPositives(sampler.SampleBatch(c.num_walks, rng));
  Node2VecWalker neg_walker(graph, c.negative_walk);
  dataset.AddNegatives(
      neg_walker.SampleWalks(c.num_walks, c.walk_length, rng, 1));

  const bool refresh = c.refresh_negatives;
  const bool spl = c.variant != FairGenVariant::kNoSelfPaced;
  SelfPacedScheduler scheduler(c.lambda, c.lambda_growth);
  FitOutput out;
  for (uint32_t cycle = 0; cycle < c.self_paced_cycles; ++cycle) {
    FairGenLosses losses;
    // sample_walks, generator, negatives?, self_paced?, dataset_update,
    // discriminator.
    std::vector<Rng> streams =
        SplitRngs(rng, 4 + (refresh ? 1 : 0) + (spl ? 1 : 0));
    std::vector<Walk> positives = sampler.SampleBatch(c.num_walks, streams[0]);
    losses.j_g = SerialTrainGenerator(c, n, model, gen_optim, dataset,
                                      streams[1]);
    std::vector<Walk> negatives;
    if (refresh) {
      for (uint32_t i = 0; i < c.num_walks; ++i) {
        const uint32_t v = start.Sample(streams[2]);
        negatives.push_back(model.generator().SampleWalk(
            v, c.walk_length, streams[2], c.temperature));
      }
    }
    if (spl) {
      scheduler.Augment();
      SelfPacedUpdate update = scheduler.Update(
          model.fair_module().LogProbaAll(), d.labels, c.beta);
      labels = std::move(update.labels);
      losses.j_l = update.j_l / std::max<size_t>(1, labels.size());
      losses.j_s = update.j_s / std::max<size_t>(1, labels.size());
      EXPECT_TRUE(sampler.SetLabels(labels).ok());
    }
    dataset.AddPositives(std::move(positives));
    if (refresh) dataset.AddNegatives(std::move(negatives));
    dataset.TrimTo(4 * c.num_walks);
    SerialTrainDiscriminator(c, d, labels, model, disc_optim, losses,
                             streams.back());
    out.history.push_back(losses);
  }
  out.params = Values(model);
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectBitwiseEqual(const FitOutput& want, const FitOutput& got) {
  ASSERT_EQ(want.history.size(), got.history.size());
  for (size_t i = 0; i < want.history.size(); ++i) {
    const FairGenLosses& a = want.history[i];
    const FairGenLosses& b = got.history[i];
    EXPECT_TRUE(SameBits(a.j_g, b.j_g)) << "cycle " << i;
    EXPECT_TRUE(SameBits(a.j_p, b.j_p)) << "cycle " << i;
    EXPECT_TRUE(SameBits(a.j_f, b.j_f)) << "cycle " << i;
    EXPECT_TRUE(SameBits(a.j_l, b.j_l)) << "cycle " << i;
    EXPECT_TRUE(SameBits(a.j_s, b.j_s)) << "cycle " << i;
  }
  ASSERT_EQ(want.params.size(), got.params.size());
  for (size_t i = 0; i < want.params.size(); ++i) {
    ASSERT_TRUE(want.params[i].SameShape(got.params[i]));
    EXPECT_EQ(std::memcmp(want.params[i].data(), got.params[i].data(),
                          want.params[i].size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

void CheckVariant(const FairGenConfig& cfg) {
  const Data d = MakeData();
  const FitOutput serial = SerialFit(d, cfg);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectBitwiseEqual(serial, RealFit(d, cfg, threads));
  }
}

TEST(DataParallelFitTest, FullVariantEqualsSerialReplay) {
  CheckVariant(SmallConfig());
}

TEST(DataParallelFitTest, NoSelfPacedVariantEqualsSerialReplay) {
  FairGenConfig cfg = SmallConfig();
  cfg.variant = FairGenVariant::kNoSelfPaced;
  CheckVariant(cfg);
}

TEST(DataParallelFitTest, NoRefreshVariantEqualsSerialReplay) {
  FairGenConfig cfg = SmallConfig();
  cfg.refresh_negatives = false;
  CheckVariant(cfg);
}

// generator_batch = 0 trains each epoch as one minibatch.
TEST(DataParallelFitTest, ZeroBatchVariantEqualsSerialReplay) {
  FairGenConfig cfg = SmallConfig();
  cfg.generator_batch = 0;
  CheckVariant(cfg);
}

// A minibatch of 2 walks caps the lanes and the replica window at 2, at
// 2 threads and at 4; 7 walks (the other tests) wrap a window of 6
// replicas at 4 threads and of 3 at 2 threads.
TEST(DataParallelFitTest, SmallBatchVariantEqualsSerialReplay) {
  FairGenConfig cfg = SmallConfig();
  cfg.generator_batch = 2;
  CheckVariant(cfg);
}

}  // namespace
}  // namespace fairgen
