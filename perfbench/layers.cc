#include "layers.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <utility>

#include "common/parallel.h"
#include "core/fairgen_model.h"
#include "core/self_paced.h"
#include "core/walk_dataset.h"
#include "generators/generator.h"
#include "graph/subgraph.h"
#include "nn/autograd.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rng/sampling.h"
#include "stats/discrepancy.h"
#include "walk/context_sampler.h"
#include "walk/node2vec_walk.h"

namespace fairgen::perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerStat LayerClock::Get(const std::string& layer) const {
  auto it = stats_.find(layer);
  return it == stats_.end() ? LayerStat{} : it->second;
}

namespace {

// Adds `value` to `*sum` when finite, as the trainer's loss guard does.
bool AddFinite(double value, double* sum) {
  if (!std::isfinite(value)) return false;
  *sum += value;
  return true;
}

// The trainer's per-cycle DAG (core/pipeline) splits one RNG stream per
// stage from the master rng, in stage-insertion order: sample_walks,
// generator, negatives, self_paced, dataset_update, discriminator.
enum Stage : size_t {
  kSampleWalks = 0,
  kGenerator,
  kNegatives,
  kSelfPaced,
  kDatasetUpdate,
  kDiscriminator,
  kNumStages,
};

// State of one replayed Fit.
struct FitState {
  FitState(const FairGenConfig& c, const Graph& g, const Supervision& su,
           LayerClock& cl)
      : config(c), graph(g), sup(su), clock(cl) {}

  const FairGenConfig& config;
  const Graph& graph;
  const Supervision& sup;
  LayerClock& clock;
  FairGenModel* model = nullptr;
  nn::Adam* gen_optim = nullptr;
  nn::Adam* disc_optim = nullptr;
  WalkDataset dataset;
  std::vector<int32_t> labels;
};

// FairGenTrainer::TrainGenerator.
double TrainGenerator(FitState& s, Rng& rng) {
  const FairGenConfig& c = s.config;
  const float floor_logprob =
      -c.negative_floor_scale *
      std::log(static_cast<float>(s.graph.num_nodes()));
  nn::Adam& optim = *s.gen_optim;
  nn::TransformerLM& lm = s.model->generator();
  auto step = [&](uint32_t in_batch) {
    s.clock.Time("nn.optim", in_batch, [&] {
      for (const nn::Var& p : optim.params()) {
        p->grad.Scale(1.0f / static_cast<float>(in_batch));
      }
      optim.ClipGradNorm(c.grad_clip);
      optim.Step();
      optim.ZeroGrad();
    });
  };

  double loss_sum = 0.0;
  uint64_t loss_count = 0;
  for (uint32_t epoch = 0; epoch < c.generator_epochs; ++epoch) {
    std::vector<std::pair<bool, uint32_t>> order = s.clock.Time(
        "core.dataset", 0, [&] { return s.dataset.EpochOrder(rng); });
    s.clock.Time("nn.optim", 0, [&] { optim.ZeroGrad(); });
    uint32_t in_batch = 0;
    for (const auto& [is_positive, idx] : order) {
      const Walk& walk = is_positive ? s.dataset.positives()[idx]
                                     : s.dataset.negatives()[idx];
      if (walk.size() < 2) continue;
      nn::Var loss = s.clock.Time("nn.fwd", 1, [&] {
        if (is_positive) return lm.WalkNll(walk);
        std::vector<uint32_t> prefix(walk.begin(), walk.end() - 1);
        std::vector<uint32_t> targets(walk.begin() + 1, walk.end());
        return nn::NegativeWalkPenalty(lm.Logits(prefix), targets,
                                       floor_logprob);
      });
      // Backward, then free the walk's autograd tape (the trainer frees it
      // when `loss` leaves scope; that is generator time too).
      double value = 0.0;
      s.clock.Time("nn.bwd", 1, [&] {
        nn::Backward(loss);
        value = loss->value.ScalarValue();
        loss.reset();
      });
      if (AddFinite(value, &loss_sum)) ++loss_count;
      if (++in_batch == c.generator_batch) {
        step(in_batch);
        in_batch = 0;
      }
    }
    if (in_batch > 0) step(in_batch);
  }
  return loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
}

// FairGenTrainer::TrainDiscriminator (supervision present).
void TrainDiscriminator(FitState& s, FairGenLosses& losses, Rng& rng) {
  const FairGenConfig& c = s.config;
  const uint32_t n = s.graph.num_nodes();
  std::vector<uint32_t> gt_nodes;
  std::vector<uint32_t> pseudo_nodes;
  for (NodeId v = 0; v < s.labels.size(); ++v) {
    if (s.sup.labels[v] != kUnlabeled) {
      gt_nodes.push_back(v);
    } else if (s.labels[v] != kUnlabeled) {
      pseudo_nodes.push_back(v);
    }
  }
  if (gt_nodes.empty()) return;

  FairLearningModule& fair = s.model->fair_module();
  const std::vector<NodeId>& prot = s.sup.protected_set;
  const bool use_parity = !prot.empty() && prot.size() < n;
  const std::vector<NodeId> unprotected = ComplementSet(n, prot);
  nn::Adam& optim = *s.disc_optim;

  auto sample_nodes = [&](const std::vector<uint32_t>& pool, uint32_t count) {
    std::vector<uint32_t> picked;
    if (pool.empty() || count == 0) return picked;
    std::vector<uint32_t> idx = SampleWithoutReplacement(
        static_cast<uint32_t>(pool.size()),
        std::min<uint32_t>(count, static_cast<uint32_t>(pool.size())), rng);
    picked.reserve(idx.size());
    for (uint32_t i : idx) picked.push_back(pool[i]);
    return picked;
  };

  double jp_sum = 0.0;
  double jf_sum = 0.0;
  double jl_sum = 0.0;
  uint64_t steps = 0;
  for (uint32_t t = 0; t < c.batch_iterations; ++t) {
    optim.ZeroGrad();
    std::vector<uint32_t> gt_batch = sample_nodes(gt_nodes, c.batch_size);
    std::vector<uint32_t> gt_labels(gt_batch.size());
    for (size_t i = 0; i < gt_batch.size(); ++i) {
      gt_labels[i] = static_cast<uint32_t>(s.sup.labels[gt_batch[i]]);
    }
    nn::Var loss = fair.PredictionLoss(gt_batch, gt_labels, c.alpha);
    AddFinite(loss->value.ScalarValue(), &jp_sum);

    if (!pseudo_nodes.empty()) {
      std::vector<uint32_t> ps_batch =
          sample_nodes(pseudo_nodes, c.batch_size);
      std::vector<uint32_t> ps_labels(ps_batch.size());
      for (size_t i = 0; i < ps_batch.size(); ++i) {
        ps_labels[i] = static_cast<uint32_t>(s.labels[ps_batch[i]]);
      }
      nn::Var jl = fair.PropagationLoss(ps_batch, ps_labels, c.beta);
      AddFinite(jl->value.ScalarValue(), &jl_sum);
      loss = nn::Add(loss, jl);
    }

    if (use_parity) {
      const uint32_t sample = c.parity_sample;
      std::vector<uint32_t> p = sample_nodes(
          std::vector<uint32_t>(prot.begin(), prot.end()),
          sample == 0 ? static_cast<uint32_t>(prot.size()) : sample);
      std::vector<uint32_t> u = sample_nodes(
          std::vector<uint32_t>(unprotected.begin(), unprotected.end()),
          sample == 0 ? static_cast<uint32_t>(unprotected.size()) : sample);
      if (!p.empty() && !u.empty()) {
        nn::Var jf = fair.ParityLoss(p, u, c.gamma);
        AddFinite(jf->value.ScalarValue(), &jf_sum);
        loss = nn::Add(loss, jf);
      }
    }

    nn::Backward(loss);
    optim.ClipGradNorm(c.grad_clip);
    optim.Step();
    ++steps;
  }
  if (steps > 0) {
    losses.j_p = jp_sum / static_cast<double>(steps);
    losses.j_f = jf_sum / static_cast<double>(steps);
    if (losses.j_l == 0.0) losses.j_l = jl_sum / static_cast<double>(steps);
  }
}

}  // namespace

Result<std::vector<FairGenLosses>> TracedFit(const FairGenConfig& config,
                                             const Graph& graph,
                                             const Supervision& sup,
                                             Rng& rng, LayerClock& clock) {
  FAIRGEN_RETURN_NOT_OK(config.Validate());
  if (config.variant != FairGenVariant::kFull || !config.refresh_negatives ||
      !config.checkpoint.dir.empty() || config.probe_every != 0 ||
      sup.num_classes < 2 || sup.labels.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "TracedFit replays only the full variant with supervision, "
        "negative refresh and no checkpointing or probes");
  }
  const uint32_t n = graph.num_nodes();
  FitState s(config, graph, sup, clock);

  // FairGenTrainer::Prepare.
  std::unique_ptr<FairGenModel> model;
  std::unique_ptr<ContextSampler> sampler;
  std::unique_ptr<StartDistribution> start;
  std::unique_ptr<nn::Adam> gen_optim;
  std::unique_ptr<nn::Adam> disc_optim;
  FAIRGEN_RETURN_NOT_OK(clock.Time("core.prepare", 1, [&]() -> Status {
    model = std::make_unique<FairGenModel>(config, n, sup.num_classes,
                                           NodeMask(n, sup.protected_set),
                                           rng);
    ContextSamplerConfig sampler_cfg;
    sampler_cfg.walk_length = config.walk_length;
    sampler_cfg.general_ratio = config.general_ratio;
    sampler = std::make_unique<ContextSampler>(graph, sampler_cfg,
                                               sup.num_classes);
    s.labels = sup.labels;
    FAIRGEN_RETURN_NOT_OK(sampler->SetLabels(s.labels));
    start = std::make_unique<StartDistribution>(
        graph, StartDistribution::Kind::kDegreeProportional);
    gen_optim = std::make_unique<nn::Adam>(model->GeneratorParameters(),
                                           config.generator_lr);
    disc_optim = std::make_unique<nn::Adam>(
        model->DiscriminatorParameters(), config.discriminator_lr);
    return Status::OK();
  }));
  s.model = model.get();
  s.gen_optim = gen_optim.get();
  s.disc_optim = disc_optim.get();

  // Algorithm 1 step 2: initial N+ from f_S, N- from the [32] sampler.
  s.dataset.AddPositives(clock.Time("walk.context", config.num_walks, [&] {
    return sampler->SampleBatch(config.num_walks, rng);
  }));
  s.dataset.AddNegatives(clock.Time("walk.node2vec", config.num_walks, [&] {
    Node2VecWalker walker(graph, config.negative_walk);
    return walker.SampleWalks(config.num_walks, config.walk_length, rng,
                              config.num_threads);
  }));

  SelfPacedScheduler scheduler(config.lambda, config.lambda_growth);
  std::vector<FairGenLosses> history;
  for (uint32_t cycle = 0; cycle < config.self_paced_cycles; ++cycle) {
    FairGenLosses losses;
    std::vector<Rng> streams = SplitRngs(rng, kNumStages);

    std::vector<Walk> positives =
        clock.Time("walk.context", config.num_walks, [&] {
          return sampler->SampleBatch(config.num_walks, streams[kSampleWalks]);
        });
    losses.j_g = TrainGenerator(s, streams[kGenerator]);
    std::vector<Walk> negatives =
        clock.Time("nn.decode", config.num_walks, [&] {
          std::vector<Walk> walks;
          walks.reserve(config.num_walks);
          Rng& r = streams[kNegatives];
          for (uint32_t i = 0; i < config.num_walks; ++i) {
            const uint32_t v = start->Sample(r);
            walks.push_back(model->generator().SampleWalk(
                v, config.walk_length, r, config.temperature));
          }
          return walks;
        });
    FAIRGEN_RETURN_NOT_OK(clock.Time("core.self_paced", 1, [&]() -> Status {
      scheduler.Augment();
      SelfPacedUpdate update = scheduler.Update(
          model->fair_module().LogProbaAll(), sup.labels, config.beta);
      s.labels = std::move(update.labels);
      const double denom =
          static_cast<double>(std::max<size_t>(1, s.labels.size()));
      losses.j_l = update.j_l / denom;
      losses.j_s = update.j_s / denom;
      return sampler->SetLabels(s.labels);
    }));
    clock.Time("core.dataset", 0, [&] {
      s.dataset.AddPositives(std::move(positives));
      s.dataset.AddNegatives(std::move(negatives));
      s.dataset.TrimTo(4 * config.num_walks);
    });
    clock.Time("core.discriminator", config.batch_iterations, [&] {
      TrainDiscriminator(s, losses, streams[kDiscriminator]);
    });
    history.push_back(losses);
  }
  return history;
}

Status Audit(const Graph& original, const std::vector<NodeId>& protected_set,
             Release* release) {
  FAIRGEN_ASSIGN_OR_RETURN(auto overall,
                           OverallDiscrepancy(original, release->graph));
  FAIRGEN_ASSIGN_OR_RETURN(
      auto prot,
      ProtectedDiscrepancy(original, release->graph, protected_set));
  release->overall = MeanDiscrepancy(overall);
  release->protected_group = MeanDiscrepancy(prot);
  return Status::OK();
}

Result<Release> TracedRelease(const FairGenTrainer& trainer,
                              const Graph& graph, const Supervision& sup,
                              const StartDistribution& start, Rng& rng,
                              LayerClock& clock) {
  const FairGenModel* model = trainer.model();
  if (model == nullptr) {
    return Status::FailedPrecondition("TracedRelease needs a fitted model");
  }
  const FairGenConfig& c = trainer.config();
  const uint32_t n = graph.num_nodes();
  const uint64_t target_transitions = static_cast<uint64_t>(
      c.gen_transition_multiplier * static_cast<double>(graph.num_edges()));

  // FairGenTrainer::AccumulateWalks: class-seeded or degree-proportional
  // starts, walks decoded by g_θ, counted into the score matrix B.
  std::vector<std::vector<NodeId>> class_nodes(sup.num_classes);
  const std::vector<int32_t>& labels = trainer.current_labels();
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] != kUnlabeled) {
      class_nodes[static_cast<size_t>(labels[v])].push_back(v);
    }
  }
  class_nodes.erase(std::remove_if(class_nodes.begin(), class_nodes.end(),
                                   [](const auto& m) { return m.empty(); }),
                    class_nodes.end());
  const nn::TransformerLM& lm = model->generator();
  EdgeScoreAccumulator scores =
      clock.Time("generate.score", target_transitions, [&] {
        return AccumulateWalkScores(
            n, target_transitions, c.num_threads, rng, [&](Rng& r) {
              uint32_t v;
              if (!class_nodes.empty() && !r.Bernoulli(c.general_ratio)) {
                const auto& members = class_nodes[r.UniformU32(
                    static_cast<uint32_t>(class_nodes.size()))];
                v = members[r.UniformU32(
                    static_cast<uint32_t>(members.size()))];
              } else {
                v = start.Sample(r);
              }
              return lm.SampleWalk(v, c.walk_length, r, c.temperature);
            });
      });

  Release release;
  AssemblerCriteria criteria;
  criteria.preserve_protected_volume = !sup.protected_set.empty();
  criteria.ensure_min_degree = true;
  FAIRGEN_ASSIGN_OR_RETURN(
      release.graph, clock.Time("assemble", graph.num_edges(), [&] {
        Result<Graph> g = AssembleFairGraph(scores, graph, sup.protected_set,
                                            criteria, rng, &release.report);
        scores = EdgeScoreAccumulator(1);  // free B, as Generate does here
        return g;
      }));
  FAIRGEN_RETURN_NOT_OK(clock.Time("eval.discrepancy", 1, [&] {
    return Audit(graph, sup.protected_set, &release);
  }));
  return release;
}

}  // namespace fairgen::perfbench
