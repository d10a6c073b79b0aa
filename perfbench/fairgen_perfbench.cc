// Same-host FairGen benchmark: the measuring binary.
//
//   fairgen_perfbench --workload fit|fit_serial|release --seed N
//                     --seconds S --trace 0|1 [--threads T] [--tiny]
//                     [--rev REV] [--work-dir DIR]
//
// Runs one workload in this process as a closed loop (one caller, the next
// operation starts when the previous one returns), checks every output,
// and prints as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics (tracing off); with
// --trace 1 they are the per-layer metrics of a traced run, which also
// prints the layer table. perfbench/README.md documents the workloads and
// every metric. Exit codes: 0 ran (see "correct"), 1 could not run, 2 bad
// flags.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/logging.h"
#include "common/memprobe.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "graph/transition.h"
#include "layers.h"
#include "nn/kernels/kernels.h"
#include "validate.h"

namespace fairgen::perfbench {
namespace {

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  uint32_t nodes = 0;
  uint64_t edges = 0;
  uint32_t threads = 1;
  FairGenConfig config;
  // true: the measured ops are releases from a model fitted in set-up;
  // false: the measured ops are fits.
  bool release_primary = false;
  uint32_t setups = 15;  // set-up repetitions (setup_s is their median)
};

// Each timed loop runs at least this many ops, so that its tail
// percentile has ten samples beyond it.
constexpr size_t kMinOps = 11;

Result<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  // Every release in the benchmark, on every workload, uses the same
  // budget (Generate samples 4m walk transitions).
  w.config.gen_transition_multiplier = 4.0;
  if (name == "fit" || name == "fit_serial") {
    w.nodes = tiny ? 120 : 1000;
    w.edges = tiny ? 600 : 5000;
    w.threads = name == "fit" ? 4 : 1;
    w.config.num_walks = tiny ? 16 : 200;
    w.config.self_paced_cycles = tiny ? 2 : 3;
  } else if (name == "release") {
    w.nodes = tiny ? 160 : 4000;
    w.edges = tiny ? 800 : 20000;
    w.threads = 4;
    w.config.num_walks = tiny ? 16 : 100;
    w.config.self_paced_cycles = 1;
    w.release_primary = true;
    w.setups = 5;  // each set-up fits a model
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (want fit, fit_serial or release)");
  }
  return w;
}

struct Inputs {
  Graph graph{Graph::Empty(0)};
  Supervision sup;
};

// The workload graph: a synthetic labeled graph with 3 classes,
// |S+| = n/10 and 10 ground-truth labels per class.
Result<Inputs> MakeInputs(const Workload& w, uint64_t seed) {
  SyntheticGraphConfig cfg;
  cfg.num_nodes = w.nodes;
  cfg.num_edges = w.edges;
  cfg.num_classes = 3;
  cfg.protected_size = w.nodes / 10;
  Rng rng(seed, /*stream=*/3);
  FAIRGEN_ASSIGN_OR_RETURN(LabeledGraph data, GenerateSynthetic(cfg, rng));
  Inputs in;
  in.sup.labels = FewShotLabels(data, 10, rng);
  in.sup.protected_set = data.protected_set;
  in.sup.num_classes = data.num_classes;
  in.graph = std::move(data.graph);
  return in;
}

// RNG of every fit of a run: each fit repeats the same work, so its
// outputs must repeat bit for bit.
Rng FitRng(uint64_t seed) { return Rng(seed, 7); }
// RNG of release `slot` (0..kMinOps-1). Release op i mints slot i mod
// kMinOps: the first kMinOps releases are independent (R and R+ are their
// mean), and every later one must repeat its slot bit for bit.
Rng ReleaseRng(uint64_t seed, size_t slot) { return Rng(seed, 100 + slot); }

// ------------------------------------------------------------------ helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// The highest percentile with at least ten samples beyond it, by nearest
// rank: the sample at sorted index N-11, percentile 100*(N-10)/N. Every
// timed loop runs at least kMinOps = 11 ops, so N >= 11.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  FAIRGEN_CHECK(v.size() >= kMinOps);
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double pct =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return {v[n - 11], pct, n};
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc() || !std::isfinite(v)) return "null";
  return std::string(buf, end);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

bool SameHistory(const std::vector<FairGenLosses>& a,
                 const std::vector<FairGenLosses>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double x[] = {a[i].j_g, a[i].j_p, a[i].j_f, a[i].j_l, a[i].j_s};
    const double y[] = {b[i].j_g, b[i].j_p, b[i].j_f, b[i].j_l, b[i].j_s};
    if (std::memcmp(x, y, sizeof(x)) != 0) return false;
  }
  return true;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ------------------------------------------------------------------- runner

struct Options {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  uint64_t threads = 0;  // 0 = the workload's own count
  bool tiny = false;
  std::string rev = "unknown";
  std::string work_dir = ".";  // where the checkpoint file goes
};

// One timed sample: wall and process-CPU seconds.
struct Sample {
  double wall = 0.0;
  double cpu = 0.0;
};

template <typename F>
Sample Timed(F&& f) {
  const double w0 = WallSeconds();
  const double c0 = ProcessCpuSeconds();
  f();
  return {WallSeconds() - w0, ProcessCpuSeconds() - c0};
}

class Runner {
 public:
  Runner(Options opt, Workload w) : opt_(std::move(opt)), w_(std::move(w)) {
    if (opt_.threads != 0) w_.threads = static_cast<uint32_t>(opt_.threads);
    w_.config.num_threads = w_.threads;
    SetDefaultNumThreads(w_.threads);
    ckpt_path_ = opt_.work_dir + "/perfbench-" + std::to_string(::getpid()) +
                 ".fgckpt";
  }

  int Run();

 private:
  // Fails the op (counted, never dropped) and logs why.
  void Fail(const std::string& what, const Status& st) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 st.ToString().c_str());
  }

  Status SetUp(LayerClock* clock);
  // One fit op (SetSupervision + Fit) into `*trainer`; returns the sample.
  Sample FitOp(uint32_t threads, std::unique_ptr<FairGenTrainer>* trainer);
  // One release op from `trainer` (Generate + checks + audit).
  Sample ReleaseOp(FairGenTrainer& trainer);
  void CheckReleaseRepeat(size_t slot, const Release& r);
  // Mean of `field` over the minted releases.
  double MeanOverReleases(double Release::*field) const;
  void CheckFitRepeat(const FairGenTrainer& t);
  Status Checkpoint(const FairGenTrainer& fitted, LayerClock* clock,
                    std::unique_ptr<FairGenTrainer>* loaded);
  bool DeterminismAcrossThreads();
  // Traced replays of one fit / one release, checked against the real
  // call's output; return the op's wall seconds.
  double TracedFitOp(LayerClock& clock);
  double TracedReleaseOp(LayerClock& clock);
  int RunUntraced();
  int RunTraced(LayerClock& setup_clock);
  void PrintLayerTable(const char* title, const LayerClock& clock,
                       const std::vector<const char*>& layers, size_t ops,
                       double traced_wall_ms, double base_wall_ms,
                       size_t base_ops);
  void PrintOpSummary();
  int Finish(const std::vector<Metric>& metrics);
  void PrintFingerprint();

  Options opt_;
  Workload w_;
  std::string ckpt_path_;
  Inputs in_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool deterministic_ = true;

  std::vector<double> setup_s_;
  std::vector<Sample> fits_;
  std::vector<Sample> releases_;
  std::unique_ptr<FairGenTrainer> fitted_;    // last fit
  std::unique_ptr<FairGenTrainer> releaser_;  // model releases come from
  std::vector<FairGenLosses> fit_history_;    // first fit's losses
  bool have_fit_ = false;
  size_t release_ops_ = 0;  // ReleaseOp calls so far, warm-up included
  // The first release of each slot, and its edge list.
  std::vector<std::optional<Release>> minted_ =
      std::vector<std::optional<Release>>(kMinOps);
  std::vector<std::vector<Edge>> minted_edges_ =
      std::vector<std::vector<Edge>>(kMinOps);
  double checkpoint_bytes_ = 0.0;
  std::unique_ptr<StartDistribution> start_;  // for traced releases
};

Sample Runner::FitOp(uint32_t threads,
                     std::unique_ptr<FairGenTrainer>* trainer) {
  FairGenConfig cfg = w_.config;
  cfg.num_threads = threads;
  auto t = std::make_unique<FairGenTrainer>(cfg);
  Rng rng = FitRng(opt_.seed);
  Status st;
  ++attempted_;
  const Sample s = Timed([&] {
    st = t->SetSupervision(in_.sup.labels, in_.sup.protected_set,
                           in_.sup.num_classes);
    if (st.ok()) st = t->Fit(in_.graph, rng);
  });
  st = CheckFit(st, st.ok() ? t->loss_history()
                            : std::vector<FairGenLosses>{});
  if (!st.ok()) {
    Fail("fit", st);
  } else {
    CheckFitRepeat(*t);
  }
  *trainer = std::move(t);
  return s;
}

void Runner::CheckFitRepeat(const FairGenTrainer& t) {
  if (!have_fit_) {
    fit_history_ = t.loss_history();
    have_fit_ = true;
  } else if (!SameHistory(fit_history_, t.loss_history())) {
    Fail("fit", Status::Internal("loss history differs from the run's "
                                 "first fit of the same inputs"));
  }
}

Sample Runner::ReleaseOp(FairGenTrainer& trainer) {
  const size_t slot = release_ops_++ % kMinOps;
  Rng rng = ReleaseRng(opt_.seed, slot);
  Release r;
  ++attempted_;
  // The op is Generate plus the audit; the output checks are not timed.
  Result<Graph> g = Status::Internal("not run");
  Sample s = Timed([&] { g = trainer.Generate(rng); });
  Status st = g.status();
  if (st.ok()) {
    r.graph = std::move(*g);
    r.report = trainer.last_assembly_report();
    st = CheckRelease(r.graph, in_.graph);
  }
  if (st.ok()) {
    const Sample audit =
        Timed([&] { st = Audit(in_.graph, in_.sup.protected_set, &r); });
    s.wall += audit.wall;
    s.cpu += audit.cpu;
  }
  if (st.ok()) st = CheckDiscrepancy(r.overall, r.protected_group);
  if (!st.ok()) {
    Fail("release", st);
  } else {
    CheckReleaseRepeat(slot, r);
  }
  return s;
}

void Runner::CheckReleaseRepeat(size_t slot, const Release& r) {
  std::vector<Edge> edges = r.graph.ToEdgeList();
  if (!minted_[slot]) {
    minted_edges_[slot] = std::move(edges);
    minted_[slot] = r;
  } else if (edges != minted_edges_[slot] ||
             !SameBits(r.overall, minted_[slot]->overall) ||
             !SameBits(r.protected_group, minted_[slot]->protected_group)) {
    Fail("release", Status::Internal("release differs from the run's first "
                                     "release of the same model and seed"));
  }
}

double Runner::MeanOverReleases(double Release::*field) const {
  double sum = 0.0;
  size_t count = 0;
  for (const std::optional<Release>& r : minted_) {
    if (!r) continue;
    sum += (*r).*field;
    ++count;
  }
  return count ? sum / static_cast<double>(count) : NAN;
}

// Save `fitted` and load it into a freshly prepared trainer, as
// examples/train_once_generate_many.cc does.
Status Runner::Checkpoint(const FairGenTrainer& fitted, LayerClock* clock,
                          std::unique_ptr<FairGenTrainer>* loaded) {
  LayerClock unused;
  LayerClock& c = clock ? *clock : unused;
  FAIRGEN_RETURN_NOT_OK(c.Time("core.checkpoint_save", 1, [&] {
    return fitted.SaveCheckpoint(ckpt_path_);
  }));
  auto t = std::make_unique<FairGenTrainer>(w_.config);
  FAIRGEN_RETURN_NOT_OK(t->SetSupervision(
      in_.sup.labels, in_.sup.protected_set, in_.sup.num_classes));
  Rng prep_rng(opt_.seed, 13);  // fresh init, overwritten by the load
  FAIRGEN_RETURN_NOT_OK(t->Prepare(in_.graph, prep_rng));
  FAIRGEN_RETURN_NOT_OK(c.Time("core.checkpoint_load", 1, [&] {
    return t->LoadCheckpoint(ckpt_path_);
  }));
  std::ifstream f(ckpt_path_, std::ios::binary | std::ios::ate);
  checkpoint_bytes_ = static_cast<double>(f.tellg());
  std::remove(ckpt_path_.c_str());
  *loaded = std::move(t);
  return Status::OK();
}

Status Runner::SetUp(LayerClock* clock) {
  for (uint32_t k = 0; k < w_.setups; ++k) {
    const double t0 = WallSeconds();
    FAIRGEN_ASSIGN_OR_RETURN(in_, MakeInputs(w_, opt_.seed));
    if (w_.release_primary) {
      // The model every release comes from: fitted once, checkpointed and
      // restored into a fresh trainer.
      FitOp(w_.threads, &fitted_);
      if (failed_ > 0) return Status::Internal("set-up fit failed");
      FAIRGEN_RETURN_NOT_OK(Checkpoint(
          *fitted_, k + 1 == w_.setups ? clock : nullptr, &releaser_));
    }
    setup_s_.push_back(WallSeconds() - t0);
  }
  return Status::OK();
}

bool Runner::DeterminismAcrossThreads() {
  // The repo's thread-count contract: fit_nll is bitwise equal at 1 and
  // at 4 threads. Checked once per run against the other fit workload.
  const uint32_t other = w_.threads == 1 ? 4 : 1;
  if (!have_fit_) return false;  // no good fit to compare against
  std::unique_ptr<FairGenTrainer> t;
  const uint64_t failed_before = failed_;
  FitOp(other, &t);
  const bool ok = failed_ == failed_before;
  std::printf("determinism: fit_nll at %u threads %s the %u-thread value\n",
              other, ok ? "equals" : "DIFFERS FROM", w_.threads);
  return ok;
}

void Runner::PrintFingerprint() {
  const uint32_t resolved = std::min<uint32_t>(
      w_.threads, ThreadPool::Global().max_parallelism());
  std::printf(
      "fingerprint {\"cpu_model\": \"%s\", \"nproc\": %u, "
      "\"threads_resolved\": %u, \"kernel_backend\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"g++ %s\", \"git_rev\": "
      "\"%s\"}\n",
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      resolved, nn::kernels::BackendName(nn::kernels::ActiveBackend()),
      PERFBENCH_BUILD_TYPE, __VERSION__, JsonEscape(opt_.rev).c_str());
}

double Runner::TracedFitOp(LayerClock& clock) {
  Rng rng = FitRng(opt_.seed);
  ++attempted_;
  Result<std::vector<FairGenLosses>> history = Status::Internal("not run");
  const Sample s = Timed([&] {
    history = TracedFit(w_.config, in_.graph, in_.sup, rng, clock);
  });
  Status st = CheckFit(history.status(),
                       history.ok() ? *history : std::vector<FairGenLosses>{});
  if (st.ok() && !SameHistory(*history, fit_history_)) {
    st = Status::Internal("traced replay diverged from FairGenTrainer::Fit");
  }
  if (!st.ok()) Fail("traced fit", st);
  return s.wall;
}

double Runner::TracedReleaseOp(LayerClock& clock) {
  if (!start_) {
    start_ = std::make_unique<StartDistribution>(
        in_.graph, StartDistribution::Kind::kDegreeProportional);
  }
  Rng rng = ReleaseRng(opt_.seed, 0);
  ++attempted_;
  Result<Release> r = Status::Internal("not run");
  const Sample s = Timed([&] {
    r = TracedRelease(*releaser_, in_.graph, in_.sup, *start_, rng, clock);
  });
  Status st = r.status();
  if (st.ok()) st = CheckRelease(r->graph, in_.graph);
  if (st.ok()) st = CheckDiscrepancy(r->overall, r->protected_group);
  if (st.ok() && r->graph.ToEdgeList() != minted_edges_[0]) {
    st = Status::Internal(
        "traced replay diverged from FairGenTrainer::Generate");
  }
  if (!st.ok()) Fail("traced release", st);
  return s.wall;
}

int Runner::RunUntraced() {
  // One closed loop that alternates fits and releases, so that every
  // metric samples the whole run: host speed drifts over tens of seconds.
  // Fit workloads release twice from the model just fitted (every fit of a
  // run is the same; a release costs a tenth of a fit or less, and twice
  // as many samples lift its tail percentile above the median).
  // `release` refits its set-up model after each release; that refit only
  // feeds fit_s.
  // One warm-up round first: its ops are checked but not timed, so the
  // samples start with the caches, pages and pool threads warm.
  std::unique_ptr<FairGenTrainer> refit;
  auto round = [&](bool timed) {
    std::vector<Sample> fits, releases;
    if (w_.release_primary) {
      releases.push_back(ReleaseOp(*releaser_));
      fits.push_back(FitOp(w_.threads, &refit));
    } else {
      fits.push_back(FitOp(w_.threads, &fitted_));
      for (int i = 0; i < 2; ++i) releases.push_back(ReleaseOp(*fitted_));
    }
    if (!timed) return;
    fits_.insert(fits_.end(), fits.begin(), fits.end());
    releases_.insert(releases_.end(), releases.begin(), releases.end());
  };
  round(false);
  const double end = WallSeconds() + static_cast<double>(opt_.seconds);
  do {
    round(true);
  } while (WallSeconds() < end || fits_.size() < kMinOps ||
           releases_.size() < kMinOps);
  if (!w_.release_primary) deterministic_ = DeterminismAcrossThreads();
  PrintOpSummary();

  std::vector<double> fit_s, release_s, fit_cpu, release_cpu;
  for (const Sample& s : fits_) {
    fit_s.push_back(s.wall);
    fit_cpu.push_back(s.cpu);
  }
  for (const Sample& s : releases_) {
    release_s.push_back(s.wall);
    release_cpu.push_back(s.cpu);
  }
  const Tail fit_tail = TailOf(fit_s);
  const Tail release_tail = TailOf(release_s);
  for (const auto& [name, tail, v, cpu] :
       {std::tuple("fit_s", fit_tail, fit_s, fit_cpu),
        std::tuple("release_s", release_tail, release_s, release_cpu)}) {
    std::printf("%s: median %.4f s (process CPU %.4f s); %s_tail = p%.1f of "
                "%zu samples (10 beyond); in run order:",
                name, Median(v), Median(cpu), name, tail.percentile,
                tail.samples);
    for (double x : v) std::printf(" %.3f", x);
    std::printf("\n");
  }
  std::vector<double> r_all, rp_all;
  for (const std::optional<Release>& r : minted_) {
    if (!r) continue;
    r_all.push_back(r->overall);
    rp_all.push_back(r->protected_group);
  }
  if (!r_all.empty()) {
    std::printf("releases: mean R %.4f in [%.4f, %.4f], mean R+ %.4f in "
                "[%.4f, %.4f] over %zu independent releases\n",
                MeanOverReleases(&Release::overall),
                *std::min_element(r_all.begin(), r_all.end()),
                *std::max_element(r_all.begin(), r_all.end()),
                MeanOverReleases(&Release::protected_group),
                *std::min_element(rp_all.begin(), rp_all.end()),
                *std::max_element(rp_all.begin(), rp_all.end()), r_all.size());
  }
  const double fit_nll = have_fit_ ? fit_history_.back().j_g : NAN;
  return Finish({
      {"fit_s", Median(fit_s), "s"},
      {"fit_s_tail", fit_tail.value, "s"},
      {"fit_nll", fit_nll, "nats"},
      {"release_s", Median(release_s), "s"},
      {"release_s_tail", release_tail.value, "s"},
      {"setup_s", Median(setup_s_), "s"},
      {"peak_rss_mb", static_cast<double>(memprobe::PeakRssBytes()) / 1e6,
       "MB"},
  });
}

const std::vector<const char*> kFitLayers = {
    "core.prepare", "walk.context",    "walk.node2vec",
    "nn.fwd",       "nn.bwd",          "nn.optim",
    "nn.decode",    "core.self_paced", "core.dataset",
    "core.discriminator"};
const std::vector<const char*> kReleaseLayers = {
    "generate.score", "assemble", "eval.discrepancy"};

double SumMs(const LayerClock& clock, const std::vector<const char*>& layers) {
  double ms = 0.0;
  for (const char* l : layers) ms += clock.Get(l).wall_ms;
  return ms;
}

int Runner::RunTraced(LayerClock& setup_clock) {
  const double start = WallSeconds();
  const double end = start + static_cast<double>(opt_.seconds);
  LayerClock fit_clock, release_clock;
  std::vector<double> traced_fit_s, traced_release_s;
  metrics::Counter& gen_walks =
      metrics::MetricsRegistry::Global().GetCounter("generate.walks");
  metrics::Counter& gen_transitions =
      metrics::MetricsRegistry::Global().GetCounter("generate.transitions");
  uint64_t walks0 = 0, transitions0 = 0;
  auto traced_releases = [&](bool loop) {
    walks0 = gen_walks.value();
    transitions0 = gen_transitions.value();
    do {
      traced_release_s.push_back(TracedReleaseOp(release_clock));
    } while (loop && WallSeconds() < end);
  };

  // Untraced base ops (three fits, kMinOps releases from the checkpoint
  // round trip of the last fit), then traced replays of the workload's own
  // op until the budget is spent, then one traced replay of the other.
  for (size_t i = 0; i < 3; ++i) {
    fits_.push_back(FitOp(w_.threads, &fitted_));
  }
  if (!w_.release_primary) {
    const Status st = Checkpoint(*fitted_, &setup_clock, &releaser_);
    if (!st.ok()) {
      Fail("checkpoint", st);
      releaser_ = std::move(fitted_);
    }
  }
  while (releases_.size() < kMinOps) {
    releases_.push_back(ReleaseOp(*releaser_));
  }
  if (w_.release_primary) {
    traced_releases(true);
    traced_fit_s.push_back(TracedFitOp(fit_clock));
  } else {
    do {
      traced_fit_s.push_back(TracedFitOp(fit_clock));
    } while (WallSeconds() < end);
    traced_releases(false);
  }
  PrintOpSummary();

  const double n_fit = static_cast<double>(traced_fit_s.size());
  const double n_rel = static_cast<double>(traced_release_s.size());
  std::vector<double> fit_s, release_s;
  double fit_cpu = 0.0, fit_wall = 0.0;
  for (const Sample& s : fits_) {
    fit_s.push_back(s.wall);
    fit_cpu += s.cpu;
    fit_wall += s.wall;
  }
  for (const Sample& s : releases_) release_s.push_back(s.wall);
  const double base_fit_ms = Median(fit_s) * 1e3;
  const double base_release_ms = Median(release_s) * 1e3;
  PrintLayerTable("fit", fit_clock, kFitLayers, traced_fit_s.size(),
                  Mean(traced_fit_s) * 1e3, base_fit_ms, fit_s.size());
  PrintLayerTable("release", release_clock, kReleaseLayers,
                  traced_release_s.size(), Mean(traced_release_s) * 1e3,
                  base_release_ms, release_s.size());

  auto per_fit = [&](const char* l) {
    return fit_clock.Get(l).wall_ms / n_fit;
  };
  auto per_rel = [&](const char* l) {
    return release_clock.Get(l).wall_ms / n_rel;
  };
  const LayerStat score = release_clock.Get("generate.score");
  memprobe::Sample("perfbench");
  const double nn_bytes_peak = metrics::MetricsRegistry::Global()
                                   .GetGauge("nn.bytes_peak")
                                   .value();
  const double primary_traced = w_.release_primary ? Median(traced_release_s)
                                                   : Median(traced_fit_s);
  const double primary_base =
      w_.release_primary ? Median(release_s) : Median(fit_s);
  return Finish({
      {"walk.context_ms", per_fit("walk.context"), "ms"},
      {"walk.node2vec_ms", per_fit("walk.node2vec"), "ms"},
      {"nn.fwd_ms", per_fit("nn.fwd"), "ms"},
      {"nn.bwd_ms", per_fit("nn.bwd"), "ms"},
      {"nn.optim_ms", per_fit("nn.optim"), "ms"},
      {"nn.walks", static_cast<double>(fit_clock.Get("nn.fwd").items) / n_fit,
       "count"},
      {"nn.decode_ms", per_fit("nn.decode"), "ms"},
      {"nn.bytes_peak", nn_bytes_peak, "bytes"},
      {"core.prepare_ms", per_fit("core.prepare"), "ms"},
      {"core.self_paced_ms", per_fit("core.self_paced"), "ms"},
      {"core.discriminator_ms", per_fit("core.discriminator"), "ms"},
      {"core.checkpoint_save_ms",
       setup_clock.Get("core.checkpoint_save").wall_ms, "ms"},
      {"core.checkpoint_load_ms",
       setup_clock.Get("core.checkpoint_load").wall_ms, "ms"},
      {"core.checkpoint_bytes", checkpoint_bytes_, "bytes"},
      {"generate.score_ms", per_rel("generate.score"), "ms"},
      {"generate.walks",
       static_cast<double>(gen_walks.value() - walks0) / n_rel, "count"},
      {"generate.transitions",
       static_cast<double>(gen_transitions.value() - transitions0) / n_rel,
       "count"},
      {"assemble.ms", per_rel("assemble"), "ms"},
      {"assemble.fallback_share",
       minted_[0] && minted_[0]->report.assembled_edges
           ? static_cast<double>(minted_[0]->report.fallback_edges) /
                 static_cast<double>(minted_[0]->report.assembled_edges)
           : 0.0,
       "ratio"},
      {"eval.discrepancy_ms", per_rel("eval.discrepancy"), "ms"},
      {"eval.discrepancy_overall", MeanOverReleases(&Release::overall),
       "ratio"},
      {"eval.discrepancy_protected",
       MeanOverReleases(&Release::protected_group), "ratio"},
      {"fit.coverage", SumMs(fit_clock, kFitLayers) / n_fit / base_fit_ms,
       "ratio"},
      {"release.coverage",
       SumMs(release_clock, kReleaseLayers) / n_rel / base_release_ms,
       "ratio"},
      {"fit.cpu_util", fit_cpu / (fit_wall * w_.threads), "ratio"},
      {"generate.cpu_util", score.cpu_ms / (score.wall_ms * w_.threads),
       "ratio"},
      {"trace.overhead", primary_traced / primary_base, "ratio"},
  });
}

void Runner::PrintLayerTable(const char* title, const LayerClock& clock,
                             const std::vector<const char*>& layers,
                             size_t ops, double traced_wall_ms,
                             double base_wall_ms, size_t base_ops) {
  const double n = static_cast<double>(ops);
  std::printf("\nlayer table: %s (%zu traced op%s, mean traced op %.1f ms)\n",
              title, ops, ops == 1 ? "" : "s", traced_wall_ms);
  std::printf("  %-20s %10s %7s %8s %10s %9s %7s\n", "layer", "self_ms",
              "share", "calls", "items", "us/item", "cpu");
  double total = 0.0;
  for (const char* l : layers) {
    const LayerStat s = clock.Get(l);
    total += s.wall_ms;
    std::printf("  %-20s %10.2f %6.1f%% %8.0f %10.0f %9.2f %7.2f\n", l,
                s.wall_ms / n, 100.0 * s.wall_ms / n / traced_wall_ms,
                static_cast<double>(s.calls) / n,
                static_cast<double>(s.items) / n,
                s.items ? 1e3 * s.wall_ms / static_cast<double>(s.items) : 0.0,
                s.wall_ms > 0 ? s.cpu_ms / (s.wall_ms * w_.threads) : 0.0);
  }
  std::printf("  %-20s %10.2f %6.1f%%\n", "(unattributed)",
              traced_wall_ms - total / n,
              100.0 * (traced_wall_ms - total / n) / traced_wall_ms);
  std::printf(
      "  coverage: %.3f = layers %.1f ms / untraced op %.1f ms "
      "(median of %zu untraced ops)\n",
      total / n / base_wall_ms, total / n, base_wall_ms, base_ops);
}

void Runner::PrintOpSummary() {
  std::printf("workload %s: seed %llu, n=%u, m=%llu, |S+|=%zu, threads=%u\n",
              w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
              in_.graph.num_nodes(),
              static_cast<unsigned long long>(in_.graph.num_edges()),
              in_.sup.protected_set.size(), w_.threads);
  std::printf("ops: %zu fits, %zu releases, %llu attempted, %llu failed\n",
              fits_.size(), releases_.size(),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

int Runner::Finish(const std::vector<Metric>& metrics) {
  const bool correct = failed_ == 0 && deterministic_;
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-26s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  const std::string json = ResultJson(correct, attempted_, failed_, metrics);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

int Runner::Run() {
  PrintFingerprint();
  LayerClock setup_clock;
  const Status st = SetUp(&setup_clock);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  return opt_.trace ? RunTraced(setup_clock) : RunUntraced();
}

// -------------------------------------------------------------------- flags

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "fairgen_perfbench: %s\n"
               "usage: fairgen_perfbench --workload fit|fit_serial|release "
               "--seed N --seconds S --trace 0|1 [--threads T] [--tiny] "
               "[--rev REV] [--work-dir DIR]\n",
               error.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  Options opt;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + arg);
    }
    auto parse_uint = [&](uint64_t max, uint64_t* out) {
      Result<uint64_t> v = ParseUint(value, max);
      if (!v.ok()) return false;
      *out = *v;
      return true;
    };
    if (arg == "--workload") {
      opt.workload = value;
      have[0] = true;
    } else if (arg == "--seed") {
      if (!parse_uint(UINT64_MAX, &opt.seed)) return Usage("bad --seed");
      have[1] = true;
    } else if (arg == "--seconds") {
      if (!parse_uint(3600, &opt.seconds) || opt.seconds == 0) {
        return Usage("bad --seconds (want 1..3600)");
      }
      have[2] = true;
    } else if (arg == "--trace") {
      if (!parse_uint(1, &opt.trace)) return Usage("bad --trace (want 0|1)");
      have[3] = true;
    } else if (arg == "--threads") {
      if (!parse_uint(256, &opt.threads)) {
        return Usage("bad --threads (want 0..256)");
      }
    } else if (arg == "--rev") {
      opt.rev = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3]) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Result<Workload> w = MakeWorkload(opt.workload, opt.tiny);
  if (!w.ok()) return Usage(w.status().message());
  Runner runner(std::move(opt), std::move(*w));
  return runner.Run();
}

}  // namespace
}  // namespace fairgen::perfbench

int main(int argc, char** argv) { return fairgen::perfbench::Main(argc, argv); }
