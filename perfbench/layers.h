// Layer attribution for the FairGen benchmark.
//
// The traced run times each layer from outside the library: it replays
// `FairGenTrainer::Fit` and `FairGenTrainer::Generate` through the public
// calls of the walk, nn, core, generators, assembler and stats layers, in
// the trainer's order and with the trainer's RNG streams, and wraps every
// call in a `LayerClock` scope. The replays are checked against the real
// calls bit for bit (loss history, edge list), so the attributed time is
// the time of the program that the untraced run measures.
#ifndef FAIRGEN_PERFBENCH_LAYERS_H_
#define FAIRGEN_PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/assembler.h"
#include "core/trainer.h"
#include "graph/graph.h"
#include "graph/transition.h"
#include "rng/rng.h"

namespace fairgen::perfbench {

/// Process CPU seconds (all threads) since an arbitrary origin.
double ProcessCpuSeconds();

/// Seconds on the steady clock since an arbitrary origin.
double WallSeconds();

/// Wall and process-CPU time of one layer, summed over its calls.
struct LayerStat {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  uint64_t calls = 0;
  uint64_t items = 0;  ///< work units (walks, transitions, edges, ...)
};

/// Per-layer time accumulator. The scopes never nest, so a layer's self
/// time is its wall time.
class LayerClock {
 public:
  /// Runs `f()` and charges its wall and process-CPU time and `items` work
  /// units to `layer`.
  template <typename F>
  auto Time(const char* layer, uint64_t items, F&& f) {
    Scope scope(this, layer, items);
    return f();
  }

  /// The stat of `layer` (zero if it never ran).
  LayerStat Get(const std::string& layer) const;

 private:
  class Scope {
   public:
    Scope(LayerClock* clock, const char* layer, uint64_t items)
        : clock_(clock), layer_(layer), items_(items),
          wall0_(WallSeconds()), cpu0_(ProcessCpuSeconds()) {}
    ~Scope() {
      LayerStat& s = clock_->stats_[layer_];
      s.wall_ms += (WallSeconds() - wall0_) * 1e3;
      s.cpu_ms += (ProcessCpuSeconds() - cpu0_) * 1e3;
      s.calls += 1;
      s.items += items_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
    const char* layer_;
    uint64_t items_;
    double wall0_;
    double cpu0_;
  };

  std::map<std::string, LayerStat> stats_;
};

/// Few-shot supervision of a workload graph.
struct Supervision {
  std::vector<int32_t> labels;  ///< kUnlabeled or a class id per node
  std::vector<NodeId> protected_set;
  uint32_t num_classes = 0;
};

/// Replays `FairGenTrainer::SetSupervision` + `Fit(graph, rng)` through
/// public calls, charging layers `core.prepare`, `walk.context`,
/// `walk.node2vec`, `nn.fwd`, `nn.bwd`, `nn.optim`, `nn.decode`,
/// `core.self_paced`, `core.dataset` and `core.discriminator`.
/// `nn.fwd` items count the walks trained. Returns the loss history, which
/// equals the real Fit's bit for bit. Supports the configurations the
/// workloads use: full variant, supervision present, negatives refreshed,
/// no checkpointing.
Result<std::vector<FairGenLosses>> TracedFit(const FairGenConfig& config,
                                             const Graph& graph,
                                             const Supervision& sup,
                                             Rng& rng, LayerClock& clock);

/// One release: a generated graph and its audit.
struct Release {
  Graph graph{Graph::Empty(0)};
  AssemblyReport report;
  double overall = 0.0;          ///< mean R (Eq. 15)
  double protected_group = 0.0;  ///< mean R+ (Eq. 16)
};

/// R and R+ of `release` against `original`, averaged over the Table-II
/// metrics.
Status Audit(const Graph& original, const std::vector<NodeId>& protected_set,
             Release* release);

/// Replays `FairGenTrainer::Generate(rng)` on a fitted trainer through
/// public calls, then audits the result. Charges `generate.score`
/// (walk sampling into the edge-score accumulator; items = transitions),
/// `assemble` (items = assembled edges) and `eval.discrepancy`. `start`
/// must be the degree-proportional start table of `graph`. The graph
/// equals the real Generate's for the same rng state.
Result<Release> TracedRelease(const FairGenTrainer& trainer,
                              const Graph& graph, const Supervision& sup,
                              const StartDistribution& start, Rng& rng,
                              LayerClock& clock);

}  // namespace fairgen::perfbench

#endif  // FAIRGEN_PERFBENCH_LAYERS_H_
