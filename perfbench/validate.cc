#include "validate.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace fairgen::perfbench {

Status CheckFit(const Status& fit_status,
                const std::vector<FairGenLosses>& history) {
  if (!fit_status.ok()) {
    return Status::Internal("Fit failed: " + fit_status.ToString());
  }
  if (history.empty()) return Status::Internal("Fit recorded no losses");
  for (size_t c = 0; c < history.size(); ++c) {
    const FairGenLosses& l = history[c];
    for (double v : {l.j_g, l.j_p, l.j_f, l.j_l, l.j_s}) {
      if (!std::isfinite(v)) {
        return Status::Internal("non-finite loss in cycle " +
                                std::to_string(c));
      }
    }
  }
  return Status::OK();
}

Status CheckReleaseEdges(uint32_t num_nodes, std::span<const Edge> edges,
                         uint32_t want_nodes, uint64_t want_edges) {
  if (num_nodes != want_nodes) {
    return Status::Internal("release has " + std::to_string(num_nodes) +
                            " nodes, want " + std::to_string(want_nodes));
  }
  if (edges.size() != want_edges) {
    return Status::Internal("release has " + std::to_string(edges.size()) +
                            " edges, want " + std::to_string(want_edges));
  }
  std::vector<uint64_t> keys;
  keys.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u >= num_nodes || e.v >= num_nodes) {
      return Status::Internal("edge endpoint out of range");
    }
    if (e.u == e.v) {
      return Status::Internal("self-loop at node " + std::to_string(e.u));
    }
    const uint64_t lo = std::min(e.u, e.v);
    const uint64_t hi = std::max(e.u, e.v);
    keys.push_back(lo * num_nodes + hi);
  }
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    return Status::Internal("duplicate edge {" +
                            std::to_string(*dup / num_nodes) + "," +
                            std::to_string(*dup % num_nodes) + "}");
  }
  return Status::OK();
}

Status CheckRelease(const Graph& release, const Graph& original) {
  const std::vector<Edge> edges = release.ToEdgeList();
  if (edges.size() != release.num_edges()) {
    return Status::Internal("CSR edge count disagrees with its edge list");
  }
  return CheckReleaseEdges(release.num_nodes(), edges, original.num_nodes(),
                           original.num_edges());
}

Status CheckDiscrepancy(double overall, double protected_group) {
  if (!std::isfinite(overall) || !std::isfinite(protected_group)) {
    return Status::Internal("non-finite discrepancy");
  }
  return Status::OK();
}

}  // namespace fairgen::perfbench
