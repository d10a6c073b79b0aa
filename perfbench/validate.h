// Output checks of the FairGen benchmark. Every measured operation is
// passed through one of these; a non-OK result marks the operation as
// failed (counted, never dropped).
#ifndef FAIRGEN_PERFBENCH_VALIDATE_H_
#define FAIRGEN_PERFBENCH_VALIDATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/trainer.h"
#include "graph/graph.h"

namespace fairgen::perfbench {

/// A fit is good when `Fit` returned OK and every recorded loss component
/// of every self-paced cycle is finite.
Status CheckFit(const Status& fit_status,
                const std::vector<FairGenLosses>& history);

/// A release edge list is good when it spans exactly `want_nodes` nodes,
/// holds exactly `want_edges` edges, and has no self-loop, no endpoint out
/// of range and no duplicate undirected edge.
Status CheckReleaseEdges(uint32_t num_nodes, std::span<const Edge> edges,
                         uint32_t want_nodes, uint64_t want_edges);

/// CheckReleaseEdges on a generated graph against the original: same node
/// count, same edge count, simple. Also checks that the CSR edge count
/// agrees with the edge list the graph enumerates.
Status CheckRelease(const Graph& release, const Graph& original);

/// Both discrepancies (R and R+) must be finite.
Status CheckDiscrepancy(double overall, double protected_group);

}  // namespace fairgen::perfbench

#endif  // FAIRGEN_PERFBENCH_VALIDATE_H_
