// Unit tests of the benchmark's output checks.
#include "validate.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace fairgen::perfbench {
namespace {

// A 4-node path 0-1-2-3 plus the chord 0-2: 4 edges.
std::vector<Edge> Good() { return {{0, 1}, {1, 2}, {2, 3}, {0, 2}}; }

TEST(CheckReleaseEdges, AcceptsSimpleGraphWithTheOriginalsCounts) {
  EXPECT_TRUE(CheckReleaseEdges(4, Good(), 4, 4).ok());
}

TEST(CheckReleaseEdges, RejectsDuplicateEdge) {
  std::vector<Edge> edges = Good();
  edges.back() = {1, 0};  // {0,1} again, reversed
  const Status st = CheckReleaseEdges(4, edges, 4, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate"), std::string::npos);
}

TEST(CheckReleaseEdges, RejectsWrongEdgeCount) {
  std::vector<Edge> edges = Good();
  edges.pop_back();
  const Status st = CheckReleaseEdges(4, edges, 4, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("edges"), std::string::npos);
  EXPECT_FALSE(CheckReleaseEdges(4, Good(), 4, 5).ok());
}

TEST(CheckReleaseEdges, RejectsSelfLoopWrongNodeCountAndOutOfRange) {
  std::vector<Edge> edges = Good();
  edges.back() = {3, 3};
  EXPECT_FALSE(CheckReleaseEdges(4, edges, 4, 4).ok());
  EXPECT_FALSE(CheckReleaseEdges(5, Good(), 4, 4).ok());
  edges.back() = {0, 9};
  EXPECT_FALSE(CheckReleaseEdges(4, edges, 4, 4).ok());
}

TEST(CheckRelease, ComparesAgainstTheOriginal) {
  Result<Graph> original = Graph::FromEdges(4, Good());
  ASSERT_TRUE(original.ok());
  EXPECT_TRUE(CheckRelease(*original, *original).ok());
  Result<Graph> smaller = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(smaller.ok());
  EXPECT_FALSE(CheckRelease(*smaller, *original).ok());
  Result<Graph> wider = Graph::FromEdges(5, Good());
  ASSERT_TRUE(wider.ok());
  EXPECT_FALSE(CheckRelease(*wider, *original).ok());
}

TEST(CheckFit, RejectsFailedStatusEmptyAndNonFiniteHistory) {
  FairGenLosses l;
  l.j_g = 1.5;
  EXPECT_TRUE(CheckFit(Status::OK(), {l}).ok());
  EXPECT_FALSE(CheckFit(Status::Internal("boom"), {l}).ok());
  EXPECT_FALSE(CheckFit(Status::OK(), {}).ok());
  FairGenLosses bad = l;
  bad.j_f = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(CheckFit(Status::OK(), {l, bad}).ok());
  bad = l;
  bad.j_g = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CheckFit(Status::OK(), {bad}).ok());
}

TEST(CheckDiscrepancy, RejectsNonFinite) {
  EXPECT_TRUE(CheckDiscrepancy(0.2, 0.3).ok());
  EXPECT_FALSE(CheckDiscrepancy(NAN, 0.3).ok());
  EXPECT_FALSE(CheckDiscrepancy(0.2, INFINITY).ok());
}

}  // namespace
}  // namespace fairgen::perfbench
