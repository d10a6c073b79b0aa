// Smoke + golden-schema test for the perf-regression harness: runs the
// real bench_pipeline binary at a tiny scale (one repetition, two cheap
// scenarios), validates the emitted BENCH_pipeline.json against the
// checked-in key schema in tests/golden/bench_pipeline_schema.txt, and
// exercises both sides of the --compare gate (self-compare passes, an
// impossibly fast baseline trips the regression exit code).
//
// The binary and schema paths are injected by tests/CMakeLists.txt as the
// FAIRGEN_BENCH_PIPELINE_PATH / FAIRGEN_BENCH_SCHEMA_PATH compile
// definitions. Registered under the `bench-smoke` ctest label.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/strings.h"
#include "test_util.h"

namespace fairgen::bench {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// std::system returns a wait status; the harness's exit codes (0 ok,
// 1 regression, 2 error) live in WEXITSTATUS.
int RunCommand(const std::string& command) {
  int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class BenchPipelineSmokeTest : public testing::Test {
 protected:
  std::string TempPath(const std::string& suffix) {
    return temp_dir_.File(suffix);
  }

  std::string BenchCommand(const std::string& extra_flags,
                           const std::string& scenarios =
                               "walk_sampling,assembly") {
    std::string cmd = std::string(FAIRGEN_BENCH_PIPELINE_PATH) +
                      " --scale=0.01 --repetitions=1 --warmup=0 --seed=7 ";
    if (!scenarios.empty()) cmd += "--scenarios=" + scenarios + " ";
    return cmd + extra_flags + " > /dev/null 2>&1";
  }

  testing_util::ScopedTempDir temp_dir_;
};

TEST_F(BenchPipelineSmokeTest, EmitsSchemaCompleteResultJson) {
  std::string out_path = TempPath("result.json");
  ASSERT_EQ(RunCommand(BenchCommand("--out=" + out_path)), 0);

  std::string text = ReadFileOrDie(out_path);
  ASSERT_FALSE(text.empty());

  // Every key in the golden schema must be present.
  std::string schema = ReadFileOrDie(FAIRGEN_BENCH_SCHEMA_PATH);
  size_t keys_checked = 0;
  for (const std::string& raw_line : StrSplit(schema, '\n')) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    std::string quoted = "\"" + std::string(line) + "\"";
    EXPECT_NE(text.find(quoted), std::string::npos)
        << "result JSON is missing schema key " << line;
    ++keys_checked;
  }
  EXPECT_GE(keys_checked, 14u) << "schema file looks truncated";

  // Structural checks through the repo's own JSON reader.
  auto doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetDouble("schema_version"), 2.0);
  EXPECT_EQ(doc->GetDouble("seed"), 7.0);
  // v2: the process-global peak is a run-level field ...
  EXPECT_GT(doc->GetDouble("peak_rss_bytes", 0.0), 0.0);
  const json::Value* scenarios = doc->Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  ASSERT_EQ(scenarios->AsArray().size(), 2u);
  EXPECT_EQ(scenarios->AsArray()[0].GetString("scenario"), "walk_sampling");
  EXPECT_EQ(scenarios->AsArray()[1].GetString("scenario"), "assembly");
  for (const json::Value& s : scenarios->AsArray()) {
    EXPECT_GE(s.GetDouble("median_ms", -1.0), 0.0);
    EXPECT_GT(s.GetDouble("items", 0.0), 0.0);
    // ... and scenarios record their own peak growth, which is legally 0
    // when the scenario fits inside an earlier high-water mark.
    EXPECT_GE(s.GetDouble("rss_delta_bytes", -1.0), 0.0);
    EXPECT_EQ(s.GetDouble("repetitions"), 1.0);
  }
}

TEST_F(BenchPipelineSmokeTest, SelfCompareIsNotARegression) {
  std::string baseline_path = TempPath("baseline.json");
  ASSERT_EQ(RunCommand(BenchCommand("--out=" + baseline_path)), 0);
  std::string out_path = TempPath("candidate.json");
  // Same workload against its own recorded numbers: wall-time jitter is
  // real, so give the gate a generous threshold; the point is the exit
  // code plumbing, not timing stability on a loaded CI box.
  EXPECT_EQ(RunCommand(BenchCommand("--out=" + out_path + " --compare=" +
                                    baseline_path +
                                    " --regress-threshold=100.0")),
            0);
}

TEST_F(BenchPipelineSmokeTest, ImpossiblyFastBaselineTripsTheGate) {
  std::string baseline_path = TempPath("tiny_baseline.json");
  {
    std::ofstream out(baseline_path);
    out << R"({
  "schema_version": 2,
  "peak_rss_bytes": 1,
  "git_rev": "test",
  "seed": 7,
  "threads": 0,
  "scale": 0.01,
  "warmup": 0,
  "repetitions": 1,
  "scenarios": [
    {"scenario": "walk_sampling", "median_ms": 1e-06, "iqr_ms": 0,
     "items": 1, "items_per_s": 1, "rss_delta_bytes": 1, "repetitions": 1},
    {"scenario": "assembly", "median_ms": 1e-06, "iqr_ms": 0,
     "items": 1, "items_per_s": 1, "rss_delta_bytes": 1, "repetitions": 1}
  ]
})";
  }
  std::string out_path = TempPath("regressed.json");
  EXPECT_EQ(RunCommand(BenchCommand("--out=" + out_path + " --compare=" +
                                    baseline_path)),
            1)
      << "a real run can never beat a 1ns baseline; the gate must trip";
}

// An empty --scenarios filter means "run everything": a default run must
// emit one result per scenario, never an empty-but-valid document. (This
// pins a real bug: splitting the empty filter string used to yield one
// empty token, which disabled every scenario.)
TEST_F(BenchPipelineSmokeTest, DefaultRunCoversEveryScenario) {
  std::string out_path = TempPath("default.json");
  ASSERT_EQ(RunCommand(BenchCommand("--out=" + out_path, /*scenarios=*/"")),
            0);
  auto doc = json::Parse(ReadFileOrDie(out_path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* scenarios = doc->Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  EXPECT_EQ(scenarios->AsArray().size(), 9u)
      << "a run without --scenarios must cover every scenario";
}

TEST_F(BenchPipelineSmokeTest, UnknownScenarioNameIsAnError) {
  EXPECT_EQ(RunCommand(BenchCommand("--out=" + TempPath("typo.json"),
                                    "walk_sampling,no_such_scenario")),
            2);
}

// Malformed numeric flags must be exit-2 errors in both the harness's own
// parser (--warmup/--repetitions) and the shared bench_util parser
// (--seed/--threads/...) — the old null-endptr strtoul calls silently
// parsed these to 0 or wrapped negatives to huge values.
TEST_F(BenchPipelineSmokeTest, MalformedNumericFlagsAreErrors) {
  EXPECT_EQ(RunCommand(BenchCommand("--out= --warmup=abc")), 2);
  EXPECT_EQ(RunCommand(BenchCommand("--out= --repetitions=2x")), 2);
  EXPECT_EQ(RunCommand(BenchCommand("--out= --seed=junk")), 2);
  EXPECT_EQ(RunCommand(BenchCommand("--out= --threads=-2")), 2);
  EXPECT_EQ(RunCommand(BenchCommand(
                "--out= --seed=99999999999999999999999")),
            2);
}

TEST_F(BenchPipelineSmokeTest, MissingBaselineIsAnError) {
  EXPECT_EQ(RunCommand(BenchCommand(
                "--out=" + TempPath("err.json") +
                " --compare=/nonexistent/fairgen_baseline.json")),
            2);
}

}  // namespace
}  // namespace fairgen::bench
