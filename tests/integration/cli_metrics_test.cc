// Golden-schema regression test for `fairgen ... --metrics-out=<path>`:
// runs the real CLI binary on a small seeded demo (edges + few-shot labels
// + protected set) and validates the emitted metrics JSON against the
// checked-in key schema in tests/golden/metrics_schema.txt. A missing key
// means an instrumentation point was renamed or dropped — a breaking
// change for telemetry consumers that must be made deliberately (update
// the schema file in the same commit).
//
// The CLI and schema paths are injected by tests/CMakeLists.txt as the
// FAIRGEN_CLI_PATH / FAIRGEN_METRICS_SCHEMA_PATH compile definitions.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "data/synthetic.h"
#include "graph/edgelist.h"
#include "test_util.h"

namespace fairgen {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class CliMetricsTest : public testing::Test {
 protected:
  std::string TempPath(const std::string& suffix) {
    return temp_dir_.File(suffix);
  }

  // Seeded demo inputs: a small planted-partition graph with labels and a
  // protected group, written the way a user would invoke the CLI.
  void WriteDemoInputs() {
    Rng rng(19);
    SyntheticGraphConfig cfg;
    cfg.num_nodes = 60;
    cfg.num_edges = 280;
    cfg.num_classes = 2;
    cfg.protected_size = 12;
    auto data = GenerateSynthetic(cfg, rng);
    ASSERT_TRUE(data.ok()) << data.status().ToString();

    edges_path_ = TempPath("edges.txt");
    ASSERT_TRUE(SaveEdgeList(data->graph, edges_path_).ok());

    labels_path_ = TempPath("labels.txt");
    {
      std::ofstream out(labels_path_);
      std::vector<int32_t> few_shot = FewShotLabels(*data, 5, rng);
      for (NodeId v = 0; v < data->graph.num_nodes(); ++v) {
        if (few_shot[v] != kUnlabeled) out << v << ' ' << few_shot[v] << '\n';
      }
    }
    protected_path_ = TempPath("protected.txt");
    {
      std::ofstream out(protected_path_);
      for (NodeId v : data->protected_set) out << v << '\n';
    }
  }

  // `fairgen <command>` on the demo inputs with a quick fairgen fit.
  std::string DemoCommand(const std::string& command) const {
    return std::string(FAIRGEN_CLI_PATH) + " " + command + " " +
           edges_path_ + " --model=fairgen --labels=" + labels_path_ +
           " --protected=" + protected_path_ +
           " --seed=7 --walks=60 --cycles=2 --epochs=1";
  }

  testing_util::ScopedTempDir temp_dir_;
  std::string edges_path_;
  std::string labels_path_;
  std::string protected_path_;
};

TEST_F(CliMetricsTest, GenerateEmitsEverySchemaKey) {
  ASSERT_NO_FATAL_FAILURE(WriteDemoInputs());

  std::string out_path = TempPath("generated.txt");
  std::string metrics_path = TempPath("metrics.json");
  std::string trace_path = TempPath("trace.json");

  std::string command = DemoCommand("generate") + " --out=" + out_path +
                        " --metrics-out=" + metrics_path +
                        " --trace-out=" + trace_path + " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "CLI failed: " << command;

  // The run must produce a real graph, the metrics JSON, and the trace.
  auto generated = LoadEdgeList(out_path);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_GT(generated->num_edges(), 0u);

  std::string json = ReadFileOrDie(metrics_path);
  ASSERT_FALSE(json.empty());

  // Every key in the golden schema must be present in the JSON.
  std::string schema = ReadFileOrDie(FAIRGEN_METRICS_SCHEMA_PATH);
  size_t keys_checked = 0;
  for (const std::string& raw_line : StrSplit(schema, '\n')) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    std::string quoted = "\"" + std::string(line) + "\"";
    EXPECT_NE(json.find(quoted), std::string::npos)
        << "metrics JSON is missing schema key " << line;
    ++keys_checked;
  }
  EXPECT_GE(keys_checked, 15u) << "schema file looks truncated";

  // Acceptance spot-checks: the training curves carry actual points (a
  // key with an empty series would pass the contains() check above).
  EXPECT_EQ(json.find("\"trainer.nll\": []"), std::string::npos)
      << "per-epoch NLL series is empty";
  EXPECT_EQ(json.find("\"trainer.self_paced_lambda\": []"),
            std::string::npos);
  EXPECT_EQ(json.find("\"trainer.parity_regularizer\": []"),
            std::string::npos);

  // --trace-out enables span collection; the run must record spans.
  std::string trace = ReadFileOrDie(trace_path);
  EXPECT_NE(trace.find("\"trainer.fit\""), std::string::npos);
  EXPECT_NE(trace.find("\"trainer.generate\""), std::string::npos);
}

TEST_F(CliMetricsTest, StatsCommandWritesMetricsToo) {
  Rng rng(23);
  SyntheticGraphConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_edges = 160;
  auto data = GenerateSynthetic(cfg, rng);
  ASSERT_TRUE(data.ok());
  std::string edges_path = TempPath("stats_edges.txt");
  ASSERT_TRUE(SaveEdgeList(data->graph, edges_path).ok());
  std::string metrics_path = TempPath("stats_metrics.json");

  std::string command = std::string(FAIRGEN_CLI_PATH) + " stats " +
                        edges_path + " --metrics-out=" + metrics_path +
                        " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::string json = ReadFileOrDie(metrics_path);
  // stats runs the MMD-free metric path; the registry document must still
  // be well-formed and carry the four sections.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
}

// The CLI steps run one after another, each with the whole pool; what
// they write must not depend on --threads. generate's edge list and its
// --save-model checkpoint are compared byte for byte.
TEST_F(CliMetricsTest, GenerateWithSaveModelIsThreadCountInvariant) {
  ASSERT_NO_FATAL_FAILURE(WriteDemoInputs());
  std::vector<std::string> outs, models;
  for (int threads : {1, 4}) {
    const std::string tag = "t" + std::to_string(threads);
    const std::string out_path = TempPath(tag + "_generated.txt");
    const std::string model_path = TempPath(tag + "_model.fgckpt");
    const std::string command =
        DemoCommand("generate") + " --threads=" + std::to_string(threads) +
        " --out=" + out_path + " --save-model=" + model_path +
        " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << "CLI failed: " << command;
    outs.push_back(ReadFileOrDie(out_path));
    models.push_back(ReadFileOrDie(model_path));
  }
  ASSERT_FALSE(outs[0].empty());
  ASSERT_FALSE(models[0].empty());
  EXPECT_EQ(outs[0], outs[1]) << "--out differs between 1 and 4 threads";
  EXPECT_EQ(models[0], models[1])
      << "--save-model checkpoint differs between 1 and 4 threads";
}

// evaluate's overall R and protected R+ table, printed to stdout, is the
// same at 1 and 4 threads.
TEST_F(CliMetricsTest, EvaluateProtectedTableIsThreadCountInvariant) {
  ASSERT_NO_FATAL_FAILURE(WriteDemoInputs());
  std::vector<std::string> tables;
  for (int threads : {1, 4}) {
    const std::string stdout_path =
        TempPath("t" + std::to_string(threads) + "_evaluate.txt");
    const std::string command = DemoCommand("evaluate") + " --threads=" +
                                std::to_string(threads) + " > " +
                                stdout_path + " 2> /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << "CLI failed: " << command;
    tables.push_back(ReadFileOrDie(stdout_path));
  }
  EXPECT_NE(tables[0].find("overall R"), std::string::npos) << tables[0];
  EXPECT_NE(tables[0].find("protected R+"), std::string::npos) << tables[0];
  EXPECT_EQ(tables[0], tables[1])
      << "evaluate table differs between 1 and 4 threads";
}

}  // namespace
}  // namespace fairgen
