// Golden regression tests: the exact correspondences, per-pair scores,
// root QoM and quality-vs-gold metrics of the default QMatch configuration
// on the five paper domains are snapshotted under data/expected/*.qom.
// Any behaviour change — intended or not — shows up as a readable diff.
//
// Every snapshot gates two implementations: the test-only recursive Fig. 3
// oracle (qmatch_oracle.h) writes it under --update-golden, and the
// production kernel (DESIGN.md §13) is always checked against it — the
// bit-identity contract expressed as a regression suite.
//
// To regenerate after an *intentional* scoring change:
//   ./golden_regression_test --update-golden
// then review the data/expected diff like any other code change.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "common/string_util.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "eval/metrics.h"
#include "qmatch_oracle.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch {

// Set from main before InitGoogleTest; not in the anonymous namespace so
// main (outside qmatch) can name it.
bool g_update_golden = false;

namespace {

std::string GoldenPath(const std::string& task_name) {
  return std::string(QMATCH_SOURCE_DIR) + "/data/expected/" + task_name +
         ".qom";
}

/// Renders the observable outcome of one match run. Scores print with 12
/// significant digits — far below the bit-identity the kernel differential
/// tests enforce, but tight enough that any real scoring change moves the
/// snapshot.
std::string Snapshot(const std::string& task_name, const xsd::Schema& source,
                     const xsd::Schema& target, const MatchResult& result,
                     const eval::QualityMetrics* metrics) {
  std::string out;
  out += StrFormat("# QMatch golden snapshot — task %s (default config)\n",
                   task_name.c_str());
  out += StrFormat("schema %s -> %s\n", source.name().c_str(),
                   target.name().c_str());
  out += StrFormat("schema_qom %.12g\n", result.schema_qom);
  if (metrics != nullptr) {
    out += StrFormat(
        "quality precision=%.6f recall=%.6f overall=%.6f f1=%.6f "
        "(%zu/%zu/%zu)\n",
        metrics->precision, metrics->recall, metrics->overall, metrics->f1,
        metrics->true_positives, metrics->returned, metrics->real);
  }
  out += StrFormat("correspondences %zu\n", result.correspondences.size());
  // MatchResult order is deterministic (assignment iterates sources in
  // preorder), so the snapshot needs no extra sorting.
  for (const Correspondence& c : result.correspondences) {
    out += StrFormat("%s -> %s %.12g\n", c.source->Path().c_str(),
                     c.target->Path().c_str(), c.score);
  }
  return out;
}

/// Gates `snapshot` against the golden file for `task_name` (or rewrites it
/// under --update-golden).
void CheckGolden(const std::string& task_name, const std::string& snapshot,
                 const std::string& detail) {
  const std::string path = GoldenPath(task_name);
  if (g_update_golden) {
    // Atomic: an interrupted --update-golden run must not leave a torn
    // golden file that later runs diff against.
    ASSERT_TRUE(WriteFileAtomic(path, snapshot).ok()) << path;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  Result<std::string> golden = ReadFile(path);
  ASSERT_TRUE(golden.ok())
      << path << " missing — run golden_regression_test --update-golden "
      << "and commit data/expected/";
  EXPECT_EQ(golden.value(), snapshot)
      << "snapshot drift for task " << task_name << " (" << detail << ")"
      << "; if intentional, regenerate with --update-golden and review the "
      << "data/expected diff";
}

/// The oracle's snapshot is written under --update-golden (or checked);
/// the kernel's is always checked, so a golden the kernel cannot reproduce
/// fails the update run itself.
void CheckOracleAndKernel(const std::string& task_name,
                          const std::string& oracle_snapshot,
                          const std::string& kernel_snapshot) {
  CheckGolden(task_name, oracle_snapshot, "oracle");
  const bool saved = g_update_golden;
  g_update_golden = false;
  CheckGolden(task_name, kernel_snapshot, "kernel");
  g_update_golden = saved;
}

class GoldenRegressionTest : public testing::TestWithParam<size_t> {};

TEST_P(GoldenRegressionTest, MatchesSnapshot) {
  const datagen::MatchTask& task = datagen::Tasks()[GetParam()];
  const xsd::Schema source = task.source();
  const xsd::Schema target = task.target();
  const MatchResult oracle = test::QMatchOracle().Run(source, target).result;
  const MatchResult kernel = core::QMatch().Match(source, target);
  const eval::QualityMetrics oracle_metrics =
      eval::Evaluate(oracle, task.gold());
  const eval::QualityMetrics kernel_metrics =
      eval::Evaluate(kernel, task.gold());
  CheckOracleAndKernel(
      task.name, Snapshot(task.name, source, target, oracle, &oracle_metrics),
      Snapshot(task.name, source, target, kernel, &kernel_metrics));
}

INSTANTIATE_TEST_SUITE_P(
    PaperDomains, GoldenRegressionTest, testing::Range<size_t>(0, 5),
    [](const testing::TestParamInfo<size_t>& info) {
      return datagen::Tasks()[info.param].name;
    });

TEST(GoldenRegressionSetupTest, CoversTheFivePaperDomains) {
  ASSERT_EQ(datagen::Tasks().size(), 5u);
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    EXPECT_FALSE(task.gold().empty()) << task.name;
  }
}

TEST(GoldenRegressionTest, GeneratedProteinScalePair) {
  // Seed-pinned synthetic pair at the paper's Protein shape (231-element
  // source vs 3753-element target, protein vocabulary) — the kernel's
  // headline workload, snapshotted so scoring regressions at scale are
  // caught even where no hand-made gold standard exists.
  datagen::GeneratorOptions small;
  small.seed = 20260808;
  small.element_count = 231;
  small.max_depth = 6;
  small.domain = datagen::Domain::kProtein;
  small.name = "GenPirScale";
  datagen::GeneratorOptions big;
  big.seed = 20260809;
  big.element_count = 3753;
  big.max_depth = 7;
  big.domain = datagen::Domain::kProtein;
  big.name = "GenPdbScale";
  const xsd::Schema source = datagen::GenerateSchema(small);
  const xsd::Schema target = datagen::GenerateSchema(big);

  CheckOracleAndKernel(
      "GeneratedProteinScale",
      Snapshot("GeneratedProteinScale", source, target,
               test::QMatchOracle().Run(source, target).result, nullptr),
      Snapshot("GeneratedProteinScale", source, target,
               core::QMatch().Match(source, target), nullptr));
}

}  // namespace
}  // namespace qmatch

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      qmatch::g_update_golden = true;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
