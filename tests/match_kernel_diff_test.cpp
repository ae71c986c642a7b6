// Kernel-versus-oracle layer (DESIGN.md §13): the production table fill
// (core::QMatch over the SoA kernel's compact table, with the per-axis
// values recomputed on demand by Analysis::Pair) must agree *bit for bit*
// with the test-only recursive Fig. 3 oracle (qmatch_oracle.h) — every
// per-axis score, classification, coverage, category and weighted total,
// for every pair, plus the schema QoM and the correspondences, on every
// input, in every MatchMode, sequential and pool-parallel, and (under
// fault injection) for the completed rows of a cancelled or
// deadline-stopped fill.
//
// Coverage: all ordered pairs of the shipped small paper schemas, the full
// Protein task (PIR 231 x PDB 3753 — the paper's largest), and a seeded
// generated population spanning 10..4000 nodes with perturbed partners.
// The sanitizer configurations (scripts/ci.sh asan/ubsan/tsan) run this
// same binary.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/file_util.h"
#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "fault/failpoint.h"
#include "qmatch_oracle.h"
#include "xsd/parser.h"
#include "xsd/schema.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch::core {
namespace {

using test::OracleRun;
using test::QMatchOracle;

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Field-for-field bit equality of one table cell.
void ExpectPairIdentical(const PairQoM& got, const PairQoM& want,
                         const std::string& context) {
  EXPECT_TRUE(BitEqual(got.label, want.label)) << context << " label";
  EXPECT_TRUE(BitEqual(got.properties, want.properties))
      << context << " properties";
  EXPECT_TRUE(BitEqual(got.level, want.level)) << context << " level";
  EXPECT_TRUE(BitEqual(got.children, want.children))
      << context << " children";
  EXPECT_TRUE(BitEqual(got.qom, want.qom)) << context << " qom";
  EXPECT_EQ(got.label_cls, want.label_cls) << context << " label_cls";
  EXPECT_EQ(got.properties_cls, want.properties_cls)
      << context << " properties_cls";
  EXPECT_EQ(got.level_cls, want.level_cls) << context << " level_cls";
  EXPECT_EQ(got.coverage, want.coverage) << context << " coverage";
  EXPECT_EQ(got.children_all_exact, want.children_all_exact)
      << context << " children_all_exact";
  EXPECT_EQ(got.category, want.category) << context << " category";
}

/// Extracted-output equivalence: the mapping set (source, target, score in
/// order), the schema QoM, and the recorded mode.
void ExpectResultsIdentical(const MatchResult& got, const MatchResult& want,
                            const std::string& context) {
  EXPECT_TRUE(BitEqual(got.schema_qom, want.schema_qom)) << context;
  EXPECT_EQ(got.mode, want.mode) << context;
  ASSERT_EQ(got.correspondences.size(), want.correspondences.size())
      << context;
  for (size_t k = 0; k < got.correspondences.size(); ++k) {
    EXPECT_EQ(got.correspondences[k].source, want.correspondences[k].source)
        << context << " corr #" << k;
    EXPECT_EQ(got.correspondences[k].target, want.correspondences[k].target)
        << context << " corr #" << k;
    EXPECT_TRUE(BitEqual(got.correspondences[k].score,
                         want.correspondences[k].score))
        << context << " corr #" << k;
  }
}

/// Full-table equivalence, cell by cell via Analysis::Pair.
void ExpectTableMatchesOracle(const QMatch::Analysis& analysis,
                              const OracleRun& oracle,
                              const std::string& context) {
  for (size_t i = 0; i < oracle.sources.size(); ++i) {
    for (size_t j = 0; j < oracle.targets.size(); ++j) {
      const std::optional<PairQoM> got =
          analysis.Pair(oracle.sources[i], oracle.targets[j]);
      ASSERT_TRUE(got.has_value()) << context;
      ExpectPairIdentical(*got, oracle.at(i, j),
                          context + " pair (" + std::to_string(i) + "," +
                              std::to_string(j) + ")");
      if (::testing::Test::HasFailure()) return;  // one bad cell is enough
    }
  }
  ExpectPairIdentical(analysis.Root(), oracle.at(0, 0), context + " root");
}

TreeMatchOptions ModeOptions(MatchMode mode) {
  TreeMatchOptions options;
  options.mode = mode;
  return options;
}

/// Runs the production fill over one pair under one mode/pool and checks
/// full equivalence with the oracle (table + extracted result).
void DiffOnePair(const QMatch& matcher, const QMatchOracle& oracle,
                 const xsd::Schema& source, const xsd::Schema& target,
                 MatchMode mode, ThreadPool* pool,
                 const std::string& context) {
  const OracleRun want = oracle.Run(source, target, mode);
  const QMatch::Analysis got =
      matcher.Analyze(source, target, pool, nullptr, ModeOptions(mode));
  ASSERT_EQ(got.stop_reason(), StopReason::kNone) << context;
  ASSERT_EQ(got.completed_rows(), got.total_rows()) << context;
  ExpectResultsIdentical(got.result(), want.result, context);
  ExpectTableMatchesOracle(got, want, context);
}

const std::vector<std::string>& SmallCorpusFiles() {
  // Every shipped schema except the two Protein giants (they get their own
  // dedicated full-scale test below; all-pairs over them would dominate
  // the suite's runtime for no added kernel coverage).
  static const std::vector<std::string> kFiles = {
      "Article.xsd",       "Book.xsd",    "DCMDItem.xsd", "DCMDOrder.xsd",
      "Human.xsd",         "Library.xsd", "PO1.xsd",      "PO2.xsd",
      "XBenchCatalog.xsd", "XBenchOrder.xsd"};
  return kFiles;
}

std::vector<xsd::Schema> LoadSmallCorpus() {
  std::vector<xsd::Schema> schemas;
  for (const std::string& file : SmallCorpusFiles()) {
    Result<std::string> text =
        ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
    EXPECT_TRUE(text.ok()) << file;
    Result<xsd::Schema> schema = xsd::ParseSchema(text.value());
    EXPECT_TRUE(schema.ok()) << file << ": " << schema.status().ToString();
    schemas.push_back(std::move(schema).value());
  }
  return schemas;
}

TEST(KernelDiffTest, AllPairsOfShippedSchemasAllModes) {
  const QMatch matcher;
  const QMatchOracle oracle;
  const std::vector<xsd::Schema> schemas = LoadSmallCorpus();
  for (size_t a = 0; a < schemas.size(); ++a) {
    for (size_t b = 0; b < schemas.size(); ++b) {
      for (MatchMode mode :
           {MatchMode::kFull, MatchMode::kCappedDepth, MatchMode::kLabelOnly}) {
        DiffOnePair(matcher, oracle, schemas[a], schemas[b], mode, nullptr,
                    SmallCorpusFiles()[a] + " x " + SmallCorpusFiles()[b] +
                        " mode=" + std::string(MatchModeName(mode)));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(KernelDiffTest, ProteinTaskFullScale) {
  // The paper's largest pair (PIR 231 x PDB 3753 = ~867k cells) — the
  // workload the SoA kernel exists for — must stay bit-identical at full
  // scale, sequentially and across a pool.
  const QMatch matcher;
  const QMatchOracle oracle;
  const datagen::MatchTask* protein = nullptr;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name == "Protein") protein = &task;
  }
  ASSERT_NE(protein, nullptr);
  const xsd::Schema source = protein->source();
  const xsd::Schema target = protein->target();
  const OracleRun want = oracle.Run(source, target);
  const QMatch::Analysis seq = matcher.Analyze(source, target, nullptr);
  ExpectResultsIdentical(seq.result(), want.result, "Protein sequential");
  ExpectTableMatchesOracle(seq, want, "Protein sequential");
  ThreadPool pool(4);
  const QMatch::Analysis par = matcher.Analyze(source, target, &pool);
  ExpectResultsIdentical(par.result(), want.result, "Protein pool=4");
  ExpectTableMatchesOracle(par, want, "Protein pool=4");
}

struct GeneratedCase {
  std::string name;
  xsd::Schema source;
  xsd::Schema target;
};

std::vector<GeneratedCase> GeneratedCases() {
  // Seeded sizes spanning the 10..4000-node range; each source is matched
  // against a perturbed copy of itself (renames, moves, drops — the
  // realistic mapping workload) rather than an unrelated tree, plus one
  // deliberately asymmetric 4000x40 case.
  std::vector<GeneratedCase> cases;
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  const size_t sizes[] = {10, 60, 250, 700};
  for (size_t k = 0; k < 4; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 31000 + k;
    options.element_count = sizes[k];
    options.max_depth = 3 + k;
    options.attribute_probability = 0.2;
    options.domain = domains[k];
    options.name = "KDiff" + std::to_string(sizes[k]);
    GeneratedCase c;
    c.name = options.name;
    c.source = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = 8800 + k;
    c.target = datagen::Perturb(c.source, perturb, nullptr);
    cases.push_back(std::move(c));
  }
  {
    // Asymmetric: a 4000-node haystack vs a 40-node needle (the corpus
    // retrieval shape), exercising wide CSR rows against narrow ones.
    datagen::GeneratorOptions big;
    big.seed = 32001;
    big.element_count = 4000;
    big.max_depth = 7;
    big.domain = datagen::Domain::kProtein;
    big.name = "KDiffBig4000";
    datagen::GeneratorOptions needle;
    needle.seed = 32002;
    needle.element_count = 40;
    needle.max_depth = 4;
    needle.domain = datagen::Domain::kProtein;
    needle.name = "KDiffSmall40";
    GeneratedCase c;
    c.name = "KDiff4000x40";
    c.source = datagen::GenerateSchema(big);
    c.target = datagen::GenerateSchema(needle);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(KernelDiffTest, GeneratedCorporaAllModes) {
  const QMatch matcher;
  const QMatchOracle oracle;
  for (const GeneratedCase& c : GeneratedCases()) {
    for (MatchMode mode :
         {MatchMode::kFull, MatchMode::kCappedDepth, MatchMode::kLabelOnly}) {
      DiffOnePair(matcher, oracle, c.source, c.target, mode, nullptr,
                  c.name + " mode=" + std::string(MatchModeName(mode)));
      if (HasFailure()) return;
    }
  }
}

TEST(KernelDiffTest, PoolParallelMatchesSequentialAndOracle) {
  // The pool-parallel fill must equal both the sequential fill (same
  // compact table, compared through Pair) and the oracle.
  const QMatch matcher;
  const QMatchOracle oracle;
  ThreadPool pool(4);
  for (const GeneratedCase& c : GeneratedCases()) {
    const QMatch::Analysis seq = matcher.Analyze(c.source, c.target, nullptr);
    const QMatch::Analysis par = matcher.Analyze(c.source, c.target, &pool);
    ExpectResultsIdentical(par.result(), seq.result(),
                           c.name + " pool-vs-seq");
    DiffOnePair(matcher, oracle, c.source, c.target, MatchMode::kFull, &pool,
                c.name + " pool vs oracle");
    if (HasFailure()) return;
  }
}

TEST(KernelDiffTest, NonDefaultConfigKnobs) {
  // The kernel mirrors every QMatchConfig knob the fill reads: the paper-
  // literal child accumulation, graded levels, custom weights/threshold.
  QMatchConfig config;
  config.child_accumulation = QMatchConfig::ChildAccumulation::kPaperLiteral;
  config.level_mode = QMatchConfig::LevelMode::kGraded;
  config.threshold = 0.35;
  config.weights.label = 0.5;
  config.weights.properties = 0.1;
  config.weights.level = 0.1;
  config.weights.children = 0.3;
  ASSERT_TRUE(config.Validate().ok());
  const QMatch matcher(config);
  const QMatchOracle oracle(config);
  for (const GeneratedCase& c : GeneratedCases()) {
    DiffOnePair(matcher, oracle, c.source, c.target, MatchMode::kFull, nullptr,
                c.name + " non-default config");
    if (HasFailure()) return;
  }
}

#if QMATCH_FAULT_ENABLED
/// A stopped fill is a bit-identical subset of the oracle: every reported
/// correspondence is one the oracle reports (same target, same score
/// bits), every cell of a completed row equals the oracle's, and the rows
/// that did not complete answer nullopt.
void ExpectPartialIsOracleSubset(const QMatch::Analysis& partial,
                                 const OracleRun& want,
                                 const std::string& context) {
  for (const Correspondence& pc : partial.result().correspondences) {
    bool found = false;
    for (const Correspondence& fc : want.result.correspondences) {
      if (fc.source == pc.source) {
        EXPECT_EQ(fc.target, pc.target) << context;
        EXPECT_TRUE(BitEqual(fc.score, pc.score)) << context;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << context
                       << " reported a pair the full run never reports: "
                       << pc.source->Path();
  }
  size_t rows_with_cells = 0;
  for (size_t i = 0; i < want.sources.size(); ++i) {
    if (!partial.Pair(want.sources[i], want.targets[0]).has_value()) {
      for (size_t j = 0; j < want.targets.size(); ++j) {
        EXPECT_FALSE(partial.Pair(want.sources[i], want.targets[j]).has_value())
            << context << " incomplete row " << i << " answered a cell";
      }
      continue;
    }
    ++rows_with_cells;
    for (size_t j = 0; j < want.targets.size(); ++j) {
      const std::optional<PairQoM> got =
          partial.Pair(want.sources[i], want.targets[j]);
      ASSERT_TRUE(got.has_value()) << context;
      ExpectPairIdentical(*got, want.at(i, j), context + " completed-row cell");
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(rows_with_cells, partial.completed_rows()) << context;
}

TEST(KernelDiffTest, CancelledPartialsAreBitIdenticalSubsets) {
  // Mid-flight cancellation: slow every pair down via the treematch.pair
  // failpoint, cancel once about four rows' worth of pairs has passed it,
  // and require that the fill stops with kCancelled and a non-trivial
  // partial that is a bit-identical subset of the oracle — the
  // monotone-partial contract of DESIGN.md §10 — sequentially and across a
  // pool.
  const QMatch matcher;
  const QMatchOracle oracle;
  std::vector<GeneratedCase> cases = GeneratedCases();
  const GeneratedCase& c = cases[1];  // 60 nodes x perturbed partner
  const OracleRun want = oracle.Run(c.source, c.target);
  // The failpoint counts a hit as each cell is written, so the cancel is
  // timed by the row fill's own progress: the unslowed precompute before
  // it and host noise cannot land the cancel before any row completes.
  const uint64_t cancel_at_hits = 4 * want.targets.size();
  ThreadPool pool(2);
  for (ThreadPool* driver : {static_cast<ThreadPool*>(nullptr), &pool}) {
    fault::FaultSpec slow;
    slow.action = fault::FaultAction::kDelay;
    slow.delay = std::chrono::milliseconds(1);
    fault::ScopedFailpoint fp("treematch.pair", slow);

    CancellationToken token;
    ExecControl control;
    control.cancel = &token;
    std::atomic<bool> analyzed{false};
    std::thread canceller([&] {
      while (!analyzed.load() && fp.stats().hits < cancel_at_hits) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      token.Cancel();
    });
    const QMatch::Analysis partial =
        matcher.Analyze(c.source, c.target, driver, &control);
    analyzed.store(true);
    canceller.join();
    const std::string context =
        c.name + (driver == nullptr ? " cancelled sequential"
                                    : " cancelled pool");
    ASSERT_EQ(partial.stop_reason(), StopReason::kCancelled) << context;
    EXPECT_GT(partial.completed_rows(), 0u)
        << context << ": cancellation landed before any row completed";
    EXPECT_LT(partial.completed_rows(), partial.total_rows()) << context;
    ExpectPartialIsOracleSubset(partial, want, context);
    if (HasFailure()) return;
  }
}

TEST(KernelDiffTest, DeadlineStopsTheFillWithAPartial) {
  const QMatch matcher;
  const QMatchOracle oracle;
  std::vector<GeneratedCase> cases = GeneratedCases();
  const GeneratedCase& c = cases[2];  // 250 nodes x perturbed partner
  const OracleRun want = oracle.Run(c.source, c.target);
  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kDelay;
  slow.delay = std::chrono::milliseconds(1);
  fault::ScopedFailpoint fp("treematch.pair", slow);
  ExecControl control;
  control.deadline = Deadline::After(std::chrono::milliseconds(30));
  const QMatch::Analysis stopped =
      matcher.Analyze(c.source, c.target, nullptr, &control);
  EXPECT_EQ(stopped.stop_reason(), StopReason::kDeadlineExceeded);
  EXPECT_LT(stopped.completed_rows(), stopped.total_rows());
  ExpectPartialIsOracleSubset(stopped, want, "deadline");
}
#endif  // QMATCH_FAULT_ENABLED

}  // namespace
}  // namespace qmatch::core
