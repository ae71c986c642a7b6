// Unit tests for the QMatch hybrid algorithm: the equations of Section 3,
// the taxonomy classifications of Section 2, and the configuration knobs.

#include <gtest/gtest.h>

#include <optional>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "xsd/builder.h"

namespace qmatch::core {
namespace {

using xsd::Schema;
using xsd::SchemaBuilder;
using xsd::SchemaNode;
using xsd::XsdType;

TEST(QMatchTest, PaperExampleExactLeafMatch) {
  // "the match between the two leaf elements OrderNo ... is exact" (§2.2).
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  const std::optional<PairQoM> pair =
      analysis.PairByPath("/PO/OrderNo", "/PurchaseOrder/OrderNo");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->category, qom::MatchCategory::kTotalExact);
  EXPECT_DOUBLE_EQ(pair->qom, 1.0)
      << "highest classification must yield QoM = 1 (Section 3)";
}

TEST(QMatchTest, PaperExampleRelaxedLeafMatches) {
  // Quantity/Qty and UnitOfMeasure/UOM are relaxed leaf matches (§2.2).
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  for (auto [s, t] : {std::pair{"/PO/PurchaseInfo/Lines/Quantity",
                                "/PurchaseOrder/Items/Qty"},
                      std::pair{"/PO/PurchaseInfo/Lines/UnitOfMeasure",
                                "/PurchaseOrder/Items/UOM"}}) {
    const std::optional<PairQoM> pair = analysis.PairByPath(s, t);
    ASSERT_TRUE(pair.has_value()) << s;
    EXPECT_EQ(pair->label_cls, qom::AxisMatch::kRelaxed) << s;
    EXPECT_EQ(pair->category, qom::MatchCategory::kTotalRelaxed) << s;
    EXPECT_LT(pair->qom, 1.0);
    EXPECT_GT(pair->qom, 0.5);
  }
}

TEST(QMatchTest, PaperExampleSubtreeMatches) {
  // Lines/Items and PurchaseInfo/PurchaseOrder are total relaxed (§2.2).
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);

  const std::optional<PairQoM> lines_items =
      analysis.PairByPath("/PO/PurchaseInfo/Lines", "/PurchaseOrder/Items");
  ASSERT_TRUE(lines_items.has_value());
  EXPECT_EQ(lines_items->category, qom::MatchCategory::kTotalRelaxed);
  EXPECT_EQ(lines_items->coverage, qom::Coverage::kTotal);
  EXPECT_EQ(lines_items->level_cls, qom::AxisMatch::kNone)
      << "Lines is at level 2, Items at level 1";

  const std::optional<PairQoM> info_root =
      analysis.PairByPath("/PO/PurchaseInfo", "/PurchaseOrder");
  ASSERT_TRUE(info_root.has_value());
  EXPECT_EQ(info_root->category, qom::MatchCategory::kTotalRelaxed);

  // Tree match: the roots are total relaxed (§2.2 end).
  EXPECT_EQ(analysis.Root().category, qom::MatchCategory::kTotalRelaxed);
  EXPECT_EQ(analysis.Root().level_cls, qom::AxisMatch::kExact);
}

TEST(QMatchTest, SelfMatchIsTotalExactEverywhere) {
  QMatch matcher;
  Schema a = datagen::MakePO1();
  Schema b = datagen::MakePO1();
  QMatch::Analysis analysis = matcher.Analyze(a, b);
  EXPECT_DOUBLE_EQ(analysis.Root().qom, 1.0);
  EXPECT_EQ(analysis.Root().category, qom::MatchCategory::kTotalExact);
  MatchResult result = analysis.result();
  EXPECT_EQ(result.correspondences.size(), a.NodeCount());
  for (const Correspondence& c : result.correspondences) {
    EXPECT_EQ(c.source->Path(), c.target->Path());
    EXPECT_DOUBLE_EQ(c.score, 1.0);
  }
}

// Hand-computed QoM for a crafted pair, verifying Eq. 1-6.
TEST(QMatchTest, EquationsMatchHandComputation) {
  // Source: root -> {a(int), b(string)}; target: root -> {a(int), c(date)}.
  SchemaBuilder sb("s");
  SchemaNode* sroot = sb.Root("Root");
  sb.Element(sroot, "a", XsdType::kInt);
  sb.Element(sroot, "b", XsdType::kString);
  Schema source = std::move(sb).Build();

  SchemaBuilder tb("t");
  SchemaNode* troot = tb.Root("Root");
  tb.Element(troot, "a", XsdType::kInt);
  tb.Element(troot, "c", XsdType::kDate);
  Schema target = std::move(tb).Build();

  QMatchConfig config;  // paper weights, threshold 0.5
  QMatch matcher(config);
  QMatch::Analysis analysis = matcher.Analyze(source, target);

  // Child pair (a, a): identical -> QoM 1. Child b has no match above the
  // threshold ("b" vs "a"/"c" labels unrelated, level equal but label none
  // means ... the b->c pair scores P,H,C only).
  const std::optional<PairQoM> aa = analysis.PairByPath("/Root/a", "/Root/a");
  ASSERT_TRUE(aa.has_value());
  EXPECT_DOUBLE_EQ(aa->qom, 1.0);

  // Root children axis: one of two children matched with QoM 1.
  //   Rw = 1/2, Rs = best-match count... but b->c scores
  //   WP*P + WH*1 + WC*1 which may clear the 0.5 threshold; compute from
  //   the table directly instead of assuming.
  const std::optional<PairQoM> bc = analysis.PairByPath("/Root/b", "/Root/c");
  ASSERT_TRUE(bc.has_value());
  const PairQoM root = analysis.Root();
  double expected_rw;
  double expected_rs;
  if (bc->qom >= config.threshold) {
    expected_rw = (1.0 + bc->qom) / 2.0;
    expected_rs = 1.0;
  } else {
    expected_rw = 1.0 / 2.0;
    expected_rs = 0.5;
  }
  double expected_children = (expected_rw + expected_rs) / 2.0;  // Eq. 5
  EXPECT_NEAR(root.children, expected_children, 1e-12);

  // Roots: labels equal (1), properties exact (1), levels equal (1).
  double expected_qom = 0.3 * 1.0 + 0.2 * 1.0 + 0.1 * 1.0 +
                        0.4 * expected_children;  // Eq. 1
  EXPECT_NEAR(root.qom, expected_qom, 1e-12);
}

TEST(QMatchTest, LeafVsInnerChildrenCredit) {
  SchemaBuilder sb("s");
  SchemaNode* sroot = sb.Root("Root");
  sb.Element(sroot, "Item", XsdType::kString);
  Schema source = std::move(sb).Build();

  SchemaBuilder tb("t");
  SchemaNode* troot = tb.Root("Root");
  SchemaNode* items = tb.Element(troot, "Items");
  tb.Element(items, "Sub", XsdType::kString);
  Schema target = std::move(tb).Build();

  QMatchConfig config;
  config.leaf_to_inner_children_credit = 0.25;
  QMatch matcher(config);
  QMatch::Analysis analysis = matcher.Analyze(source, target);
  // Leaf source vs inner target: configured credit.
  const std::optional<PairQoM> pair =
      analysis.PairByPath("/Root/Item", "/Root/Items");
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->children, 0.25);
  EXPECT_EQ(pair->coverage, qom::Coverage::kTotal);
  EXPECT_FALSE(pair->children_all_exact);
  // Inner source vs leaf target: no coverage.
  const std::optional<PairQoM> reverse =
      analysis.PairByPath("/Root", "/Root/Items/Sub");
  ASSERT_TRUE(reverse.has_value());
  EXPECT_DOUBLE_EQ(reverse->children, 0.0);
  EXPECT_EQ(reverse->coverage, qom::Coverage::kNone);
}

TEST(QMatchTest, ThresholdGatesCorrespondences) {
  QMatchConfig strict;
  strict.threshold = 0.95;
  QMatch matcher(strict);
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  MatchResult result = matcher.Match(po1, po2);
  for (const Correspondence& c : result.correspondences) {
    EXPECT_GE(c.score, 0.95);
  }
  // Only the identical OrderNo pair survives at 0.95.
  EXPECT_EQ(result.correspondences.size(), 1u);
}

TEST(QMatchTest, RequireLabelEvidenceSuppressesStructuralOnlyPairs) {
  Schema library = datagen::MakeLibrary();
  Schema human = datagen::MakeHuman();

  QMatch default_matcher;
  EXPECT_TRUE(default_matcher.Match(library, human).correspondences.empty());

  QMatchConfig permissive;
  permissive.require_label_evidence = false;
  permissive.threshold = 0.4;
  QMatch permissive_matcher(permissive);
  EXPECT_FALSE(
      permissive_matcher.Match(library, human).correspondences.empty());
}

TEST(QMatchTest, SchemaQomUnaffectedByLabelEvidenceGate) {
  Schema library = datagen::MakeLibrary();
  Schema human = datagen::MakeHuman();
  QMatch matcher;
  MatchResult result = matcher.Match(library, human);
  // Structure still counts into the schema-level QoM (Fig. 9 behaviour).
  EXPECT_GT(result.schema_qom, 0.4);
  EXPECT_LT(result.schema_qom, 1.0);
}

TEST(QMatchTest, PaperLiteralAccumulationStaysBounded) {
  QMatchConfig config;
  config.child_accumulation = QMatchConfig::ChildAccumulation::kPaperLiteral;
  QMatch matcher(config);
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  for (const xsd::SchemaNode* s : po1.AllNodes()) {
    for (const xsd::SchemaNode* t : po2.AllNodes()) {
      const std::optional<PairQoM> pair = analysis.Pair(s, t);
      ASSERT_TRUE(pair.has_value());
      EXPECT_LE(pair->children, 1.0);
      EXPECT_GE(pair->children, 0.0);
    }
  }
}

TEST(QMatchTest, CustomWeightsShiftScores) {
  Schema library = datagen::MakeLibrary();
  Schema human = datagen::MakeHuman();
  QMatchConfig structural_heavy;
  structural_heavy.weights = qom::Weights{0.0, 0.2, 0.1, 0.7};
  QMatchConfig label_heavy;
  label_heavy.weights = qom::Weights{0.7, 0.2, 0.1, 0.0};
  double structural_score =
      QMatch(structural_heavy).Match(library, human).schema_qom;
  double label_score = QMatch(label_heavy).Match(library, human).schema_qom;
  EXPECT_GT(structural_score, label_score)
      << "disjoint labels, identical structure";
}

TEST(QMatchTest, ConfigValidation) {
  QMatchConfig good;
  EXPECT_TRUE(good.Validate().ok());
  QMatchConfig bad_weights;
  bad_weights.weights = qom::Weights{1, 1, 1, 1};
  EXPECT_FALSE(bad_weights.Validate().ok());
  QMatchConfig bad_threshold;
  bad_threshold.threshold = 1.5;
  EXPECT_FALSE(bad_threshold.Validate().ok());
}

TEST(QMatchTest, AnalysisPairLookupRejectsForeignNodes) {
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  Schema other = datagen::MakeBook();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  EXPECT_FALSE(analysis.Pair(other.root(), po2.root()).has_value());
  EXPECT_FALSE(analysis.PairByPath("/Nope", "/PurchaseOrder").has_value());
}

TEST(QMatchTest, WithoutThesaurusStillMatchesIdenticalLabels) {
  QMatch matcher(QMatchConfig{}, /*thesaurus=*/nullptr);
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  MatchResult result = matcher.Match(po1, po2);
  EXPECT_TRUE(result.Contains("/PO/OrderNo", "/PurchaseOrder/OrderNo"));
  // UOM needs the thesaurus.
  EXPECT_EQ(result.ScoreFor("/PO/PurchaseInfo/Lines/UnitOfMeasure"), 0.0);
}

TEST(QMatchTest, GradedLevelModeScoresCrossDepthPairs) {
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatchConfig graded;
  graded.level_mode = QMatchConfig::LevelMode::kGraded;
  QMatch matcher(graded);
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  // Lines (level 2) vs Items (level 1): binary mode scores 0, graded 0.5.
  const std::optional<PairQoM> pair =
      analysis.PairByPath("/PO/PurchaseInfo/Lines", "/PurchaseOrder/Items");
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->level, 0.5);
  EXPECT_EQ(pair->level_cls, qom::AxisMatch::kNone)
      << "qualitative classification stays 'none' per the paper";
  // Equal levels still score 1 in graded mode.
  const std::optional<PairQoM> same_level =
      analysis.PairByPath("/PO/OrderNo", "/PurchaseOrder/OrderNo");
  ASSERT_TRUE(same_level.has_value());
  EXPECT_DOUBLE_EQ(same_level->level, 1.0);
}

TEST(QMatchTest, ExplainCorrespondencesListsPairsWithAxes) {
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  std::string explanation = analysis.ExplainCorrespondences();
  EXPECT_NE(explanation.find("/PO/OrderNo -> /PurchaseOrder/OrderNo"),
            std::string::npos)
      << explanation;
  EXPECT_NE(explanation.find("total exact"), std::string::npos);
  EXPECT_NE(explanation.find("schema QoM"), std::string::npos);
}

TEST(QMatchTest, CategoryHistogramCountsCorrespondences) {
  QMatch matcher;
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  QMatch::Analysis analysis = matcher.Analyze(po1, po2);
  std::map<qom::MatchCategory, size_t> histogram =
      analysis.CategoryHistogram();
  size_t total = 0;
  for (const auto& [category, count] : histogram) total += count;
  EXPECT_EQ(total, analysis.result().correspondences.size());
  // The paper's example: OrderNo is total exact, the rest total relaxed.
  EXPECT_EQ(histogram.at(qom::MatchCategory::kTotalExact), 1u);
  EXPECT_GE(histogram.at(qom::MatchCategory::kTotalRelaxed), 8u);
}

TEST(QMatchTest, EmptySchemasProduceEmptyResult) {
  QMatch matcher;
  Schema empty;
  Schema po = datagen::MakePO1();
  EXPECT_TRUE(matcher.Match(empty, po).correspondences.empty());
  EXPECT_TRUE(matcher.Match(po, empty).correspondences.empty());
  EXPECT_DOUBLE_EQ(matcher.Match(empty, po).schema_qom, 0.0);
}

}  // namespace
}  // namespace qmatch::core
