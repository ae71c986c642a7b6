// Property-based and metamorphic tests of the QoM model over seeded-random
// schemas: invariants that must hold for *every* input, pinned down before
// the parallel engine landed so the differential tests have a trusted
// sequential reference.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/qmatch.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "qom/taxonomy.h"
#include "qom/weights.h"

namespace qmatch::core {
namespace {

struct SchemaPair {
  xsd::Schema source;
  xsd::Schema target;
  std::string context;
};

std::vector<SchemaPair> SeededPairs() {
  std::vector<SchemaPair> pairs;
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed;
    options.element_count = 10 + 9 * static_cast<size_t>(seed);
    options.max_depth = 2 + seed % 5;
    options.attribute_probability = static_cast<double>(seed % 2) * 0.25;
    options.domain = domains[seed % 4];
    options.name = "Prop" + std::to_string(seed);
    SchemaPair pair;
    pair.source = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = seed * 31 + 5;
    pair.target = datagen::Perturb(pair.source, perturb, nullptr);
    pair.context = "seed=" + std::to_string(seed);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

/// Applies `check(pair, context)` to every (source node, target node) pair
/// of the analysis.
template <typename Check>
void ForEveryPair(const QMatch::Analysis& analysis, const xsd::Schema& source,
                  const xsd::Schema& target, const std::string& context,
                  const Check& check) {
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> pair = analysis.Pair(s, t);
      ASSERT_TRUE(pair.has_value()) << context;
      check(*pair, context + " " + s->Path() + " vs " + t->Path());
    }
  }
}

TEST(QomPropertiesTest, AllScoresLieInUnitInterval) {
  const QMatch matcher;
  for (const SchemaPair& pair : SeededPairs()) {
    const QMatch::Analysis analysis = matcher.Analyze(pair.source, pair.target);
    ForEveryPair(analysis, pair.source, pair.target, pair.context,
                 [](const PairQoM& p, const std::string& context) {
                   EXPECT_GE(p.label, 0.0) << context;
                   EXPECT_LE(p.label, 1.0) << context;
                   EXPECT_GE(p.properties, 0.0) << context;
                   EXPECT_LE(p.properties, 1.0) << context;
                   EXPECT_GE(p.level, 0.0) << context;
                   EXPECT_LE(p.level, 1.0) << context;
                   EXPECT_GE(p.children, 0.0) << context;
                   EXPECT_LE(p.children, 1.0) << context;
                   EXPECT_GE(p.qom, 0.0) << context;
                   EXPECT_LE(p.qom, 1.0) << context;
                 });
    EXPECT_GE(analysis.result().schema_qom, 0.0) << pair.context;
    EXPECT_LE(analysis.result().schema_qom, 1.0) << pair.context;
    for (const Correspondence& c : analysis.result().correspondences) {
      EXPECT_GE(c.score, matcher.config().threshold) << pair.context;
      EXPECT_LE(c.score, 1.0) << pair.context;
    }
  }
}

TEST(QomPropertiesTest, PairQomEqualsWeightedAxisSum) {
  // Eq. 1 must be reconstructible from the published decomposition for
  // every pair — the decomposition is the explanation surface, so it must
  // not drift from the score the matcher actually used.
  const QMatch matcher;
  const qom::Weights& w = matcher.config().weights;
  for (const SchemaPair& pair : SeededPairs()) {
    const QMatch::Analysis analysis = matcher.Analyze(pair.source, pair.target);
    ForEveryPair(analysis, pair.source, pair.target, pair.context,
                 [&w](const PairQoM& p, const std::string& context) {
                   const double recomputed =
                       w.label * p.label + w.properties * p.properties +
                       w.level * p.level + w.children * p.children;
                   EXPECT_DOUBLE_EQ(p.qom, recomputed) << context;
                 });
  }
}

TEST(QomPropertiesTest, CategoryConsistentWithAxisClassifications) {
  const QMatch matcher;
  for (const SchemaPair& pair : SeededPairs()) {
    const QMatch::Analysis analysis = matcher.Analyze(pair.source, pair.target);
    ForEveryPair(analysis, pair.source, pair.target, pair.context,
                 [](const PairQoM& p, const std::string& context) {
                   EXPECT_EQ(p.category,
                             qom::Categorize(p.label_cls, p.properties_cls,
                                             p.level_cls, p.coverage,
                                             p.children_all_exact))
                       << context;
                 });
  }
}

TEST(QomPropertiesTest, SelfMatchRootIsPerfectAndDominates) {
  const QMatch matcher;
  for (const SchemaPair& pair : SeededPairs()) {
    const QMatch::Analysis self = matcher.Analyze(pair.source, pair.source);
    EXPECT_NEAR(self.Root().qom, 1.0, 1e-12) << pair.context;
    EXPECT_EQ(self.Root().category, qom::MatchCategory::kTotalExact)
        << pair.context;
    const QMatch::Analysis cross = matcher.Analyze(pair.source, pair.target);
    EXPECT_GE(self.Root().qom + 1e-12, cross.Root().qom) << pair.context;
  }
}

TEST(QomPropertiesTest, DeterministicAcrossRuns) {
  const QMatch matcher;
  for (const SchemaPair& pair : SeededPairs()) {
    const MatchResult a = matcher.Match(pair.source, pair.target);
    const MatchResult b = matcher.Match(pair.source, pair.target);
    EXPECT_EQ(a.ToString(), b.ToString()) << pair.context;
    EXPECT_EQ(a.schema_qom, b.schema_qom) << pair.context;
  }
}

TEST(QomPropertiesTest, RaisingLabelWeightNeverLowersLabelDominantLeafPairs) {
  // Metamorphic weight perturbation: move weight from the level axis to
  // the label axis. For leaf-leaf pairs (children axis pinned at 1 and
  // weight-independent) whose label score is at least their level score,
  // the pair QoM must not decrease. Restricting to leaf pairs keeps the
  // property exact: inner pairs' children axis is itself a function of the
  // weights, so no clean monotonicity holds there.
  QMatchConfig base;
  QMatchConfig boosted;
  const double delta = 0.05;
  boosted.weights.label += delta;
  boosted.weights.level -= delta;
  ASSERT_TRUE(boosted.weights.Validate().ok());
  const QMatch base_matcher(base);
  const QMatch boosted_matcher(boosted);
  size_t pairs_checked = 0;
  for (const SchemaPair& pair : SeededPairs()) {
    const QMatch::Analysis before =
        base_matcher.Analyze(pair.source, pair.target);
    const QMatch::Analysis after =
        boosted_matcher.Analyze(pair.source, pair.target);
    for (const xsd::SchemaNode* s : pair.source.AllNodes()) {
      if (!s->IsLeaf()) continue;
      for (const xsd::SchemaNode* t : pair.target.AllNodes()) {
        if (!t->IsLeaf()) continue;
        const std::optional<PairQoM> b = before.Pair(s, t);
        const std::optional<PairQoM> a = after.Pair(s, t);
        ASSERT_TRUE(b.has_value());
        ASSERT_TRUE(a.has_value());
        if (b->label < b->level) continue;  // label axis does not dominate
        EXPECT_GE(a->qom + 1e-12, b->qom)
            << pair.context << " " << s->Path() << " vs " << t->Path();
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(pairs_checked, 100u);  // the property must actually bite
}

}  // namespace
}  // namespace qmatch::core
