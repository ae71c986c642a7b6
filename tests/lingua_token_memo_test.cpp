// Token-similarity memo (DESIGN.md §13.5): a scorer built over a memo,
// which loads from it and publishes to it, must score every label pair
// bit for bit like a scorer without one — warm, saturated, across
// matchers with different linguistic configurations, and with many
// threads sharing one engine.

#include "lingua/token_memo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "core/engine.h"
#include "core/qmatch.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "qmatch_oracle.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch::lingua {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

xsd::Schema LoadShipped(const std::string& file) {
  Result<std::string> text =
      ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
  EXPECT_TRUE(text.ok()) << file;
  Result<xsd::Schema> schema = xsd::ParseSchema(text.value());
  EXPECT_TRUE(schema.ok()) << file << ": " << schema.status().ToString();
  return std::move(schema).value();
}

xsd::Schema ParseOrDie(const std::string& text) {
  Result<xsd::Schema> schema = xsd::ParseSchema(text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::move(schema).value();
}

/// Seeded generated sources, each paired with a perturbed partner.
std::vector<std::pair<xsd::Schema, xsd::Schema>> GeneratedPairs() {
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  const size_t sizes[] = {40, 90, 160, 250};
  std::vector<std::pair<xsd::Schema, xsd::Schema>> pairs;
  for (size_t k = 0; k < 4; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 47000 + k;
    options.element_count = sizes[k];
    options.domain = domains[k];
    options.name = "Memo" + std::to_string(sizes[k]);
    xsd::Schema source = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = 5100 + k;
    xsd::Schema target = datagen::Perturb(source, perturb, nullptr);
    pairs.emplace_back(std::move(source), std::move(target));
  }
  return pairs;
}

/// Distinct-label lists to score against each other: every ordered pair
/// of the shipped schemas except the two Protein giants against
/// themselves and each other, the generated pairs
/// both ways, and labels whose tokens only differ in order (exact only
/// when every token pair is exact kind, so the memo's exactness counts).
std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
LabelListPairs() {
  const std::vector<std::string> files = {
      "Article.xsd",  "Book.xsd",        "DCMDItem.xsd",    "DCMDOrder.xsd",
      "Human.xsd",    "Library.xsd",     "PO1.xsd",         "PO2.xsd",
      "XBenchCatalog.xsd", "XBenchOrder.xsd", "PIR.xsd", "PDB.xsd"};
  std::vector<std::vector<std::string>> labels;
  for (const std::string& file : files) {
    labels.push_back(LoadShipped(file).Flat().labels);
  }
  const size_t pir = files.size() - 2;
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      out;
  for (size_t a = 0; a < files.size(); ++a) {
    for (size_t b = 0; b < files.size(); ++b) {
      if (a >= pir && b >= pir) continue;
      out.emplace_back(labels[a], labels[b]);
    }
  }
  for (const auto& [source, target] : GeneratedPairs()) {
    out.emplace_back(source.Flat().labels, target.Flat().labels);
    out.emplace_back(target.Flat().labels, source.Flat().labels);
  }
  out.emplace_back(std::vector<std::string>{"OrderDate", "ShipToCity",
                                            "FirstName", "AuthorName"},
                   std::vector<std::string>{"DateOrder", "CityShipTo",
                                            "NameFirst", "NameWriter"});
  return out;
}

/// Scores every label pair with `memo` and with a memo-free scorer over
/// `cold_matcher` (configured like the memo's) and requires the same class
/// and the same score bits. Even `round`s fill the token cache eagerly
/// (the pool path), odd ones lazily (the sequential path); both publish
/// what they computed when the scorer goes out of scope.
void ExpectScorerMatchesCold(const NameMatcher& cold_matcher,
                             const std::vector<std::string>& source,
                             const std::vector<std::string>& target,
                             TokenSimilarityMemo& memo, size_t round,
                             const std::string& context) {
  const PairwiseLabelScorer cold(cold_matcher, source, target);
  PairwiseLabelScorer warm(memo, source, target);
  if (round % 2 == 0) warm.Precompute();
  for (size_t i = 0; i < source.size(); ++i) {
    for (size_t j = 0; j < target.size(); ++j) {
      const LabelMatch want = cold.Match(i, j);
      const LabelMatch got = warm.Match(i, j);
      ASSERT_EQ(got.cls, want.cls)
          << context << ": " << source[i] << " vs " << target[j];
      ASSERT_TRUE(BitEqual(got.score, want.score))
          << context << ": " << source[i] << " vs " << target[j];
    }
  }
}

TEST(TokenMemoTest, WarmMemoIsBitIdenticalToCold) {
  const NameMatcher matcher(&DefaultThesaurus());
  TokenSimilarityMemo memo(&DefaultThesaurus(), NameMatchOptions{});
  const auto pairs = LabelListPairs();
  // The first pass fills the memo pair by pair; the second runs warm.
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      ExpectScorerMatchesCold(matcher, pairs[k].first, pairs[k].second, memo,
                              k + pass,
                              "pass " + std::to_string(pass) + " pair " +
                                  std::to_string(k));
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(memo.entries(), 0u);
  // Warm, a scorer over pairs the memo has seen computes nothing.
  const size_t before = memo.entries();
  {
    PairwiseLabelScorer warm(memo, pairs[0].first, pairs[0].second);
    warm.Precompute();
  }
  EXPECT_EQ(memo.entries(), before);
}

TEST(TokenMemoTest, ScorerPublishesWhenDestroyed) {
  TokenSimilarityMemo memo(&DefaultThesaurus(), NameMatchOptions{});
  const std::vector<std::string> source = {"OrderDate", "ShipCity"};
  const std::vector<std::string> target = {"OrderQuantity", "Address"};
  {
    // Lazy: only the token pairs Match reaches are computed.
    const PairwiseLabelScorer scorer(memo, source, target);
    scorer.Match(0, 0);
    EXPECT_EQ(memo.entries(), 0u);  // nothing is published before the end
  }
  const size_t lazy = memo.entries();
  EXPECT_GT(lazy, 0u);
  {
    PairwiseLabelScorer scorer(memo, source, target);
    scorer.Precompute();
  }
  // order/date/ship/city x order/quantity/address, each pair once.
  EXPECT_EQ(memo.entries(), 4u * 3u);
  EXPECT_LT(lazy, memo.entries());
}

TEST(TokenMemoTest, LoadCopiesExactlyThePublishedPairs) {
  TokenSimilarityMemo memo(nullptr, NameMatchOptions{});
  const std::vector<std::string> source = {"order", "qty"};
  const std::vector<std::string> target = {"quantity", "order", "date"};
  const double published_score[] = {0.25, 1.0, 0.0, 0.9, 0.0, 0.0};
  const signed char published_exact[] = {0, 1, 0, 0, 0, 0};
  memo.Publish(source, target, published_score, published_exact, {1, 3});
  EXPECT_EQ(memo.entries(), 2u);

  // Another scorer sees the pairs under its own local ids, both ways round.
  const std::vector<std::string> other_source = {"date", "qty", "order"};
  const std::vector<std::string> other_target = {"order", "quantity"};
  double score[6] = {-1, -1, -1, -1, -1, -1};
  signed char exact[6] = {0, 0, 0, 0, 0, 0};
  EXPECT_EQ(memo.Load(other_source, other_target, score, exact), 2u);
  EXPECT_EQ(score[0 * 2 + 0], -1.0);   // date x order: never published
  EXPECT_EQ(score[1 * 2 + 0], -1.0);   // qty x order: never published
  EXPECT_EQ(score[1 * 2 + 1], 0.9);  // qty x quantity
  EXPECT_EQ(exact[1 * 2 + 1], 0);
  EXPECT_EQ(score[2 * 2 + 0], 1.0);  // order x order
  EXPECT_EQ(exact[2 * 2 + 0], 1);
  EXPECT_EQ(score[2 * 2 + 1], -1.0);   // order x quantity: never published
  // Pairs are directional: (quantity, qty) is not (qty, quantity).
  double reversed[2] = {-1, -1};
  signed char reversed_exact[2] = {0, 0};
  EXPECT_EQ(memo.Load({"quantity"}, {"qty", "order"}, reversed,
                      reversed_exact),
            0u);
}

TEST(TokenMemoTest, SaturatedMemoGivesIdenticalOutput) {
  const NameMatcher matcher(&DefaultThesaurus());
  {
    // One tile: it fills after the first few scorers and then drops
    // every pair outside it.
    TokenSimilarityMemo memo(&DefaultThesaurus(), NameMatchOptions{},
                             /*max_tiles=*/1);
    const auto pairs = LabelListPairs();
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < pairs.size(); ++k) {
        ExpectScorerMatchesCold(matcher, pairs[k].first, pairs[k].second,
                                memo, k + pass,
                                "one-tile pass " + std::to_string(pass) +
                                    " pair " + std::to_string(k));
        if (HasFailure()) return;
      }
    }
    EXPECT_GT(memo.entries(), 0u);
    EXPECT_LE(memo.entries(), TokenSimilarityMemo::kTileSide *
                                  TokenSimilarityMemo::kTileSide);
  }
  {
    // More distinct tokens than the memo interns: one token per label,
    // consonant strings outside the thesaurus, the target side reusing
    // source tokens on both sides of the cut-off.
    const std::string letters = "bcdfghjklmnpqrtvwxz";
    std::vector<std::string> source;
    for (size_t k = 0; source.size() < TokenSimilarityMemo::kMaxTokens + 60;
         ++k) {
      source.push_back(std::string("q") + letters[k % letters.size()] +
                       letters[(k / letters.size()) % letters.size()] +
                       letters[(k / letters.size() / letters.size()) %
                               letters.size()]);
    }
    std::vector<std::string> target;
    for (size_t k = 0; k < 30; ++k) target.push_back(source[k]);
    for (size_t k = source.size() - 30; k < source.size(); ++k) {
      target.push_back(source[k]);
    }
    TokenSimilarityMemo memo(&DefaultThesaurus(), NameMatchOptions{});
    for (size_t round = 0; round < 3; ++round) {
      ExpectScorerMatchesCold(matcher, source, target, memo, round,
                              "token cap round " + std::to_string(round));
      ASSERT_FALSE(HasFailure());
    }
    // Only tokens below the cap have ids, so only their pairs are held.
    EXPECT_GT(memo.entries(), 0u);
    EXPECT_LT(memo.entries(), source.size() * target.size());
  }
}

// Multi-token labels: a whole-label thesaurus lookup finds nothing, so
// the token pairs (author/writer, qty/quantity, ship/shipping) decide.
constexpr char kLinguisticSource[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="AuthorName" type="xs:string"/>
        <xs:element name="OrderQty" type="xs:integer"/>
        <xs:element name="ShipToCity" type="xs:string"/>
        <xs:element name="BillingAddress" type="xs:string"/>
        <xs:element name="OrderDate" type="xs:date"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
)";

constexpr char kLinguisticTarget[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="WriterName" type="xs:string"/>
        <xs:element name="OrderQuantity" type="xs:integer"/>
        <xs:element name="ShippingCity" type="xs:string"/>
        <xs:element name="BillToAddress" type="xs:string"/>
        <xs:element name="PurchaseDate" type="xs:date"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
)";

/// Every pair's label axis and weighted total, and the schema QoM, equal
/// the memo-free Fig. 3 oracle's, bit for bit.
void ExpectMatchesOracle(const core::QMatch::Analysis& got,
                         const test::OracleRun& want,
                         const std::string& context) {
  EXPECT_TRUE(BitEqual(got.result().schema_qom, want.result.schema_qom))
      << context;
  for (size_t i = 0; i < want.sources.size(); ++i) {
    for (size_t j = 0; j < want.targets.size(); ++j) {
      const std::optional<qom::PairQoM> pair =
          got.Pair(want.sources[i], want.targets[j]);
      ASSERT_TRUE(pair.has_value()) << context;
      EXPECT_TRUE(BitEqual(pair->label, want.at(i, j).label))
          << context << ": " << want.sources[i]->Path() << " vs "
          << want.targets[j]->Path();
      EXPECT_EQ(pair->label_cls, want.at(i, j).label_cls) << context;
      EXPECT_TRUE(BitEqual(pair->qom, want.at(i, j).qom)) << context;
    }
  }
}

TEST(TokenMemoTest, MatchersWithDifferentThesauriOrOptionsNeverShareAScore) {
  const xsd::Schema source = ParseOrDie(kLinguisticSource);
  const xsd::Schema target = ParseOrDie(kLinguisticTarget);

  Thesaurus narrow;  // "author" is a broader term, not a synonym, here
  narrow.AddHypernym("author", "writer");
  core::QMatchConfig tuned;
  tuned.name_options.synonym_score = 0.6;
  tuned.name_options.hypernym_score = 0.55;
  tuned.name_options.fuzzy_floor = 0.5;
  struct Variant {
    std::string name;
    core::QMatchConfig config;
    const Thesaurus* thesaurus;
  };
  const std::vector<Variant> variants = {
      {"default", core::QMatchConfig{}, &DefaultThesaurus()},
      {"narrow thesaurus", core::QMatchConfig{}, &narrow},
      {"tuned options", tuned, &DefaultThesaurus()},
      {"no thesaurus", core::QMatchConfig{}, nullptr}};
  std::vector<core::QMatch> matchers;
  for (const Variant& v : variants) matchers.emplace_back(v.config, v.thesaurus);

  // Interleaved, both directions, several rounds: each matcher's memo sees
  // the same tokens the others scored differently.
  for (size_t round = 0; round < 3; ++round) {
    for (size_t v = 0; v < variants.size(); ++v) {
      const test::QMatchOracle oracle(variants[v].config,
                                            variants[v].thesaurus);
      for (const bool forward : {true, false}) {
        const xsd::Schema& s = forward ? source : target;
        const xsd::Schema& t = forward ? target : source;
        ExpectMatchesOracle(matchers[v].Analyze(s, t), oracle.Run(s, t),
                            variants[v].name + " round " +
                                std::to_string(round));
        if (HasFailure()) return;
      }
    }
  }

  // The variants really do disagree on a shared token pair, so a memo
  // shared between any two of them would have changed a score.
  std::vector<double> author_writer;
  for (const core::QMatch& m : matchers) {
    author_writer.push_back(
        m.Analyze(source, target)
            .PairByPath("/PurchaseOrder/AuthorName", "/PO/WriterName")
            ->label);
  }
  for (size_t a = 0; a < author_writer.size(); ++a) {
    for (size_t b = a + 1; b < author_writer.size(); ++b) {
      EXPECT_FALSE(BitEqual(author_writer[a], author_writer[b]))
          << variants[a].name << " vs " << variants[b].name;
    }
  }
}

using Digest = std::vector<std::tuple<std::string, std::string, uint64_t>>;

Digest DigestOf(const MatchResult& result) {
  Digest digest;
  digest.emplace_back("schema_qom", "",
                      std::bit_cast<uint64_t>(result.schema_qom));
  for (const Correspondence& c : result.correspondences) {
    digest.emplace_back(c.source->Path(), c.target->Path(),
                        std::bit_cast<uint64_t>(c.score));
  }
  return digest;
}

TEST(TokenMemoTest, EightThreadsShareOneEngineBitForBit) {
  // Pairs of the paper corpus plus generated ones large enough (>= 4096
  // distinct label pairs) for the pool path's precompute-then-publish.
  std::vector<std::pair<xsd::Schema, xsd::Schema>> pairs = GeneratedPairs();
  pairs.emplace_back(LoadShipped("PO1.xsd"), LoadShipped("PO2.xsd"));
  pairs.emplace_back(LoadShipped("Article.xsd"), LoadShipped("Book.xsd"));
  pairs.emplace_back(LoadShipped("DCMDItem.xsd"), LoadShipped("DCMDOrder.xsd"));
  std::vector<std::string> paths;
  std::vector<xsd::Schema> candidates;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const std::string path =
        ::testing::TempDir() + "qmatch_memo_" + std::to_string(k) + ".xsd";
    const std::string text = xsd::ToXsd(pairs[k].second);
    ASSERT_TRUE(WriteFile(path, text).ok()) << path;
    paths.push_back(path);
    candidates.push_back(ParseOrDie(text));
  }

  // References: a fresh sequential QMatch (cold memo) per match.
  std::vector<Digest> pair_want;
  std::vector<std::vector<Digest>> corpus_want;
  for (const auto& [source, target] : pairs) {
    pair_want.push_back(DigestOf(core::QMatch().Match(source, target)));
    std::vector<Digest> entries;
    for (const xsd::Schema& candidate : candidates) {
      entries.push_back(DigestOf(core::QMatch().Match(source, candidate)));
    }
    corpus_want.push_back(std::move(entries));
  }

  core::MatchEngineOptions options;
  options.threads = 2;
  options.cache_capacity = 0;  // every request runs the kernel
  options.min_parallel_pairs = 1;
  const core::MatchEngine engine(options);
  constexpr size_t kThreads = 8;
  std::vector<std::vector<Digest>> pair_got(kThreads);
  std::vector<std::vector<std::vector<Digest>>> corpus_got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pair_got[t].resize(pairs.size());
      corpus_got[t].resize(pairs.size());
      // Each thread starts at a different pair, so cold and warm scorers
      // of every pair overlap.
      for (size_t r = 0; r < pairs.size(); ++r) {
        const size_t k = (t + r) % pairs.size();
        pair_got[t][k] =
            DigestOf(engine.Match(pairs[k].first, pairs[k].second));
        if (t % 2 == 0 && r >= 2) continue;  // half the corpus load
        const core::CorpusMatchResult corpus =
            engine.MatchCorpus(pairs[k].first, paths);
        for (const core::CorpusEntryResult& entry : corpus.entries) {
          corpus_got[t][k].push_back(entry.ok() ? DigestOf(entry.result)
                                                : Digest{});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(pair_got[t][k], pair_want[k])
          << "thread " << t << " pair " << k;
      if (corpus_got[t][k].empty()) continue;
      EXPECT_EQ(corpus_got[t][k], corpus_want[k])
          << "thread " << t << " corpus query " << k;
    }
  }
}

}  // namespace
}  // namespace qmatch::lingua
