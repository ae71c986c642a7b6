// Differential determinism tests for the parallel MatchEngine: for every
// paper pair and a population of generated pairs, the engine's output must
// be *bit-identical* to the sequential QMatch::Match reference at every
// thread count, with and without the result cache. Run under
// ThreadSanitizer by ci.sh (-DQMATCH_SANITIZE=thread).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "match/similarity_matrix.h"

namespace qmatch::core {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectByteIdentical(const MatchResult& actual,
                         const MatchResult& expected,
                         const std::string& context) {
  EXPECT_EQ(actual.algorithm, expected.algorithm) << context;
  EXPECT_TRUE(BitEqual(actual.schema_qom, expected.schema_qom))
      << context << " schema_qom " << actual.schema_qom << " vs "
      << expected.schema_qom;
  ASSERT_EQ(actual.correspondences.size(), expected.correspondences.size())
      << context;
  for (size_t i = 0; i < actual.correspondences.size(); ++i) {
    const Correspondence& a = actual.correspondences[i];
    const Correspondence& e = expected.correspondences[i];
    EXPECT_EQ(a.source, e.source) << context << " corr #" << i;
    EXPECT_EQ(a.target, e.target) << context << " corr #" << i;
    EXPECT_TRUE(BitEqual(a.score, e.score)) << context << " corr #" << i;
  }
  EXPECT_EQ(actual.ToString(), expected.ToString()) << context;
}

MatchEngineOptions EngineOptions(size_t threads, size_t cache_capacity = 0) {
  MatchEngineOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  // Force the row-parallel fill even for the small paper schemas so the
  // parallel code path is what this test actually exercises.
  options.min_parallel_pairs = 1;
  return options;
}

struct GeneratedPair {
  xsd::Schema source;
  xsd::Schema target;
};

std::vector<GeneratedPair> GeneratedPairs(size_t count) {
  std::vector<GeneratedPair> pairs;
  pairs.reserve(count);
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  for (size_t k = 0; k < count; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 1000 + k;
    options.element_count = 20 + 13 * k;
    options.max_depth = 3 + k % 5;
    options.attribute_probability = static_cast<double>(k % 3) * 0.2;
    options.domain = domains[k % 4];
    options.name = "Gen" + std::to_string(k);
    GeneratedPair pair;
    pair.source = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = 9000 + k;
    pair.target = datagen::Perturb(pair.source, perturb, nullptr);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

TEST(MatchEngineDifferentialTest, PaperPairsIdenticalAtEveryThreadCount) {
  const QMatch reference;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    const xsd::Schema source = task.source();
    const xsd::Schema target = task.target();
    const MatchResult expected = reference.Match(source, target);
    for (size_t threads : {1u, 2u, 8u}) {
      MatchEngine engine(EngineOptions(threads));
      ExpectByteIdentical(engine.Match(source, target), expected,
                          task.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(MatchEngineDifferentialTest, GeneratedPairsIdenticalAtEveryThreadCount) {
  const QMatch reference;
  const std::vector<GeneratedPair> pairs = GeneratedPairs(20);
  for (size_t threads : {1u, 2u, 8u}) {
    MatchEngine engine(EngineOptions(threads));
    for (size_t k = 0; k < pairs.size(); ++k) {
      const MatchResult expected =
          reference.Match(pairs[k].source, pairs[k].target);
      ExpectByteIdentical(
          engine.Match(pairs[k].source, pairs[k].target), expected,
          "gen#" + std::to_string(k) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(MatchEngineDifferentialTest, SimilarityMatrixIdentical) {
  const QMatch reference;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name == "Protein") continue;  // covered by Match; keep test fast
    const xsd::Schema source = task.source();
    const xsd::Schema target = task.target();
    const match::SimilarityMatrix expected =
        reference.Similarity(source, target);
    for (size_t threads : {2u, 8u}) {
      MatchEngine engine(EngineOptions(threads));
      const match::SimilarityMatrix actual = engine.Similarity(source, target);
      ASSERT_TRUE(actual.SameShape(expected)) << task.name;
      for (size_t i = 0; i < expected.source_count(); ++i) {
        for (size_t j = 0; j < expected.target_count(); ++j) {
          EXPECT_TRUE(BitEqual(actual.at(i, j), expected.at(i, j)))
              << task.name << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(MatchEngineDifferentialTest, MatchAllIsInputOrderedAndIdentical) {
  // More jobs than threads, each large enough (min_parallel_pairs = 1) to
  // take the row-parallel fill from inside a batch worker: the nested
  // fan-out must still reproduce the sequential reference bit for bit.
  const QMatch reference;
  std::vector<xsd::Schema> sources;
  std::vector<xsd::Schema> targets;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    sources.push_back(task.source());
    targets.push_back(task.target());
  }
  for (GeneratedPair& pair : GeneratedPairs(8)) {
    sources.push_back(std::move(pair.source));
    targets.push_back(std::move(pair.target));
  }
  std::vector<MatchJob> jobs;
  for (size_t i = 0; i < sources.size(); ++i) {
    jobs.push_back(MatchJob{&sources[i], &targets[i]});
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MatchEngine engine(EngineOptions(threads));
    const std::vector<MatchResult> results = engine.MatchAll(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      ExpectByteIdentical(results[i],
                          reference.Match(*jobs[i].source, *jobs[i].target),
                          "job#" + std::to_string(i) + " threads=" +
                              std::to_string(threads));
    }
  }
}

TEST(MatchEngineCacheTest, HitReturnsIdenticalResult) {
  MatchEngine engine(EngineOptions(2, /*cache_capacity=*/8));
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  const MatchResult first = engine.Match(source, target);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  const MatchResult second = engine.Match(source, target);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  ExpectByteIdentical(second, first, "cache hit");
}

TEST(MatchEngineCacheTest, HitRehydratesPointersIntoCallerSchemas) {
  // A fingerprint-equal but distinct Schema object must get
  // correspondences pointing into *its* tree, not the first caller's.
  MatchEngine engine(EngineOptions(1, /*cache_capacity=*/8));
  const xsd::Schema source1 = datagen::MakePO1();
  const xsd::Schema target1 = datagen::MakePO2();
  const MatchResult first = engine.Match(source1, target1);
  ASSERT_FALSE(first.correspondences.empty());

  const xsd::Schema source2 = datagen::MakePO1();
  const xsd::Schema target2 = datagen::MakePO2();
  const MatchResult second = engine.Match(source2, target2);
  EXPECT_GE(engine.cache_stats().hits, 1u);
  std::set<const xsd::SchemaNode*> source2_nodes;
  for (const xsd::SchemaNode* node : source2.AllNodes()) {
    source2_nodes.insert(node);
  }
  std::set<const xsd::SchemaNode*> target2_nodes;
  for (const xsd::SchemaNode* node : target2.AllNodes()) {
    target2_nodes.insert(node);
  }
  ASSERT_EQ(second.correspondences.size(), first.correspondences.size());
  for (const Correspondence& c : second.correspondences) {
    EXPECT_TRUE(source2_nodes.count(c.source));
    EXPECT_TRUE(target2_nodes.count(c.target));
  }
  EXPECT_EQ(second.ToString(), first.ToString());
}

TEST(MatchEngineCacheTest, LruEvictsBeyondCapacity) {
  MatchEngine engine(EngineOptions(1, /*cache_capacity=*/2));
  const std::vector<GeneratedPair> pairs = GeneratedPairs(4);
  for (const GeneratedPair& pair : pairs) {
    engine.Match(pair.source, pair.target);
  }
  MatchEngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  // Oldest entry is gone: matching it again is a miss, the newest a hit.
  engine.Match(pairs[0].source, pairs[0].target);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  engine.Match(pairs[0].source, pairs[0].target);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  engine.ClearCache();
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(MatchEngineCacheTest, ConfigChangesTheCacheKey) {
  // Same schemas, different thresholds: results must not bleed between
  // configurations through the cache.
  const xsd::Schema source = datagen::MakeArticle();
  const xsd::Schema target = datagen::MakeBook();
  QMatchConfig strict;
  strict.threshold = 0.9;
  MatchEngine loose_engine(EngineOptions(1, 8));
  MatchEngine strict_engine(strict, EngineOptions(1, 8));
  const MatchResult loose = loose_engine.Match(source, target);
  const MatchResult tight = strict_engine.Match(source, target);
  EXPECT_GE(loose.correspondences.size(), tight.correspondences.size());
}

TEST(MatchEngineTest, ThreadsResolveAndEngineIsAMatcher) {
  MatchEngine engine(EngineOptions(3));
  EXPECT_EQ(engine.threads(), 3u);
  EXPECT_EQ(engine.name(), "hybrid");
  const Matcher& as_matcher = engine;
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  const MatchResult result = as_matcher.Match(source, target);
  EXPECT_EQ(result.algorithm, "hybrid");
  EXPECT_GT(result.schema_qom, 0.0);
}

TEST(MatchEngineTest, FingerprintDistinguishesSchemas) {
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po1_again = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  EXPECT_EQ(xsd::SchemaFingerprint(po1), xsd::SchemaFingerprint(po1_again));
  EXPECT_NE(xsd::SchemaFingerprint(po1), xsd::SchemaFingerprint(po2));
}

}  // namespace
}  // namespace qmatch::core
