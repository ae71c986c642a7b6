// Tests for the structure-of-arrays schema projection (DESIGN.md §13):
// CSR invariants over every shipped schema and a generated population,
// token-intern stability across repeated parses of the same document, the
// tree → flat → tree → flat round-trip, Schema::Flat() cache behaviour,
// and a seeded fuzz pass (same mutator style as xml_fuzz_test) proving
// flattening never crashes or breaks its invariants on hostile inputs —
// the sanitizer configurations of scripts/ci.sh run this same binary.

#include "xsd/flatten.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "xsd/parser.h"
#include "xsd/schema.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch::xsd {
namespace {

const std::vector<std::string>& CorpusFiles() {
  static const std::vector<std::string> kFiles = {
      "Article.xsd", "Book.xsd",    "DCMDItem.xsd",      "DCMDOrder.xsd",
      "Human.xsd",   "Library.xsd", "PDB.xsd",           "PIR.xsd",
      "PO1.xsd",     "PO2.xsd",     "XBenchCatalog.xsd", "XBenchOrder.xsd"};
  return kFiles;
}

std::string LoadSchemaText(const std::string& file) {
  Result<std::string> text =
      ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
  EXPECT_TRUE(text.ok()) << file << ": " << text.status();
  return text.ok() ? std::move(text).value() : std::string();
}

/// Every structural invariant of the projection, checked against the tree
/// it came from.
void CheckInvariants(const Schema& schema, const FlatSchema& flat,
                     const std::string& context) {
  const std::vector<const SchemaNode*> preorder = schema.AllNodes();
  const size_t n = flat.size();
  ASSERT_EQ(n, preorder.size()) << context;
  if (n == 0) {
    EXPECT_TRUE(flat.child_begin.empty()) << context;
    return;
  }

  ASSERT_EQ(flat.nodes.size(), n) << context;
  ASSERT_EQ(flat.label_id.size(), n) << context;
  ASSERT_EQ(flat.prop_id.size(), n) << context;
  ASSERT_EQ(flat.level.size(), n) << context;
  ASSERT_EQ(flat.parent.size(), n) << context;
  ASSERT_EQ(flat.child_begin.size(), n + 1) << context;
  ASSERT_EQ(flat.child_index.size(), n - 1) << context;
  ASSERT_EQ(flat.prop_rep.size(), flat.prop_keys.size()) << context;

  // Per-node columns mirror the tree, in preorder.
  uint32_t max_level = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(flat.nodes[i], preorder[i]) << context << " node " << i;
    ASSERT_LT(flat.label_id[i], flat.labels.size()) << context;
    EXPECT_EQ(flat.labels[flat.label_id[i]], preorder[i]->label())
        << context << " node " << i;
    ASSERT_LT(flat.prop_id[i], flat.prop_keys.size()) << context;
    EXPECT_EQ(flat.level[i], preorder[i]->level()) << context << " node " << i;
    max_level = std::max(max_level, flat.level[i]);
  }
  EXPECT_EQ(flat.max_level, max_level) << context;
  EXPECT_EQ(flat.parent[0], FlatSchema::kNoParent) << context;

  // CSR invariants: ranges are monotone, disjoint by construction
  // (child_begin is non-decreasing and covers child_index exactly once),
  // reproduce each node's children in tree order, keep every child id
  // greater than its parent's (preorder), level-sorted at parent+1, and
  // cover all nodes except the root exactly once.
  EXPECT_EQ(flat.child_begin[0], 0u) << context;
  EXPECT_EQ(flat.child_begin[n], flat.child_index.size()) << context;
  std::set<uint32_t> seen_children;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LE(flat.child_begin[i], flat.child_begin[i + 1]) << context;
    const size_t begin = flat.child_begin[i];
    const size_t end = flat.child_begin[i + 1];
    ASSERT_EQ(end - begin, preorder[i]->child_count())
        << context << " node " << i;
    for (size_t c = begin; c < end; ++c) {
      const uint32_t child = flat.child_index[c];
      ASSERT_LT(child, n) << context;
      EXPECT_GT(child, i) << context << " preorder: child after parent";
      EXPECT_EQ(flat.nodes[child],
                preorder[i]->children()[c - begin].get())
          << context << " node " << i << " child " << (c - begin);
      EXPECT_EQ(flat.level[child], flat.level[i] + 1)
          << context << " level-sorted CSR range";
      EXPECT_EQ(flat.parent[child], i) << context;
      EXPECT_TRUE(seen_children.insert(child).second)
          << context << " child " << child << " appears twice";
    }
  }
  EXPECT_EQ(seen_children.size(), n - 1) << context << " CSR covers all nodes";
  EXPECT_EQ(seen_children.count(0), 0u) << context << " root is nobody's child";

  // Interned tables: distinct, first-occurrence order, representative
  // indices consistent.
  std::set<std::string> distinct_labels(flat.labels.begin(), flat.labels.end());
  EXPECT_EQ(distinct_labels.size(), flat.labels.size())
      << context << " duplicate interned label";
  std::set<FlatSchema::PropertyKey> distinct_keys(flat.prop_keys.begin(),
                                                  flat.prop_keys.end());
  EXPECT_EQ(distinct_keys.size(), flat.prop_keys.size())
      << context << " duplicate property descriptor";
  for (size_t k = 0; k < flat.prop_keys.size(); ++k) {
    ASSERT_LT(flat.prop_rep[k], n) << context;
    EXPECT_EQ(flat.prop_id[flat.prop_rep[k]], k)
        << context << " prop_rep[" << k << "] does not carry its descriptor";
  }
}

void ExpectFlatEqual(const FlatSchema& a, const FlatSchema& b,
                     const std::string& context) {
  EXPECT_EQ(a.label_id, b.label_id) << context;
  EXPECT_EQ(a.prop_id, b.prop_id) << context;
  EXPECT_EQ(a.level, b.level) << context;
  EXPECT_EQ(a.parent, b.parent) << context;
  EXPECT_EQ(a.child_begin, b.child_begin) << context;
  EXPECT_EQ(a.child_index, b.child_index) << context;
  EXPECT_EQ(a.labels, b.labels) << context;
  EXPECT_EQ(a.prop_keys == b.prop_keys, true) << context;
  EXPECT_EQ(a.prop_rep, b.prop_rep) << context;
  EXPECT_EQ(a.max_level, b.max_level) << context;
}

std::vector<Schema> GeneratedPopulation() {
  std::vector<Schema> out;
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  for (size_t k = 0; k < 12; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 4200 + k;
    options.element_count = 5 + 60 * k;
    options.max_depth = 2 + k % 6;
    options.attribute_probability = static_cast<double>(k % 4) * 0.15;
    options.domain = domains[k % 4];
    options.name = "FlatGen" + std::to_string(k);
    Schema schema = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = 77 + k;
    out.push_back(datagen::Perturb(schema, perturb, nullptr));
    out.push_back(std::move(schema));
  }
  return out;
}

TEST(FlattenInvariantsTest, PaperSchemas) {
  for (const std::string& file : CorpusFiles()) {
    Result<Schema> schema = ParseSchema(LoadSchemaText(file));
    ASSERT_TRUE(schema.ok()) << file << ": " << schema.status();
    CheckInvariants(*schema, BuildFlatSchema(*schema), file);
  }
}

TEST(FlattenInvariantsTest, GeneratedSchemas) {
  size_t k = 0;
  for (const Schema& schema : GeneratedPopulation()) {
    CheckInvariants(schema, BuildFlatSchema(schema),
                    "gen#" + std::to_string(k++));
  }
}

TEST(FlattenInvariantsTest, EmptySchema) {
  Schema empty;
  const FlatSchema flat = BuildFlatSchema(empty);
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_TRUE(flat.labels.empty());
  EXPECT_TRUE(flat.prop_keys.empty());
}

TEST(FlattenRoundTripTest, ReflattenReproducesEveryColumn) {
  // tree -> flat -> tree -> flat: the second flatten must reproduce the
  // first column for column (the projection carries exactly the matcher's
  // view, so it is a fixed point of reconstruct-then-flatten).
  for (const std::string& file : CorpusFiles()) {
    Result<Schema> schema = ParseSchema(LoadSchemaText(file));
    ASSERT_TRUE(schema.ok()) << file;
    const FlatSchema flat = BuildFlatSchema(*schema);
    const Schema rebuilt = ReconstructFromFlat(flat, "roundtrip");
    const FlatSchema reflat = BuildFlatSchema(rebuilt);
    CheckInvariants(rebuilt, reflat, file + " (rebuilt)");
    ExpectFlatEqual(flat, reflat, file);
  }
  size_t k = 0;
  for (const Schema& schema : GeneratedPopulation()) {
    const std::string context = "gen#" + std::to_string(k++);
    const FlatSchema flat = BuildFlatSchema(schema);
    const Schema rebuilt = ReconstructFromFlat(flat, "roundtrip");
    ExpectFlatEqual(flat, BuildFlatSchema(rebuilt), context);
  }
}

TEST(FlattenInternStabilityTest, RepeatedParsesInternIdentically) {
  // Token interning is a pure function of the document: parsing the same
  // bytes twice (or flattening the same tree twice) yields identical id
  // assignments and table orders — nothing depends on pointer values,
  // hashing order, or any other run-to-run accident.
  for (const std::string& file : CorpusFiles()) {
    const std::string text = LoadSchemaText(file);
    Result<Schema> first = ParseSchema(text);
    Result<Schema> second = ParseSchema(text);
    ASSERT_TRUE(first.ok() && second.ok()) << file;
    ExpectFlatEqual(BuildFlatSchema(*first), BuildFlatSchema(*second), file);
    // And across a clone, which shares no nodes with the original.
    ExpectFlatEqual(BuildFlatSchema(*first), BuildFlatSchema(first->Clone()),
                    file + " (clone)");
  }
}

TEST(FlattenCacheTest, FlatIsCachedAndInvalidatedByMutation) {
  Result<Schema> parsed = ParseSchema(LoadSchemaText("PO1.xsd"));
  ASSERT_TRUE(parsed.ok());
  Schema schema = std::move(parsed).value();

  const FlatSchema* first = &schema.Flat();
  EXPECT_EQ(first, &schema.Flat()) << "second call must hit the cache";
  CheckInvariants(schema, *first, "cached");
  const size_t size_before = first->size();
  // (The rebuilt projection may legally land at the freed one's address, so
  // invalidation is proven by content, not by pointer inequality.)

  // Finalize after a tree mutation is the invalidation barrier: the next
  // Flat() must see the new node, not the stale cached projection.
  schema.root()->AddChild(
      std::make_unique<SchemaNode>("FlattenCacheProbe", NodeKind::kElement));
  schema.Finalize();
  const FlatSchema& second = schema.Flat();
  ASSERT_EQ(second.size(), size_before + 1)
      << "Finalize must invalidate the cached Flat";
  EXPECT_EQ(second.labels[second.label_id[second.size() - 1]],
            "FlattenCacheProbe");
  CheckInvariants(schema, second, "after mutation");
}

TEST(FlattenFuzzTest, MutatedDocumentsNeverBreakFlattenInvariants) {
  // Seeded fuzz over the shipped corpus, mutator style borrowed from
  // xml_fuzz_test (bit flips + truncation): whenever the mutant still
  // parses, flattening must uphold every invariant and round-trip; when it
  // does not parse, there is nothing to flatten. ASan/UBSan runs of this
  // binary (scripts/ci.sh asan/ubsan, fuzz label) check the memory-safety
  // half of the contract.
  const uint64_t base_seed = 0xF1A77E57ULL;
  size_t parsed_count = 0;
  for (const std::string& file : CorpusFiles()) {
    const std::string base = LoadSchemaText(file);
    for (size_t iteration = 0; iteration < 40; ++iteration) {
      Random rng(base_seed ^ (std::hash<std::string>{}(file) + iteration));
      std::string mutant = base;
      // Truncate then flip: truncation exercises structurally torn
      // documents, bit flips exercise content-level corruption.
      if (rng.Uniform(2) == 0 && !mutant.empty()) {
        mutant = mutant.substr(0, static_cast<size_t>(rng.Uniform(mutant.size())));
      }
      const size_t flips = 1 + static_cast<size_t>(rng.Uniform(16));
      for (size_t f = 0; f < flips && !mutant.empty(); ++f) {
        const size_t pos = static_cast<size_t>(rng.Uniform(mutant.size()));
        mutant[pos] = static_cast<char>(
            static_cast<unsigned char>(mutant[pos]) ^ (1u << rng.Uniform(8)));
      }
      Result<Schema> schema = ParseSchema(mutant);
      if (!schema.ok()) continue;
      ++parsed_count;
      const std::string context = file + " iter " + std::to_string(iteration);
      const FlatSchema flat = BuildFlatSchema(*schema);
      CheckInvariants(*schema, flat, context);
      if (flat.size() > 0) {
        ExpectFlatEqual(
            flat, BuildFlatSchema(ReconstructFromFlat(flat, "fuzz")), context);
      }
    }
  }
  // The mutator keeps most single-byte-flip mutants parseable; if nothing
  // parsed, the test silently stopped covering the invariant half.
  EXPECT_GT(parsed_count, 0u);
}

}  // namespace
}  // namespace qmatch::xsd
