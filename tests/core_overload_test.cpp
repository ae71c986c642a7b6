// Unit tests for the engine's overload-protection layer: typed memory
// budget rejection (the untyped Match included), the deadline bound on a
// generated 4000x4000 pair, the pressure-driven degradation ladder (and its
// per-request force_mode override), the no-degraded-results-in-cache rule,
// the per-corpus-entry circuit breaker, and the acceptance contract that a
// label-only run matches the full run bit-identically on the label,
// properties and level axes. Registered with the "overload" label, which
// `scripts/ci.sh stress` runs under ASan and TSan.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/file_util.h"
#include "core/qmatch.h"
#include "datagen/generator.h"
#include "fault/failpoint.h"
#include "match/soa_kernel.h"
#include "obs/obs.h"
#include "test_util.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"

namespace qmatch::core {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

xsd::Schema LoadSchema(const std::string& name) {
  const std::string path =
      std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + name;
  Result<std::string> text = ReadFile(path);
  EXPECT_TRUE(text.ok()) << path << ": " << text.status();
  Result<xsd::Schema> schema = xsd::ParseSchema(*text);
  EXPECT_TRUE(schema.ok()) << path << ": " << schema.status();
  return std::move(*schema);
}

TEST(MatchModeTest, NamesAreStable) {
  EXPECT_EQ(MatchModeName(MatchMode::kFull), "full");
  EXPECT_EQ(MatchModeName(MatchMode::kCappedDepth), "capped-depth");
  EXPECT_EQ(MatchModeName(MatchMode::kLabelOnly), "label-only");
}

// The acceptance contract of the degradation ladder: a label-only run over
// a data/schemas pair must agree with the full run *bit-identically* on the
// label/properties/level axes for every node pair — the degraded mode only
// drops the children axis and renormalizes weights, it never perturbs the
// other axis computations.
TEST(OverloadDegradationTest, LabelOnlyMatchesFullOnCheapAxesBitIdentically) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  const QMatch matcher;

  QMatch::Analysis full =
      matcher.Analyze(source, target, nullptr, nullptr, TreeMatchOptions{});
  TreeMatchOptions label_only_opts;
  label_only_opts.mode = MatchMode::kLabelOnly;
  QMatch::Analysis degraded =
      matcher.Analyze(source, target, nullptr, nullptr, label_only_opts);

  EXPECT_EQ(full.result().mode, MatchMode::kFull);
  EXPECT_EQ(degraded.result().mode, MatchMode::kLabelOnly);

  size_t compared = 0;
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> f = full.Pair(s, t);
      const std::optional<PairQoM> d = degraded.Pair(s, t);
      ASSERT_TRUE(f.has_value());
      ASSERT_TRUE(d.has_value());
      EXPECT_TRUE(BitEqual(f->label, d->label))
          << s->Path() << " x " << t->Path();
      EXPECT_TRUE(BitEqual(f->properties, d->properties))
          << s->Path() << " x " << t->Path();
      EXPECT_TRUE(BitEqual(f->level, d->level))
          << s->Path() << " x " << t->Path();
      EXPECT_EQ(f->label_cls, d->label_cls);
      EXPECT_EQ(f->properties_cls, d->properties_cls);
      EXPECT_EQ(f->level_cls, d->level_cls);
      // The dropped axis really is dropped.
      EXPECT_EQ(d->children, 0.0);
      ++compared;
    }
  }
  EXPECT_EQ(compared, source.NodeCount() * target.NodeCount());
}

TEST(OverloadDegradationTest, LabelOnlyWeightsAreRenormalized) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  QMatch matcher;  // paper weights {0.3, 0.2, 0.1, 0.4}
  TreeMatchOptions opts;
  opts.mode = MatchMode::kLabelOnly;
  QMatch::Analysis degraded =
      matcher.Analyze(source, target, nullptr, nullptr, opts);
  // Eq. 6/7 renormalization: w' = w / (WL + WP + WH), so the root pair's
  // QoM is the renormalized weighted sum of its three remaining axes.
  const PairQoM root = degraded.Root();
  const double rest = 0.3 + 0.2 + 0.1;
  const double expected = (0.3 / rest) * root.label +
                          (0.2 / rest) * root.properties +
                          (0.1 / rest) * root.level;
  EXPECT_TRUE(BitEqual(root.qom, expected))
      << root.qom << " vs " << expected;
}

TEST(OverloadDegradationTest, CappedDepthTreatsDeepNodesAsLeaves) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  const QMatch matcher;
  TreeMatchOptions opts;
  opts.mode = MatchMode::kCappedDepth;
  opts.children_depth_cap = 1;  // only the roots keep a children axis
  QMatch::Analysis capped =
      matcher.Analyze(source, target, nullptr, nullptr, opts);
  EXPECT_EQ(capped.result().mode, MatchMode::kCappedDepth);
  // Cheap axes are still bit-identical to the full run.
  QMatch::Analysis full = matcher.Analyze(source, target);
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> f = full.Pair(s, t);
      const std::optional<PairQoM> c = capped.Pair(s, t);
      ASSERT_TRUE(f.has_value());
      ASSERT_TRUE(c.has_value());
      EXPECT_TRUE(BitEqual(f->label, c->label));
      EXPECT_TRUE(BitEqual(f->properties, c->properties));
      EXPECT_TRUE(BitEqual(f->level, c->level));
    }
  }
}

TEST(OverloadEngineTest, ForceModeIsHonoredAndReported) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  MatchEngine engine(options);
  EngineRequestOptions request;
  request.force_mode = MatchMode::kLabelOnly;
  EngineMatchResult degraded = engine.Match(source, target, request);
  ASSERT_TRUE(degraded.ok()) << degraded.status;
  EXPECT_EQ(degraded.result.mode, MatchMode::kLabelOnly);
  EngineMatchResult full = engine.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.result.mode, MatchMode::kFull);
}

TEST(OverloadEngineTest, RequestBudgetExhaustionIsTyped) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.request_budget_bytes = 16;  // far below one QoM table
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(out.result.correspondences.empty());
}

TEST(OverloadEngineTest, CompactTableChargeAdmitsProteinUnderTheOldCharge) {
  // The request is charged the kernel's real table (9 bytes per pair plus
  // the distinct-label class matrix), not 64-byte PairQoM cells: a budget
  // just below the old n·m·sizeof(PairQoM) charge now admits PIR x PDB,
  // while a budget below the compact charge still rejects it typed.
  const xsd::Schema source = LoadSchema("PIR.xsd");
  const xsd::Schema target = LoadSchema("PDB.xsd");
  const uint64_t pairs = source.NodeCount() * target.NodeCount();
  const uint64_t old_charge = pairs * sizeof(PairQoM);
  const uint64_t compact_charge =
      match::CompactTableBytes(source.Flat(), target.Flat());
  ASSERT_LT(compact_charge, old_charge / 4);

  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.request_budget_bytes = old_charge - 1;
  {
    MatchEngine engine(options);
    EngineMatchResult out =
        engine.Match(source, target, EngineRequestOptions{});
    ASSERT_TRUE(out.ok()) << out.status;
    EXPECT_EQ(out.completed_rows, out.total_rows);
    EXPECT_FALSE(out.result.correspondences.empty());
  }
  options.overload.request_budget_bytes = compact_charge - 1;
  {
    MatchEngine engine(options);
    EngineMatchResult out =
        engine.Match(source, target, EngineRequestOptions{});
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(out.result.correspondences.empty());
  }
}

TEST(OverloadEngineTest, UntypedMatchIsChargedToTheRequestBudget) {
  // The untyped Match runs through the typed request path, so the request
  // budget binds it too: one byte below the compact table it returns the
  // empty, algorithm-stamped refusal, counted as resource-exhausted.
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.request_budget_bytes =
      match::CompactTableBytes(source.Flat(), target.Flat()) - 1;
  MatchEngine engine(options);
#if QMATCH_OBS_ENABLED
  obs::Counter& exhausted =
      obs::Registry::Global().GetCounter("engine.requests_resource_exhausted");
  const uint64_t exhausted_before = exhausted.Value();
#endif
  const MatchResult refused = engine.Match(source, target);
  EXPECT_TRUE(refused.correspondences.empty());
  EXPECT_EQ(refused.schema_qom, 0.0);
  EXPECT_EQ(refused.algorithm, "hybrid");
  const std::vector<MatchResult> batch =
      engine.MatchAll({MatchJob{&source, &target}, MatchJob{&source, &target}});
  ASSERT_EQ(batch.size(), 2u);
  for (const MatchResult& r : batch) EXPECT_TRUE(r.correspondences.empty());
#if QMATCH_OBS_ENABLED
  EXPECT_EQ(exhausted.Value() - exhausted_before, 3u);
#endif
  EXPECT_EQ(engine.process_budget().used(), 0u);

  // An unbudgeted engine returns the full result for the same pair.
  options.overload.request_budget_bytes = 0;
  MatchEngine unbudgeted(options);
  EXPECT_FALSE(unbudgeted.Match(source, target).correspondences.empty());
}

TEST(OverloadEngineTest, GeneratedLargePairHonoursTheDeadline) {
  // A generated 4000x4000 pair (16M node pairs; seconds of unbounded
  // work) with a short deadline returns typed within the slack bound on
  // the sequential driver and on the pool driver.
  datagen::GeneratorOptions gen;
  gen.element_count = 4000;
  gen.max_depth = 8;
  gen.seed = 4000;
  gen.name = "Large4000a";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 4001;
  gen.name = "Large4000b";
  const xsd::Schema target = datagen::GenerateSchema(gen);
  ASSERT_GE(source.NodeCount(), 4000u);
  ASSERT_GE(target.NodeCount(), 4000u);
  // Flattened up front, so the deadline lands in the kernel.
  (void)source.Flat();
  (void)target.Flat();
  const milliseconds budget = test::Scaled(milliseconds(20));
  for (size_t threads : {1u, 4u}) {
    MatchEngineOptions options;
    options.threads = threads;
    options.cache_capacity = 0;
    MatchEngine engine(options);
    EngineRequestOptions request;
    request.deadline = Deadline::After(budget);
    const steady_clock::time_point start = steady_clock::now();
    const EngineMatchResult out = engine.Match(source, target, request);
    const auto elapsed = steady_clock::now() - start;
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_LT(out.completed_rows, out.total_rows) << "threads=" << threads;
    EXPECT_LE(elapsed, budget + test::kDeadlineSlack)
        << "threads=" << threads << ": request overran its deadline";
  }
}

TEST(OverloadEngineTest, ProcessBudgetIsSharedAcrossRequests) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.process_budget_bytes = 16;  // request budget unlimited
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  // The failed charge was rolled back: the process budget is not leaked.
  EXPECT_EQ(engine.process_budget().used(), 0u);
}

TEST(OverloadEngineTest, DegradedResultsAreNeverCached) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  MatchEngine engine(options);
  EngineRequestOptions degraded;
  degraded.force_mode = MatchMode::kLabelOnly;
  ASSERT_TRUE(engine.Match(source, target, degraded).ok());
  ASSERT_TRUE(engine.Match(source, target, degraded).ok());
  MatchEngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);  // a degraded answer never becomes an oracle
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  // Full-fidelity requests cache as before.
  ASSERT_TRUE(engine.Match(source, target, EngineRequestOptions{}).ok());
  ASSERT_TRUE(engine.Match(source, target, EngineRequestOptions{}).ok());
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(OverloadEngineTest, SaturatingAdmissionPressureDegradesToLabelOnly) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  // Capacity far below one request's |Ns|·|Nt| cost: the request is
  // clamped and admitted alone, but it saturates the controller, so the
  // pressure signal reads 1.0 and the ladder drops to label-only.
  options.overload.admission.max_inflight_cost = 4;
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(out.ok()) << out.status;
  EXPECT_EQ(out.result.mode, MatchMode::kLabelOnly);
  // Once the request retires, the pressure falls back to zero.
  EXPECT_EQ(engine.Pressure(), 0.0);
}

TEST(OverloadEngineTest, AmpleCapacityStaysFullFidelity) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.admission.max_inflight_cost = uint64_t{1} << 40;
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.result.mode, MatchMode::kFull);
}

TEST(OverloadEngineTest, CorpusCircuitBreakerOpensAfterRepeatedFailures) {
  const xsd::Schema query = LoadSchema("PO1.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.breaker_failure_threshold = 2;
  options.overload.breaker_cooldown = std::chrono::seconds(60);
  MatchEngine engine(options);
  const std::vector<std::string> paths = {"/nonexistent/overload_test.xsd"};
  CorpusMatchOptions corpus;
  corpus.max_load_attempts = 1;
  // Two requests fail on I/O and trip the breaker...
  EXPECT_EQ(engine.MatchCorpus(query, paths, corpus).entries[0].status.code(),
            StatusCode::kIoError);
  EXPECT_EQ(engine.MatchCorpus(query, paths, corpus).entries[0].status.code(),
            StatusCode::kIoError);
  // ...so the third is rejected up front without touching the filesystem.
  CorpusMatchResult third = engine.MatchCorpus(query, paths, corpus);
  EXPECT_EQ(third.entries[0].status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(third.entries[0].load_attempts, 0u);
}

TEST(OverloadEngineTest, BreakerIsPerEntryNotPerCorpus) {
  const xsd::Schema query = LoadSchema("PO1.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.breaker_failure_threshold = 1;
  options.overload.breaker_cooldown = std::chrono::seconds(60);
  MatchEngine engine(options);
  const std::string good =
      std::string(QMATCH_SOURCE_DIR) + "/data/schemas/PO2.xsd";
  const std::vector<std::string> paths = {"/nonexistent/a.xsd", good};
  CorpusMatchOptions corpus;
  corpus.max_load_attempts = 1;
  ASSERT_EQ(engine.MatchCorpus(query, paths, corpus).entries[0].status.code(),
            StatusCode::kIoError);
  CorpusMatchResult second = engine.MatchCorpus(query, paths, corpus);
  EXPECT_EQ(second.entries[0].status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(second.entries[1].ok())
      << second.entries[1].status;  // the healthy entry is untouched
}

#if QMATCH_FAULT_ENABLED
TEST(OverloadEngineTest, CacheHitIsServedWithoutConsultingAdmission) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 8;
  options.overload.admission.max_inflight_cost = uint64_t{1} << 40;
  MatchEngine engine(options);
  ASSERT_TRUE(engine.Match(source, target, EngineRequestOptions{}).ok());
  // Every admission attempt now sheds — but a cache hit returns first.
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  fault::ScopedFailpoint fp("admission.admit", spec);
  EngineMatchResult hit = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_TRUE(hit.ok()) << hit.status;
  EXPECT_EQ(hit.result.mode, MatchMode::kFull);
}
#endif

}  // namespace
}  // namespace qmatch::core
