// Chaos suite for the match engine (ISSUE 3 tentpole): randomized but
// seed-deterministic fault schedules driven over the shipped
// data/schemas/ corpus, asserting the robustness contract end to end:
//
//  * no crash or leak under ASan/TSan (scripts/ci.sh chaos runs this
//    binary under both);
//  * with no fault armed, results are bit-identical to the sequential
//    QMatch reference;
//  * every request returns a typed Status — a deadline never hangs past
//    its budget plus a fixed slack;
//  * partial results are monotone: every correspondence a degraded run
//    reports is one the fault-free run also reports, bit-identically;
//  * the obs request counters account for every request, degraded or not.
//
// Seeds come from QMATCH_CHAOS_SEEDS (comma-separated, default "1,2,3");
// a failure log names the seed, so replay is one env var away. Excluded
// from the default ctest run via CONFIGURATIONS chaos (see
// tests/CMakeLists.txt); run it with `scripts/ci.sh chaos` or
// `ctest -C chaos -L chaos`.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "fault/failpoint.h"
#include "obs/obs.h"
#include "test_util.h"
#include "xsd/flatten.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

#if !QMATCH_FAULT_ENABLED
#error "the chaos suite requires a -DQMATCH_FAULT=ON build"
#endif

namespace qmatch::core {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Sanitizer-scaled timing discipline shared across the labelled suites.
using qmatch::test::kDeadlineSlack;
using qmatch::test::kSanitized;

std::vector<std::string> CorpusPaths() {
  static const char* kFiles[] = {
      "Article.xsd", "Book.xsd",    "DCMDItem.xsd",      "DCMDOrder.xsd",
      "Human.xsd",   "Library.xsd", "PDB.xsd",           "PIR.xsd",
      "PO1.xsd",     "PO2.xsd",     "XBenchCatalog.xsd", "XBenchOrder.xsd"};
  std::vector<std::string> paths;
  for (const char* file : kFiles) {
    paths.push_back(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
  }
  return paths;
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("QMATCH_CHAOS_SEEDS");
  std::string spec = env != nullptr ? env : "1,2,3";
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) seeds = {1, 2, 3};
  return seeds;
}

MatchEngineOptions EngineOptions(size_t threads, size_t cache_capacity = 0) {
  MatchEngineOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  options.min_parallel_pairs = 1;
  return options;
}

/// "<source path>|<target path>" -> bit pattern of the score. Node
/// pointers differ between runs, so correspondences are compared by path.
std::map<std::string, uint64_t> CorrespondenceMap(const MatchResult& result) {
  std::map<std::string, uint64_t> map;
  for (const Correspondence& c : result.correspondences) {
    map[c.source->Path() + "|" + c.target->Path()] =
        std::bit_cast<uint64_t>(c.score);
  }
  return map;
}

/// Asserts `actual` ⊆ `reference` with bit-identical scores — the
/// monotone partial-result contract.
void ExpectSubsetOfReference(const MatchResult& actual,
                             const std::map<std::string, uint64_t>& reference,
                             const std::string& context) {
  for (const auto& [key, score_bits] : CorrespondenceMap(actual)) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end())
        << context << ": correspondence " << key
        << " reported under fault but absent from the fault-free run";
    EXPECT_EQ(it->second, score_bits)
        << context << ": correspondence " << key
        << " scored differently under fault";
  }
}

class ChaosEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_F(ChaosEngineTest, FaultFreeCorpusRunIsBitIdenticalToReference) {
  // Failpoint sites are compiled in but disarmed: the corpus pipeline must
  // reproduce the sequential QMatch reference bit for bit.
  const std::vector<std::string> paths = CorpusPaths();
  const xsd::Schema query = datagen::MakePO1();
  const QMatch reference;
  MatchEngine engine(EngineOptions(4, /*cache_capacity=*/8));
  const CorpusMatchResult corpus = engine.MatchCorpus(query, paths);
  ASSERT_EQ(corpus.entries.size(), paths.size());
  EXPECT_EQ(corpus.ok, paths.size());
  EXPECT_EQ(corpus.degraded, 0u);
  for (const CorpusEntryResult& entry : corpus.entries) {
    ASSERT_TRUE(entry.ok()) << entry.path << ": " << entry.status;
    const MatchResult expected = reference.Match(query, entry.schema);
    EXPECT_EQ(std::bit_cast<uint64_t>(entry.result.schema_qom),
              std::bit_cast<uint64_t>(expected.schema_qom))
        << entry.path;
    EXPECT_EQ(CorrespondenceMap(entry.result), CorrespondenceMap(expected))
        << entry.path;
  }
}

TEST_F(ChaosEngineTest, SeededFaultSchedulesAlwaysReturnTypedStatuses) {
  const std::vector<std::string> paths = CorpusPaths();
  const xsd::Schema query = datagen::MakePO1();

  // Fault-free reference per corpus file, for the monotonicity check.
  std::map<std::string, std::map<std::string, uint64_t>> reference;
  std::map<std::string, uint64_t> reference_qom;
  {
    MatchEngine engine(EngineOptions(4));
    const CorpusMatchResult clean = engine.MatchCorpus(query, paths);
    ASSERT_EQ(clean.ok, paths.size());
    for (const CorpusEntryResult& entry : clean.entries) {
      reference[entry.path] = CorrespondenceMap(entry.result);
      reference_qom[entry.path] =
          std::bit_cast<uint64_t>(entry.result.schema_qom);
    }
  }

  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("QMATCH_CHAOS_SEEDS=" + std::to_string(seed));
    Random rng(0xC4A0C4A0ULL ^ (seed * 0x9E3779B97F4A7C15ULL));

    // --- derive this round's fault schedule from the seed --------------
    struct SiteSpec {
      const char* name;
      double arm_probability;
      bool allow_throw;
      bool allow_delay;
    };
    // treematch.pair runs O(n·m) times per match: keep its fire
    // probability low and its delay at 1ms so a full run stays bounded.
    const SiteSpec kSites[] = {
        {"xml.parse", 0.4, true, true},
        {"xsd.parse", 0.4, true, true},
        {"engine.corpus.load", 0.6, false, false},
        {"engine.cache.lookup", 0.4, false, false},
        {"engine.cache.store", 0.4, false, false},
        {"treematch.pair", 0.5, true, true},
        {"threadpool.task", 0.3, true, false},
        {"treematch.precompute", 0.4, true, true},
    };
    for (const SiteSpec& site : kSites) {
      if (!rng.Bernoulli(site.arm_probability)) continue;
      fault::FaultSpec spec;
      const double roll = rng.NextDouble();
      if (site.allow_throw && roll < 0.25) {
        spec.action = fault::FaultAction::kThrow;
      } else if (site.allow_delay && roll < 0.5) {
        spec.action = fault::FaultAction::kDelay;
        spec.delay = milliseconds(1);
      } else {
        spec.action = fault::FaultAction::kError;
        spec.code = rng.Bernoulli(0.5) ? StatusCode::kIoError
                                       : StatusCode::kParseError;
      }
      spec.probability = std::string(site.name) == "treematch.pair"
                             ? 0.01 + 0.04 * rng.NextDouble()
                             : 0.1 + 0.5 * rng.NextDouble();
      spec.seed = rng.Next();
      if (rng.Bernoulli(0.3)) spec.max_fires = 1 + rng.Uniform(8);
      fault::FaultRegistry::Global().Arm(site.name, spec);
    }

    CorpusMatchOptions options;
    options.backoff_base = milliseconds(1);
    const bool bounded = rng.Bernoulli(0.5);
    const milliseconds budget{20 + static_cast<int64_t>(rng.Uniform(60))};

#if QMATCH_OBS_ENABLED
    obs::Registry& registry = obs::Registry::Global();
    const uint64_t requests_before =
        registry.GetCounter("engine.requests").Value();
    const uint64_t outcomes_before =
        registry.GetCounter("engine.requests_ok").Value() +
        registry.GetCounter("engine.requests_deadline_exceeded").Value() +
        registry.GetCounter("engine.requests_cancelled").Value() +
        registry.GetCounter("engine.requests_overloaded").Value() +
        registry.GetCounter("engine.requests_resource_exhausted").Value() +
        registry.GetCounter("engine.requests_error").Value();
#endif

    MatchEngine engine(EngineOptions(4, /*cache_capacity=*/8));
    const steady_clock::time_point start = steady_clock::now();
    if (bounded) options.request.deadline = Deadline::After(budget);
    const CorpusMatchResult corpus = engine.MatchCorpus(query, paths, options);
    const auto elapsed = steady_clock::now() - start;
    fault::FaultRegistry::Global().DisarmAll();

    // Every entry came back, every status is typed, and degraded + ok
    // accounts for all of them.
    ASSERT_EQ(corpus.entries.size(), paths.size());
    EXPECT_EQ(corpus.ok + corpus.degraded, paths.size());
    size_t degraded_seen = 0;
    for (size_t i = 0; i < corpus.entries.size(); ++i) {
      const CorpusEntryResult& entry = corpus.entries[i];
      EXPECT_EQ(entry.path, paths[i]);
      if (!entry.ok()) ++degraded_seen;
      // Monotone partial results: whatever was reported is a subset of
      // the fault-free run for this file, bit-identically scored.
      ExpectSubsetOfReference(entry.result, reference[entry.path],
                              entry.path);
      if (entry.ok()) {
        // A completed request is not merely a subset — it is the whole
        // fault-free result (injected cache misses, dropped stores and
        // contained throws may cost time, never correctness).
        EXPECT_EQ(CorrespondenceMap(entry.result).size(),
                  reference[entry.path].size())
            << entry.path;
        EXPECT_EQ(std::bit_cast<uint64_t>(entry.result.schema_qom),
                  reference_qom[entry.path])
            << entry.path;
        EXPECT_EQ(entry.completed_rows, entry.total_rows) << entry.path;
      }
    }
    EXPECT_EQ(degraded_seen, corpus.degraded);

    // A bounded request never hangs: the whole corpus call returns within
    // deadline + slack (per-pair polling + clamped retry sleeps).
    if (bounded) {
      EXPECT_LE(elapsed, budget + kDeadlineSlack)
          << "corpus call overran its deadline";
    }

#if QMATCH_OBS_ENABLED
    // Counter accounting: every request (one per corpus entry) was tallied
    // exactly once, and the outcome counters sum to the request counter.
    const uint64_t requests_delta =
        registry.GetCounter("engine.requests").Value() - requests_before;
    const uint64_t outcomes_delta =
        registry.GetCounter("engine.requests_ok").Value() +
        registry.GetCounter("engine.requests_deadline_exceeded").Value() +
        registry.GetCounter("engine.requests_cancelled").Value() +
        registry.GetCounter("engine.requests_overloaded").Value() +
        registry.GetCounter("engine.requests_resource_exhausted").Value() +
        registry.GetCounter("engine.requests_error").Value() -
        outcomes_before;
    EXPECT_EQ(requests_delta, paths.size());
    EXPECT_EQ(outcomes_delta, requests_delta);
#endif
  }
}

TEST_F(ChaosEngineTest, DeadlineIsHonoredWithinSlack) {
  // A 1ms delay per node pair makes the unbounded match take hundreds of
  // milliseconds; a 30ms deadline must cut it off within the slack bound.
  datagen::GeneratorOptions gen;
  gen.seed = 42;
  gen.element_count = 24;
  gen.name = "ChaosDeadline";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 43;
  const xsd::Schema target = datagen::GenerateSchema(gen);
  ASSERT_GE(source.NodeCount() * target.NodeCount(), 200u);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    EngineRequestOptions options;
    const milliseconds budget{30};
    options.deadline = Deadline::After(budget);
    const steady_clock::time_point start = steady_clock::now();
    const EngineMatchResult result = engine.Match(source, target, options);
    const auto elapsed = steady_clock::now() - start;
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_LT(result.completed_rows, result.total_rows);
    EXPECT_LE(elapsed, budget + kDeadlineSlack)
        << "threads=" << threads << ": request overran its deadline";
  }
}

TEST_F(ChaosEngineTest, DeadlineIsHonoredDuringPrecomputeAtProteinScale) {
  // The label and property matrices poll the deadline once per row, so a
  // Protein-scale match (PIR 231 x PDB 3753, ~70 ms of label matrix alone)
  // with a 1 ms deadline comes back within the slack on both drivers.
  const datagen::MatchTask* protein = nullptr;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name == "Protein") protein = &task;
  }
  ASSERT_NE(protein, nullptr);
  const xsd::Schema source = protein->source();
  const xsd::Schema target = protein->target();
  // Flattened up front, so the deadline lands in the kernel.
  (void)source.Flat();
  (void)target.Flat();
  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    EngineRequestOptions options;
    const milliseconds budget{1};
    options.deadline = Deadline::After(budget);
    const steady_clock::time_point start = steady_clock::now();
    const EngineMatchResult result = engine.Match(source, target, options);
    const auto elapsed = steady_clock::now() - start;
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_LT(result.completed_rows, result.total_rows);
    EXPECT_LE(elapsed, budget + kDeadlineSlack)
        << "threads=" << threads << ": precompute overran its deadline";
  }
}

TEST_F(ChaosEngineTest, SlowPrecomputeIsCutOffByTheDeadline) {
  // A 5ms delay per label/property matrix row makes the precompute alone
  // take far longer than the deadline; the request must stop inside the
  // precompute (no row filled) within the slack bound, sequentially and
  // with the label rows fanned out across the pool. The deadline scales
  // with sanitizers so that each driver reaches its first matrix row.
  datagen::GeneratorOptions gen;
  gen.seed = 52;
  gen.element_count = 300;
  gen.name = "ChaosPrecompute";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 53;
  const xsd::Schema target = datagen::GenerateSchema(gen);
  // Enough distinct labels that the pool path fans label rows out.
  ASSERT_GE(source.Flat().labels.size() * target.Flat().labels.size(),
            4096u);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(5);
  fault::ScopedFailpoint armed("treematch.precompute", spec);

  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    EngineRequestOptions options;
    const milliseconds budget = qmatch::test::Scaled(milliseconds(30));
    options.deadline = Deadline::After(budget);
    const steady_clock::time_point start = steady_clock::now();
    const EngineMatchResult result = engine.Match(source, target, options);
    const auto elapsed = steady_clock::now() - start;
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_EQ(result.completed_rows, 0u) << "threads=" << threads;
    EXPECT_TRUE(result.result.correspondences.empty());
    EXPECT_LE(elapsed, budget + kDeadlineSlack)
        << "threads=" << threads << ": precompute overran its deadline";
  }
  EXPECT_GE(armed.stats().fires, 2u);
}

TEST_F(ChaosEngineTest, CancellationStopsPromptlyWithMonotonePartial) {
  datagen::GeneratorOptions gen;
  gen.seed = 77;
  gen.element_count = 24;
  gen.name = "ChaosCancel";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 78;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  // Fault-free reference for the subset check.
  MatchEngine engine(EngineOptions(4));
  const MatchResult reference = engine.Match(source, target);
  const std::map<std::string, uint64_t> reference_map =
      CorrespondenceMap(reference);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  CancellationToken token;
  EngineRequestOptions options;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  const steady_clock::time_point start = steady_clock::now();
  const EngineMatchResult result = engine.Match(source, target, options);
  const auto elapsed = steady_clock::now() - start;
  canceller.join();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_LT(result.completed_rows, result.total_rows);
  EXPECT_LE(elapsed, milliseconds(10) + kDeadlineSlack)
      << "cancellation did not stop the request promptly";
  ExpectSubsetOfReference(result.result, reference_map, "cancelled partial");
}

TEST_F(ChaosEngineTest, PartialResultIsNonTrivialAndMonotone) {
  // A deadline sized to land mid-table: the request must come back with
  // some completed rows, and everything it reports must be a bit-identical
  // subset of the fault-free result.
  datagen::GeneratorOptions gen;
  gen.seed = 99;
  gen.element_count = 30;
  gen.name = "ChaosPartial";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 100;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  MatchEngine engine(EngineOptions(1));
  const MatchResult reference = engine.Match(source, target);
  const std::map<std::string, uint64_t> reference_map =
      CorrespondenceMap(reference);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  // The table fills bottom row up at ~target.NodeCount() ms per row; pick
  // a budget of several row-times so a few rows complete before the stop.
  const auto budget =
      milliseconds(static_cast<int64_t>(4 * target.NodeCount()));
  EngineRequestOptions options;
  options.deadline = Deadline::After(budget);
  const EngineMatchResult result = engine.Match(source, target, options);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(result.completed_rows, 0u)
      << "deadline landed before any row completed; partial is trivial";
  EXPECT_LT(result.completed_rows, result.total_rows);
  ExpectSubsetOfReference(result.result, reference_map, "deadline partial");
}

TEST_F(ChaosEngineTest, ThrowingFailpointIsContainedAsInternalStatus) {
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kThrow;
  spec.fire_on_nth_hit = 10;
  spec.message = "chaos throw";
  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    {
      fault::ScopedFailpoint armed("treematch.pair", spec);
      const EngineMatchResult result =
          engine.Match(source, target, EngineRequestOptions{});
      EXPECT_EQ(result.status.code(), StatusCode::kInternal)
          << "threads=" << threads;
      EXPECT_NE(result.status.message().find("chaos throw"),
                std::string::npos);
      EXPECT_TRUE(result.result.correspondences.empty());
    }
    // The engine (and its pool) survives: the next request is clean.
    const EngineMatchResult clean =
        engine.Match(source, target, EngineRequestOptions{});
    EXPECT_TRUE(clean.ok()) << clean.status;
    EXPECT_EQ(clean.completed_rows, clean.total_rows);
  }
}

TEST_F(ChaosEngineTest, BurstBeyondCapacityShedsTypedAndAccountsExactlyOnce) {
  // Overload scenario (ISSUE 4): a synchronized 16-way burst against an
  // engine whose admission capacity admits one request at a time with a
  // two-deep queue. Every request must come back with exactly one status
  // from {OK, kOverloaded, kDeadlineExceeded, kResourceExhausted} — no
  // hang, no crash, no untyped failure — and the obs outcome counters must
  // account for each request exactly once.
  datagen::GeneratorOptions gen;
  gen.seed = 4242;
  gen.element_count = 12;
  gen.name = "ChaosBurstSource";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 4243;
  gen.name = "ChaosBurstTarget";
  const xsd::Schema target = datagen::GenerateSchema(gen);

  // Slow the table fill so the burst actually overlaps.
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  MatchEngineOptions engine_options = EngineOptions(2);
  engine_options.overload.admission.max_inflight_cost = 64;  // << one request
  engine_options.overload.admission.max_queue_depth = 2;
  MatchEngine engine(engine_options);

  constexpr size_t kBurst = 16;
#if QMATCH_OBS_ENABLED
  obs::Registry& registry = obs::Registry::Global();
  const uint64_t requests_before =
      registry.GetCounter("engine.requests").Value();
  const uint64_t outcomes_before =
      registry.GetCounter("engine.requests_ok").Value() +
      registry.GetCounter("engine.requests_deadline_exceeded").Value() +
      registry.GetCounter("engine.requests_cancelled").Value() +
      registry.GetCounter("engine.requests_overloaded").Value() +
      registry.GetCounter("engine.requests_resource_exhausted").Value() +
      registry.GetCounter("engine.requests_error").Value();
#endif

  std::vector<Status> statuses(kBurst);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    threads.emplace_back([&, i]() {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      EngineRequestOptions request;
      request.deadline = Deadline::After(std::chrono::seconds(30));
      statuses[i] = engine.Match(source, target, request).status;
    });
  }
  while (ready.load() < kBurst) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  size_t ok = 0, overloaded = 0, deadline = 0, exhausted = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    switch (statuses[i].code()) {
      case StatusCode::kOk: ++ok; break;
      case StatusCode::kOverloaded: ++overloaded; break;
      case StatusCode::kDeadlineExceeded: ++deadline; break;
      case StatusCode::kResourceExhausted: ++exhausted; break;
      default:
        ADD_FAILURE() << "request " << i << " returned untyped status "
                      << statuses[i];
    }
  }
  EXPECT_EQ(ok + overloaded + deadline + exhausted, kBurst);
  EXPECT_GE(ok, 1u) << "nothing got through a 16x burst";
  EXPECT_GE(overloaded, 1u) << "a 16x burst over a 2-deep queue never shed";
  EXPECT_GE(engine.admission().shed_total(), overloaded);
  // The controller drained completely: no capacity or queue entries leak.
  EXPECT_EQ(engine.admission().inflight_cost(), 0u);
  EXPECT_EQ(engine.admission().queue_depth(), 0u);

#if QMATCH_OBS_ENABLED
  const uint64_t requests_delta =
      registry.GetCounter("engine.requests").Value() - requests_before;
  const uint64_t outcomes_delta =
      registry.GetCounter("engine.requests_ok").Value() +
      registry.GetCounter("engine.requests_deadline_exceeded").Value() +
      registry.GetCounter("engine.requests_cancelled").Value() +
      registry.GetCounter("engine.requests_overloaded").Value() +
      registry.GetCounter("engine.requests_resource_exhausted").Value() +
      registry.GetCounter("engine.requests_error").Value() -
      outcomes_before;
  EXPECT_EQ(requests_delta, kBurst);
  EXPECT_EQ(outcomes_delta, requests_delta);
#endif
}

TEST_F(ChaosEngineTest, DegradedResultsAreDeterministicForAFixedSeed) {
  // Under saturation the ladder drops to label-only; two engines under the
  // same pressure must produce bit-identical degraded results, and those
  // must equal an explicitly forced label-only run — degradation is a
  // deterministic function of (inputs, mode), not of scheduling noise.
  datagen::GeneratorOptions gen;
  gen.seed = 515;
  gen.element_count = 14;
  gen.name = "ChaosDegraded";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 516;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  MatchEngineOptions saturated = EngineOptions(4);
  saturated.overload.admission.max_inflight_cost = 4;  // pressure == 1.0

  MatchEngine first(saturated);
  MatchEngine second(saturated);
  const EngineMatchResult a =
      first.Match(source, target, EngineRequestOptions{});
  const EngineMatchResult b =
      second.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_EQ(a.result.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(b.result.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.result.schema_qom),
            std::bit_cast<uint64_t>(b.result.schema_qom));
  EXPECT_EQ(CorrespondenceMap(a.result), CorrespondenceMap(b.result));

  // force_mode produces the same bits without any admission pressure.
  MatchEngine unpressured(EngineOptions(4));
  EngineRequestOptions forced;
  forced.force_mode = MatchMode::kLabelOnly;
  const EngineMatchResult c = unpressured.Match(source, target, forced);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.result.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(std::bit_cast<uint64_t>(c.result.schema_qom),
            std::bit_cast<uint64_t>(a.result.schema_qom));
  EXPECT_EQ(CorrespondenceMap(c.result), CorrespondenceMap(a.result));
}

TEST_F(ChaosEngineTest, ThreadPoolContainsThrowingTasks) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kThrow;
  spec.probability = 0.5;
  fault::ScopedFailpoint armed("threadpool.task", spec);
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // ParallelFor from the same pool completes every index even while the
  // worker-side failpoint keeps killing helper tasks.
  std::atomic<size_t> loop_ran{0};
  pool.ParallelFor(256, [&loop_ran](size_t) {
    loop_ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(loop_ran.load(), 256u);
  // Submitted tasks either ran or were eaten by the failpoint *before*
  // running — but the process never died, which is the contract.
  EXPECT_LE(ran.load(), 64u);
}

}  // namespace
}  // namespace qmatch::core
