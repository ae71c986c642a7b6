// Shared pieces of the qbench benchmark: arguments, seeded randomness,
// latency summaries, outcome accounting, the in-memory span recorder, the
// label-pair repeat tracker and the result printer.
#ifndef QBENCH_COMMON_H_
#define QBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datagen/perturb.h"
#include "match/matcher.h"
#include "xsd/schema.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Checkout root: data/schemas, data/expected and the scratch directory
  /// (.bench_build) are resolved against it.
  std::string root = ".";
  /// served-mix: tail-latency limit of the rate ladder (max_rate_rps).
  /// No default: BENCHMARK.json's command sets it.
  double latency_limit_ms = 0.0;
  /// Non-empty = run a self-test instead of a measured workload.
  std::string selftest;
};

/// splitmix64 — the seed-derivation function for every generated input.
uint64_t Mix(uint64_t a, uint64_t b);

/// Deterministic stream over Mix (uniform doubles, bounded integers,
/// exponential gaps for Poisson arrivals).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return state_ = Mix(state_, 0x9E3779B97F4A7C15ULL); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Median and tail of a latency sample. The tail is the highest percentile
/// with at least 10 samples beyond it: sorted[n-11] at percentile
/// 100·(n-10)/n. With fewer than 11 samples the tail is the maximum.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  double max = 0.0;
};
LatencySummary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// {"min": .., "p50": .., "max": ..} of a sample, for the property report.
std::string MinMedianMax(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Outcome accounting of one workload or ladder step. Every attempted
/// operation ends in exactly one bucket:
///   attempted = ok + Σ typed failures + wrong.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;
  std::map<std::string, uint64_t> typed;  // status code name -> count

  uint64_t failed() const;
  bool Balanced() const;
  void Add(const Outcome& other);
  std::string ToJson() const;
};

/// Canonical digest of a match result: schema-QoM bits plus every
/// correspondence's paths and score bits, in order. Two results are
/// bit-identical iff their digests are equal (up to FNV collisions).
uint64_t ResultDigest(double schema_qom,
                      const std::vector<std::pair<std::string, std::string>>& paths,
                      const std::vector<double>& scores);
uint64_t ResultDigest(const qmatch::MatchResult& result);

/// One recorded span. Spans stay in memory and are written out (Chrome
/// trace_event JSON) when the run ends.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t op = 0;
};

class Tracer {
 public:
  Tracer();
  int Begin(std::string name, int parent, uint64_t op);
  void End(int id);
  /// Records a span whose interval was measured elsewhere.
  int Record(std::string name, Clock::time_point start, Clock::time_point end,
             int parent, uint64_t op);
  double DurationMs(int id) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Label-pair repeat tracker: for each operation (a list of label pairs
/// given as two label sets), the share of its distinct label pairs that an
/// earlier operation in the run already scored — the most a label
/// dictionary shared across requests could reuse.
class LabelPairHistory {
 public:
  /// Starts the next operation.
  void BeginOperation();
  /// Adds one matched pair's label sets to the current operation (an
  /// operation may match several pairs, e.g. one query per candidate).
  void AddPair(const std::vector<std::string>& source_labels,
               const std::vector<std::string>& target_labels);
  /// Replays the operations in order; repeat share per operation over the
  /// operation's distinct label pairs.
  std::vector<double> RepeatShares() const;
  /// Mean of RepeatShares() (0 with no operations).
  double MeanRepeatShare() const;

 private:
  using Block = std::pair<std::vector<uint32_t>, std::vector<uint32_t>>;
  std::vector<uint32_t> Intern(const std::vector<std::string>& labels,
                               std::map<std::string, uint32_t>* ids);
  std::map<std::string, uint32_t> source_ids_;
  std::map<std::string, uint32_t> target_ids_;
  std::vector<std::vector<Block>> ops_;
};

/// The benchmark's metric catalogue: end-to-end names with units (printed
/// with --trace 0) and per-layer names with units (printed with --trace 1).
/// BENCHMARK.json must list exactly these; test_perfbench.py checks it.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalogue();
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();

/// Prints a "report {...}" line (the workload property report).
void PrintReport(const std::string& json_object);

/// Prints the final result line and returns the exit code: non-zero when
/// the outputs were not correct. Every catalogue metric of the mode must be
/// present in `values` (missing ones fail the run).
int PrintResult(bool correct, const Outcome& outcome,
                const std::map<std::string, double>& values, bool trace);

std::string JsonNum(double v);
std::string JsonStr(const std::string& s);

/// Generated-input helpers shared by the workloads.
std::string DataPath(const Args& args, const std::string& rel);
std::string ScratchDir(const Args& args, const std::string& tag);

/// The core.cache_* per-layer values from two cache_stats() snapshots:
/// hit share, and hits, lookups and evictions per operation.
void CacheMetrics(const qmatch::core::MatchEngineCacheStats& before,
                  const qmatch::core::MatchEngineCacheStats& after, size_t ops,
                  std::map<std::string, double>* m);

/// Worker threads (besides the caller) for oracle reference work after a
/// timed loop: up to 4 threads in all.
size_t ReferenceWorkers();

/// Perturbation used for every derived schema (pair targets, revisions,
/// near-duplicates, queries): the library defaults without subtree drops,
/// so node counts — and with them the work per operation — do not swing
/// with the seed.
qmatch::datagen::PerturbOptions SizeStablePerturb(uint64_t seed);

}  // namespace qbench

#endif  // QBENCH_COMMON_H_
