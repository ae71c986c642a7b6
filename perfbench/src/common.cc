#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/file_util.h"

namespace qbench {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + b + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Exponential(double mean) {
  double u = Uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) * mean;
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.p50 = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  s.max = values.back();
  if (n >= 11) {
    s.tail = values[n - 11];
    s.tail_percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    s.tail = values.back();
    s.tail_percentile = 100.0;
  }
  return s;
}

double Median(std::vector<double> values) { return Summarize(std::move(values)).p50; }

std::string MinMedianMax(const std::vector<double>& values) {
  const double min = values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
  const LatencySummary s = Summarize(values);
  return "{\"min\": " + JsonNum(min) + ", \"p50\": " + JsonNum(s.p50) +
         ", \"max\": " + JsonNum(s.max) + "}";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Outcome::failed() const {
  uint64_t f = wrong;
  for (const auto& [code, count] : typed) f += count;
  return f;
}

bool Outcome::Balanced() const { return attempted == ok + failed(); }

void Outcome::Add(const Outcome& other) {
  attempted += other.attempted;
  ok += other.ok;
  wrong += other.wrong;
  for (const auto& [code, count] : other.typed) typed[code] += count;
}

std::string Outcome::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"ok\": " + std::to_string(ok) +
                    ", \"wrong\": " + std::to_string(wrong) + ", \"typed\": {";
  bool first = true;
  for (const auto& [code, count] : typed) {
    if (!first) out += ", ";
    first = false;
    out += JsonStr(code) + ": " + std::to_string(count);
  }
  return out + "}}";
}

namespace {

void Fnv(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= 0x100000001B3ULL;
  }
}

void FnvDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Fnv(h, &bits, sizeof(bits));
}

}  // namespace

uint64_t ResultDigest(double schema_qom,
                      const std::vector<std::pair<std::string, std::string>>& paths,
                      const std::vector<double>& scores) {
  uint64_t h = 0xCBF29CE484222325ULL;
  FnvDouble(&h, schema_qom);
  for (size_t i = 0; i < paths.size(); ++i) {
    Fnv(&h, paths[i].first.data(), paths[i].first.size());
    Fnv(&h, "\0", 1);
    Fnv(&h, paths[i].second.data(), paths[i].second.size());
    Fnv(&h, "\0", 1);
    FnvDouble(&h, scores[i]);
  }
  return h;
}

uint64_t ResultDigest(const qmatch::MatchResult& result) {
  std::vector<std::pair<std::string, std::string>> paths;
  std::vector<double> scores;
  paths.reserve(result.correspondences.size());
  for (const qmatch::Correspondence& c : result.correspondences) {
    paths.emplace_back(c.source->Path(), c.target->Path());
    scores.push_back(c.score);
  }
  return ResultDigest(result.schema_qom, paths, scores);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(std::string name, int parent, uint64_t op) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.op = op;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
}

int Tracer::Record(std::string name, Clock::time_point start, Clock::time_point end,
                   int parent, uint64_t op) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.op = op;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::DurationMs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": " + JsonStr(s.name) + ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1" +
           ", \"ts\": " + JsonNum(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " + JsonNum(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"op\": " + std::to_string(s.op) + "}}";
  }
  out += "\n]}\n";
  return qmatch::WriteFile(path, out).ok();
}

std::vector<uint32_t> LabelPairHistory::Intern(const std::vector<std::string>& labels,
                                               std::map<std::string, uint32_t>* ids) {
  std::vector<uint32_t> out;
  out.reserve(labels.size());
  for (const std::string& l : labels) {
    out.push_back(ids->try_emplace(l, static_cast<uint32_t>(ids->size())).first->second);
  }
  return out;
}

void LabelPairHistory::BeginOperation() { ops_.emplace_back(); }

void LabelPairHistory::AddPair(const std::vector<std::string>& source_labels,
                               const std::vector<std::string>& target_labels) {
  if (ops_.empty()) BeginOperation();
  ops_.back().emplace_back(Intern(source_labels, &source_ids_),
                           Intern(target_labels, &target_ids_));
}

std::vector<double> LabelPairHistory::RepeatShares() const {
  // Two bits per (source label, target label) over the run's vocabulary:
  // scored by an earlier operation, and already counted in this one.
  const size_t width = target_ids_.size();
  const size_t bits = source_ids_.size() * width;
  std::vector<uint64_t> seen((bits + 63) / 64, 0);
  std::vector<uint64_t> in_op((bits + 63) / 64, 0);
  std::vector<double> shares;
  shares.reserve(ops_.size());
  for (const std::vector<Block>& op : ops_) {
    uint64_t repeat = 0;
    uint64_t total = 0;
    for (const auto& [s, t] : op) {
      for (uint32_t a : s) {
        for (uint32_t b : t) {
          const size_t bit = static_cast<size_t>(a) * width + b;
          const uint64_t mask = uint64_t{1} << (bit % 64);
          if ((in_op[bit / 64] & mask) != 0) continue;
          in_op[bit / 64] |= mask;
          ++total;
          if ((seen[bit / 64] & mask) != 0) ++repeat;
        }
      }
    }
    for (size_t w = 0; w < seen.size(); ++w) {
      seen[w] |= in_op[w];
      in_op[w] = 0;
    }
    shares.push_back(total == 0 ? 0.0
                                : static_cast<double>(repeat) / static_cast<double>(total));
  }
  return shares;
}

double LabelPairHistory::MeanRepeatShare() const {
  const std::vector<double> shares = RepeatShares();
  double sum = 0.0;
  for (double s : shares) sum += s;
  return shares.empty() ? 0.0 : sum / static_cast<double>(shares.size());
}

const std::vector<std::pair<std::string, std::string>>& EndToEndCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"setup_s", "s"},          {"latency_ms_p50", "ms"}, {"latency_ms_tail", "ms"},
      {"goodput_per_s", "1/s"},  {"success_share", "ratio"}, {"peak_rss_mb", "MB"},
      {"submit_ms_p50", "ms"},   {"submit_ms_tail", "ms"}, {"max_rate_rps", "1/s"},
  };
  return kCatalogue;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"xsd.parse_ms", "ms"},
      {"xsd.parse_calls", "count"},
      {"xsd.flatten_ms", "ms"},
      {"xsd.flatten_calls", "count"},
      {"lingua.label_matrix_ms", "ms"},
      {"lingua.distinct_label_pairs", "count"},
      {"lingua.label_dedup_ratio", "ratio"},
      {"lingua.label_pair_repeat_share", "ratio"},
      {"match.fill_ms", "ms"},
      {"match.fill_rest_ms", "ms"},
      {"match.select_ms", "ms"},
      {"core.analyze_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.table_mb", "MB"},
      {"core.node_pairs", "count"},
      {"core.engine_self_ms", "ms"},
      {"core.cache_hit_share", "ratio"},
      {"core.cache_hits", "count"},
      {"core.cache_lookups", "count"},
      {"core.cache_evictions", "count"},
      {"net.rtt_ms.match_pair", "ms"},
      {"net.rtt_ms.submit_schema", "ms"},
      {"net.server_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.generator_lag_ms", "ms"},
      {"net.backlog_max", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ms"},
  };
  return kCatalogue;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintReport(const std::string& json_object) {
  std::printf("report %s\n", json_object.c_str());
  std::fflush(stdout);
}

int PrintResult(bool correct, const Outcome& outcome,
                const std::map<std::string, double>& values, bool trace) {
  const auto& catalogue = trace ? PerLayerCatalogue() : EndToEndCatalogue();
  std::string metrics;
  for (const auto& [name, unit] : catalogue) {
    const auto it = values.find(name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "qbench: metric %s was not measured\n", name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonStr(name) + ": {\"value\": " + JsonNum(it->second) +
               ", \"unit\": " + JsonStr(unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string DataPath(const Args& args, const std::string& rel) {
  return args.root + "/data/" + rel;
}

std::string ScratchDir(const Args& args, const std::string& tag) {
  const char* target = std::getenv("CARGO_TARGET_DIR");
  std::string base = (target != nullptr && *target != '\0') ? target : ".bench_build";
  if (base[0] != '/') base = args.root + "/" + base;
  return base + "/" + tag;
}

void CacheMetrics(const qmatch::core::MatchEngineCacheStats& before,
                  const qmatch::core::MatchEngineCacheStats& after, size_t ops,
                  std::map<std::string, double>* m) {
  const double k = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      static_cast<double>(after.hits + after.misses - before.hits - before.misses);
  (*m)["core.cache_hit_share"] = lookups > 0 ? hits / lookups : 0.0;
  (*m)["core.cache_hits"] = hits * k;
  (*m)["core.cache_lookups"] = lookups * k;
  (*m)["core.cache_evictions"] = static_cast<double>(after.evictions - before.evictions) * k;
}

size_t ReferenceWorkers() {
  return std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency())) - 1;
}

qmatch::datagen::PerturbOptions SizeStablePerturb(uint64_t seed) {
  qmatch::datagen::PerturbOptions po;
  po.drop_prob = 0.0;
  po.seed = seed;
  return po;
}

}  // namespace qbench
