// The two in-process, closed-loop workloads: pair-large (MatchEngine::Match
// on large pairs, result cache off) and corpus-search
// (MatchEngine::MatchCorpus of fresh queries against a generated XSD
// repository on disk).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/file_util.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "lingua/default_thesaurus.h"
#include "replay.h"
#include "workloads.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qbench {

namespace core = qmatch::core;
namespace datagen = qmatch::datagen;
namespace xsd = qmatch::xsd;

namespace {

constexpr int kSetupRepetitions = 5;

std::string CodeName(const qmatch::Status& status) {
  return std::string(qmatch::StatusCodeToString(status.code()));
}

/// One write-path input: a schema revision as XSD text, with the node
/// count and preorder path digest of the in-memory schema it was
/// serialised from.
struct Revision {
  std::string name;
  std::string text;
  size_t nodes = 0;
  uint64_t path_digest = 0;
  /// Fingerprint of the first parse of `text` (parsing is deterministic,
  /// so every later registration must reproduce it).
  uint64_t fingerprint = 0;
};

uint64_t PathDigest(const xsd::Schema& schema) {
  std::vector<std::pair<std::string, std::string>> paths;
  for (const xsd::SchemaNode* n : schema.AllNodes()) paths.emplace_back(n->Path(), "");
  return ResultDigest(0.0, paths, std::vector<double>(paths.size(), 0.0));
}

Revision MakeRevision(const xsd::Schema& base, uint64_t seed) {
  const datagen::PerturbOptions po = SizeStablePerturb(seed);
  const xsd::Schema revised = datagen::Perturb(base, po, nullptr);
  return Revision{revised.name(), xsd::ToXsd(revised), revised.NodeCount(),
                  PathDigest(revised), 0};
}

/// The in-process write path: XSD text to a registered, fingerprinted
/// schema — the work Server::ExecuteSubmitSchema does per SubmitSchema.
void TimedWrite(Revision& rev, std::vector<double>* latencies, Outcome* outcome) {
  ++outcome->attempted;
  xsd::ParseOptions parse;
  parse.schema_name = rev.name;
  const Clock::time_point t0 = Clock::now();
  qmatch::Result<xsd::Schema> schema = xsd::ParseSchema(rev.text, parse);
  uint64_t fp = 0;
  if (schema.ok()) fp = xsd::SchemaFingerprint(*schema);
  latencies->push_back(MsSince(t0));
  if (!schema.ok()) {
    ++outcome->typed[CodeName(schema.status())];
    return;
  }
  if (rev.fingerprint == 0) rev.fingerprint = fp;
  if (fp != rev.fingerprint || schema->NodeCount() != rev.nodes ||
      PathDigest(*schema) != rev.path_digest) {
    ++outcome->wrong;
  } else {
    ++outcome->ok;
  }
}

/// Warms the lazy one-time work a process pays once (thesaurus, first
/// match), then clears any result-cache entry the warm-up created.
void WarmEngine(core::MatchEngine& engine) {
  (void)qmatch::lingua::DefaultThesaurus();
  const xsd::Schema a = datagen::MakePO1();
  const xsd::Schema b = datagen::MakePO2();
  (void)engine.Match(a, b, core::EngineRequestOptions{});
  engine.ClearCache();
}

/// Per-layer values of the in-process workloads, per operation.
void StageMetrics(const StageSample& sum, size_t ops, double engine_ms_sum,
                  double threads_factor, std::map<std::string, double>* m) {
  const double k = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  (*m)["xsd.parse_ms"] = sum.parse_ms * k;
  (*m)["xsd.parse_calls"] = static_cast<double>(sum.parse_calls) * k;
  (*m)["xsd.flatten_ms"] = sum.flatten_ms * k;
  (*m)["xsd.flatten_calls"] = static_cast<double>(sum.flatten_calls) * k;
  (*m)["lingua.label_matrix_ms"] = sum.label_ms * k;
  (*m)["lingua.distinct_label_pairs"] = static_cast<double>(sum.label_pairs) * k;
  (*m)["lingua.label_dedup_ratio"] =
      sum.node_pairs == 0 ? 0.0
                          : static_cast<double>(sum.label_pairs) /
                                static_cast<double>(sum.node_pairs);
  (*m)["match.fill_ms"] = sum.fill_ms * k;
  (*m)["match.fill_rest_ms"] = (sum.fill_ms - sum.label_ms) * k;
  (*m)["match.select_ms"] = sum.select_ms * k;
  (*m)["core.analyze_ms"] = sum.analyze_ms * k;
  (*m)["core.self_ms"] = sum.CoreSelfMs() * k;
  (*m)["core.node_pairs"] = static_cast<double>(sum.node_pairs) * k;
  (*m)["core.table_mb"] = static_cast<double>(sum.node_pairs) *
                          static_cast<double>(sizeof(qmatch::qom::PairQoM)) /
                          (1024.0 * 1024.0) * k;
  // Stages the engine span contains, as wall time of `threads_factor`
  // concurrent workers (corpus candidates run side by side).
  const double staged = (sum.parse_ms + sum.analyze_ms) / threads_factor;
  (*m)["core.engine_self_ms"] = (engine_ms_sum - staged) * k;
  (*m)["trace.coverage"] = engine_ms_sum > 0 ? staged / engine_ms_sum : 0.0;
  for (const char* name : {"net.rtt_ms.match_pair", "net.rtt_ms.submit_schema",
                           "net.server_ms", "net.overhead_ms",
                           "net.generator_lag_ms", "net.backlog_max"}) {
    (*m)[name] = 0.0;  // no network layer on an in-process workload
  }
}

/// End-to-end values of a closed-loop, one-caller workload.
void ClosedLoopMetrics(double setup_s, const std::vector<double>& latencies,
                       const std::vector<double>& writes, const Outcome& outcome,
                       uint64_t ok_ops, double rss_mb,
                       std::map<std::string, double>* m) {
  const LatencySummary lat = Summarize(latencies);
  const LatencySummary wr = Summarize(writes);
  double busy_s = 0.0;
  for (double v : latencies) busy_s += v / 1000.0;
  const double goodput = busy_s > 0 ? static_cast<double>(ok_ops) / busy_s : 0.0;
  (*m)["setup_s"] = setup_s;
  (*m)["latency_ms_p50"] = lat.p50;
  (*m)["latency_ms_tail"] = lat.tail;
  (*m)["goodput_per_s"] = goodput;
  (*m)["success_share"] =
      outcome.attempted == 0
          ? 0.0
          : static_cast<double>(outcome.ok) / static_cast<double>(outcome.attempted);
  (*m)["peak_rss_mb"] = rss_mb;
  (*m)["submit_ms_p50"] = wr.p50;
  (*m)["submit_ms_tail"] = wr.tail;
  // A closed loop with one caller runs at exactly the rate it sustains.
  (*m)["max_rate_rps"] = goodput;
  std::printf("latency: %zu ops, p50 %.3f ms, tail p%.2f %.3f ms; writes %zu, p50 %.3f ms, "
              "tail p%.2f %.3f ms\n",
              lat.samples, lat.p50, lat.tail_percentile, lat.tail, wr.samples, wr.p50,
              wr.tail_percentile, wr.tail);
}

// ---------------------------------------------------------------------------
// pair-large
// ---------------------------------------------------------------------------

/// Generated pairs: source node counts (fixed, so every seed offers the same
/// sizes) and one shared protein-domain shape. With PIR × PDB the cycle has
/// five pairs, an odd count, so the median operation lies inside one
/// pair's cluster instead of on the gap between two.
constexpr size_t kGeneratedSizes[] = {1000, 1250, 1500, 1800};

struct LargePair {
  const xsd::Schema* source = nullptr;
  const xsd::Schema* target = nullptr;
  std::string name;
  Revision revision;
};

struct PairLargeInputs {
  std::vector<std::unique_ptr<xsd::Schema>> owned;
  std::vector<LargePair> pairs;  // pairs[0] = PIR × PDB
  std::unique_ptr<core::MatchEngine> engine;
};

qmatch::Result<xsd::Schema> ParseFile(const std::string& path) {
  qmatch::Result<std::string> text = qmatch::ReadFile(path);
  if (!text.ok()) return text.status();
  return xsd::ParseSchema(*text);
}

bool BuildPairLarge(const Args& args, PairLargeInputs* in) {
  auto own = [&](xsd::Schema s) {
    in->owned.push_back(std::make_unique<xsd::Schema>(std::move(s)));
    return in->owned.back().get();
  };
  qmatch::Result<xsd::Schema> pir = ParseFile(DataPath(args, "schemas/PIR.xsd"));
  qmatch::Result<xsd::Schema> pdb = ParseFile(DataPath(args, "schemas/PDB.xsd"));
  if (!pir.ok() || !pdb.ok()) {
    std::fprintf(stderr, "qbench: cannot load PIR/PDB: %s %s\n",
                 pir.status().ToString().c_str(), pdb.status().ToString().c_str());
    return false;
  }
  const xsd::Schema* s = own(std::move(*pir));
  const xsd::Schema* t = own(std::move(*pdb));
  in->pairs.push_back({s, t, "PIRxPDB", MakeRevision(*s, Mix(args.seed, 90))});
  for (size_t k = 0; k < std::size(kGeneratedSizes); ++k) {
    datagen::GeneratorOptions g;
    g.element_count = kGeneratedSizes[k];
    g.max_depth = 7;
    g.domain = datagen::Domain::kProtein;
    g.seed = Mix(args.seed, 10 + k);
    g.name = "Gen" + std::to_string(k);
    const xsd::Schema* gs = own(datagen::GenerateSchema(g));
    const datagen::PerturbOptions po = SizeStablePerturb(Mix(args.seed, 50 + k));
    const xsd::Schema* gt = own(datagen::Perturb(*gs, po, nullptr));
    in->pairs.push_back({gs, gt, "gen" + std::to_string(kGeneratedSizes[k]),
                         MakeRevision(*gs, Mix(args.seed, 91 + k))});
  }
  core::MatchEngineOptions eo;
  eo.threads = 2;
  eo.cache_capacity = 0;
  in->engine = std::make_unique<core::MatchEngine>(core::QMatchConfig{}, eo);
  for (const auto& schema : in->owned) (void)schema->Flat();
  WarmEngine(*in->engine);
  return true;
}

/// The golden rendering of data/expected/<task>.qom minus its header,
/// quality and schema-name lines: "schema_qom", "correspondences" and one
/// line per correspondence, all with 12 significant digits.
std::string RenderForGolden(const qmatch::MatchResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "schema_qom %.12g\n", r.schema_qom);
  std::string out = buf;
  out += "correspondences " + std::to_string(r.correspondences.size()) + "\n";
  for (const qmatch::Correspondence& c : r.correspondences) {
    std::snprintf(buf, sizeof(buf), " %.12g\n", c.score);
    out += c.source->Path() + " -> " + c.target->Path() + buf;
  }
  return out;
}

bool LoadGolden(const Args& args, const std::string& task, std::string* out) {
  qmatch::Result<std::string> text = qmatch::ReadFile(DataPath(args, "expected/" + task + ".qom"));
  if (!text.ok()) return false;
  out->clear();
  size_t pos = 0;
  while (pos < text->size()) {
    size_t end = text->find('\n', pos);
    if (end == std::string::npos) end = text->size();
    const std::string line = text->substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#' || line.rfind("schema ", 0) == 0 ||
        line.rfind("quality ", 0) == 0) {
      continue;
    }
    *out += line + "\n";
  }
  return !out->empty();
}

}  // namespace

int RunPairLarge(const Args& args) {
  // --- setup (timed, repeated; the last repetition's inputs are used) ---
  std::vector<double> setup_times;
  PairLargeInputs in;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    in = PairLargeInputs{};
    const Clock::time_point t0 = Clock::now();
    if (!BuildPairLarge(args, &in)) return 1;
    setup_times.push_back(MsSince(t0) / 1000.0);
  }
  // --- oracle references (not part of setup_s) ---
  std::string golden;
  if (!LoadGolden(args, "Protein", &golden)) {
    std::fprintf(stderr, "qbench: cannot read data/expected/Protein.qom\n");
    return 1;
  }
  std::vector<uint64_t> expect(in.pairs.size(), 0);
  {
    const core::QMatch reference;
    for (size_t i = 1; i < in.pairs.size(); ++i) {
      expect[i] = ResultDigest(reference.Match(*in.pairs[i].source, *in.pairs[i].target));
    }
  }
  const core::MatchEngine& engine = *in.engine;

  // --- measured loop: whole cycles over the pairs until time is up ---
  std::vector<double> latencies;
  std::vector<double> writes;
  std::vector<size_t> op_pair;  // pair index of every match op (untraced + traced)
  Outcome outcome;
  uint64_t ok_matches = 0;
  Tracer tracer;
  Replayer replayer(/*parallel=*/true);
  StageSample stage_sum;
  double traced_engine_ms = 0.0;
  std::vector<double> traced_latencies;
  size_t traced_ops = 0;
  core::MatchEngineCacheStats cache_before;

  auto one_match = [&](size_t p, bool traced, uint64_t op) {
    const LargePair& pair = in.pairs[p];
    int op_span = -1;
    int engine_span = -1;
    if (traced) {
      op_span = tracer.Begin("op", -1, op);
      engine_span = tracer.Begin("engine.Match", op_span, op);
    }
    const Clock::time_point t0 = Clock::now();
    const core::EngineMatchResult r =
        engine.Match(*pair.source, *pair.target, core::EngineRequestOptions{});
    const double ms = MsSince(t0);
    if (traced) tracer.End(engine_span);
    ++outcome.attempted;
    if (!r.ok()) {
      ++outcome.typed[CodeName(r.status)];
    } else if (p == 0 ? RenderForGolden(r.result) != golden
                      : ResultDigest(r.result) != expect[p]) {
      ++outcome.wrong;
    } else {
      ++outcome.ok;
      ++ok_matches;
    }
    op_pair.push_back(p);
    if (!traced) {
      latencies.push_back(ms);
      return;
    }
    traced_latencies.push_back(tracer.DurationMs(engine_span));
    traced_engine_ms += tracer.DurationMs(engine_span);
    ++traced_ops;
    const int replay_span = tracer.Begin("replay", op_span, op);
    stage_sum.Add(replayer.Replay(*pair.source, *pair.target, &tracer, replay_span, op));
    tracer.End(replay_span);
    tracer.End(op_span);
  };

  // One untimed pass over the pairs first: a process's first large tables
  // run measurably slower (allocator and page-mapping warm-up).
  for (const LargePair& pair : in.pairs) {
    (void)engine.Match(*pair.source, *pair.target, core::EngineRequestOptions{});
  }
  const Clock::time_point start = Clock::now();
  const double total_ms = args.seconds * 1000.0;
  // Traced runs measure a quarter untraced first (the trace.overhead base).
  const double untraced_ms = args.trace ? total_ms / 4 : total_ms;
  uint64_t op = 0;
  bool traced_phase = false;
  while (true) {
    for (size_t p = 0; p < in.pairs.size(); ++p) {
      one_match(p, traced_phase, op++);
      TimedWrite(in.pairs[p].revision, &writes, &outcome);
      // The traced phase stops at the first operation past the deadline
      // (replays make its cycles long); untraced runs finish the cycle.
      if (traced_phase && MsSince(start) >= total_ms) break;
    }
    const double elapsed = MsSince(start);
    if (elapsed >= total_ms) break;
    if (args.trace && !traced_phase && elapsed >= untraced_ms) {
      traced_phase = true;
      cache_before = engine.cache_stats();
    }
  }
  const double rss = PeakRssMb();

  // --- workload property report (after the peak-RSS reading) ---
  LabelPairHistory history;
  std::vector<double> nm;
  for (size_t p : op_pair) {
    history.BeginOperation();
    history.AddPair(in.pairs[p].source->Flat().labels, in.pairs[p].target->Flat().labels);
    nm.push_back(static_cast<double>(in.pairs[p].source->NodeCount() *
                                     in.pairs[p].target->NodeCount()));
  }
  const double repeat_mean = history.MeanRepeatShare();
  std::string pairs_json;
  for (const LargePair& p : in.pairs) {
    if (!pairs_json.empty()) pairs_json += ", ";
    pairs_json += "{\"name\": " + JsonStr(p.name) +
                  ", \"source_nodes\": " + std::to_string(p.source->NodeCount()) +
                  ", \"target_nodes\": " + std::to_string(p.target->NodeCount()) + "}";
  }
  PrintReport("{\"workload\": \"pair-large\", \"seed\": " + std::to_string(args.seed) +
              ", \"pairs\": [" + pairs_json + "], \"node_pairs\": " + MinMedianMax(nm) +
              ", \"label_pair_repeat_share\": " + JsonNum(repeat_mean) +
              ", \"write_share\": " +
              JsonNum(static_cast<double>(writes.size()) /
                      static_cast<double>(writes.size() + op_pair.size())) +
              ", \"load_threads\": 1, \"engine_threads\": 2, \"accounting\": " +
              outcome.ToJson() + "}");

  const bool correct = outcome.wrong == 0 && outcome.Balanced() && ok_matches > 0;
  std::map<std::string, double> m;
  if (!args.trace) {
    ClosedLoopMetrics(Median(setup_times), latencies, writes, outcome, ok_matches, rss, &m);
    return PrintResult(correct, outcome, m, false);
  }
  StageMetrics(stage_sum, traced_ops, traced_engine_ms, 1.0, &m);
  CacheMetrics(cache_before, engine.cache_stats(), traced_ops, &m);
  m["lingua.label_pair_repeat_share"] = repeat_mean;
  m["trace.overhead"] = Median(traced_latencies) - Median(latencies);
  tracer.WriteChromeTrace(ScratchDir(args, "trace-pair-large.json"));
  return PrintResult(correct, outcome, m, true);
}

// ---------------------------------------------------------------------------
// corpus-search
// ---------------------------------------------------------------------------

namespace {

constexpr datagen::Domain kDomains[] = {
    datagen::Domain::kGeneric, datagen::Domain::kCommerce,
    datagen::Domain::kBibliographic, datagen::Domain::kProtein};
/// Repository base sizes per domain; every base also gets one perturbed
/// near-duplicate, so 4 domains × 5 sizes × 2 = 40 files of 50–300 nodes.
/// An odd number of size classes puts the median query inside one class
/// instead of on the gap between two.
constexpr size_t kCorpusSizes[] = {60, 110, 160, 220, 280};
constexpr size_t kBases = std::size(kDomains) * std::size(kCorpusSizes);

struct CorpusInputs {
  std::vector<xsd::Schema> bases;        // the generated originals
  std::vector<std::string> paths;        // repository files
  std::vector<std::string> texts;        // their contents
  std::vector<Revision> revisions;       // write-path inputs, one per file
  std::unique_ptr<core::MatchEngine> engine;
};

xsd::Schema MakeBase(uint64_t seed, size_t b) {
  datagen::GeneratorOptions g;
  g.domain = kDomains[b % std::size(kDomains)];
  g.element_count = kCorpusSizes[(b / std::size(kDomains)) % std::size(kCorpusSizes)];
  g.max_depth = 5;
  g.seed = Mix(seed, 200 + b);
  g.name = "Base" + std::to_string(b);
  return datagen::GenerateSchema(g);
}

/// Query k: a fresh perturbation of base (k mod 20) — near-duplicate
/// vocabulary, never the same schema twice. Cycling bases in this order
/// gives every run the same mix of sizes and domains.
xsd::Schema MakeQuery(const CorpusInputs& in, uint64_t seed, uint64_t k) {
  datagen::PerturbOptions po = SizeStablePerturb(Mix(seed, 100000 + k));
  po.name = "Query" + std::to_string(k);
  return datagen::Perturb(in.bases[k % kBases], po, nullptr);
}

bool BuildCorpus(const Args& args, const std::string& dir, CorpusInputs* in) {
  if (!qmatch::EnsureDir(dir).ok()) return false;
  for (size_t b = 0; b < kBases; ++b) in->bases.push_back(MakeBase(args.seed, b));
  for (size_t f = 0; f < 2 * kBases; ++f) {
    const xsd::Schema& base = in->bases[f % kBases];
    std::string text;
    if (f < kBases) {
      text = xsd::ToXsd(base);
    } else {
      const datagen::PerturbOptions po = SizeStablePerturb(Mix(args.seed, 300 + f));
      text = xsd::ToXsd(datagen::Perturb(base, po, nullptr));
    }
    const std::string path = dir + "/schema" + std::to_string(f) + ".xsd";
    if (!qmatch::WriteFile(path, text).ok()) return false;
    in->paths.push_back(path);
    in->texts.push_back(std::move(text));
    in->revisions.push_back(MakeRevision(base, Mix(args.seed, 400 + f)));
  }
  core::MatchEngineOptions eo;
  eo.threads = 2;
  in->engine = std::make_unique<core::MatchEngine>(core::QMatchConfig{}, eo);
  WarmEngine(*in->engine);
  return true;
}

/// Reference digests of query k against every repository file, computed
/// with the sequential core::QMatch over independently parsed candidates,
/// on up to 4 threads (the timed loop is over by then).
void ReferenceDigests(const CorpusInputs& in, const std::vector<xsd::Schema>& candidates,
                      uint64_t seed, uint64_t ops, std::vector<std::vector<uint64_t>>* out) {
  out->assign(ops, std::vector<uint64_t>(candidates.size(), 0));
  const core::QMatch reference;
  qmatch::ThreadPool pool(ReferenceWorkers());
  pool.ParallelFor(ops, [&](size_t k) {
    const xsd::Schema query = MakeQuery(in, seed, k);
    for (size_t c = 0; c < candidates.size(); ++c) {
      (*out)[k][c] = ResultDigest(reference.Match(query, candidates[c]));
    }
  });
}

}  // namespace

int RunCorpusSearch(const Args& args) {
  const std::string dir = ScratchDir(args, "corpus-" + std::to_string(args.seed));
  std::vector<double> setup_times;
  CorpusInputs in;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    in = CorpusInputs{};
    const Clock::time_point t0 = Clock::now();
    if (!BuildCorpus(args, dir, &in)) {
      std::fprintf(stderr, "qbench: cannot write the repository under %s\n", dir.c_str());
      return 1;
    }
    setup_times.push_back(MsSince(t0) / 1000.0);
  }
  const core::MatchEngine& engine = *in.engine;

  std::vector<double> latencies;
  std::vector<double> writes;
  std::vector<std::vector<uint64_t>> digests;  // per op, per entry (0 = failed)
  Outcome outcome;
  uint64_t ok_queries = 0;
  Tracer tracer;
  Replayer replayer(/*parallel=*/false);
  StageSample stage_sum;
  double traced_engine_ms = 0.0;
  std::vector<double> traced_latencies;
  size_t traced_ops = 0;
  core::MatchEngineCacheStats cache_before;
  core::CorpusMatchOptions copts;

  auto one_query = [&](uint64_t k, bool traced) {
    const xsd::Schema query = MakeQuery(in, args.seed, k);
    int op_span = -1;
    int engine_span = -1;
    if (traced) {
      op_span = tracer.Begin("op", -1, k);
      engine_span = tracer.Begin("engine.MatchCorpus", op_span, k);
    }
    const Clock::time_point t0 = Clock::now();
    const core::CorpusMatchResult r = engine.MatchCorpus(query, in.paths, copts);
    const double ms = MsSince(t0);
    if (traced) tracer.End(engine_span);
    ++outcome.attempted;
    std::vector<uint64_t> d(r.entries.size(), 0);
    std::string first_error;
    for (size_t e = 0; e < r.entries.size(); ++e) {
      if (r.entries[e].ok()) {
        d[e] = ResultDigest(r.entries[e].result);
      } else if (first_error.empty()) {
        first_error = CodeName(r.entries[e].status);
      }
    }
    digests.push_back(std::move(d));
    if (!first_error.empty()) {
      ++outcome.typed[first_error];
    } else {
      ++outcome.ok;  // provisional; the oracle below may move it to wrong
      ++ok_queries;
    }
    if (!traced) {
      latencies.push_back(ms);
      return;
    }
    traced_latencies.push_back(tracer.DurationMs(engine_span));
    traced_engine_ms += tracer.DurationMs(engine_span);
    ++traced_ops;
    const int replay_span = tracer.Begin("replay", op_span, k);
    for (const std::string& text : in.texts) {
      stage_sum.Add(replayer.ReplayFromText(query, text, &tracer, replay_span, k));
    }
    tracer.End(replay_span);
    tracer.End(op_span);
  };

  // A few untimed queries first (from another seed stream, so the timed
  // queries stay unseen); the cache entries they leave are cleared.
  for (uint64_t w = 0; w < std::size(kDomains); ++w) {
    (void)engine.MatchCorpus(MakeQuery(in, Mix(args.seed, 999), w), in.paths, copts);
  }
  in.engine->ClearCache();
  const Clock::time_point start = Clock::now();
  const double total_ms = args.seconds * 1000.0;
  const double untraced_ms = args.trace ? total_ms / 4 : total_ms;
  constexpr size_t kCycle = std::size(kCorpusSizes) * std::size(kDomains);
  uint64_t k = 0;
  bool traced_phase = false;
  while (true) {
    for (size_t c = 0; c < kCycle; ++c) {
      one_query(k, traced_phase);
      TimedWrite(in.revisions[k % in.revisions.size()], &writes, &outcome);
      ++k;
      if (traced_phase && MsSince(start) >= total_ms) break;
    }
    const double elapsed = MsSince(start);
    if (elapsed >= total_ms) break;
    if (args.trace && !traced_phase && elapsed >= untraced_ms) {
      traced_phase = true;
      cache_before = engine.cache_stats();
    }
  }
  const double rss = PeakRssMb();
  const uint64_t ops = k;
  const double measured_s = MsSince(start) / 1000.0;
  const Clock::time_point oracle_start = Clock::now();

  // --- oracle: every entry of every query against the reference ---
  std::vector<xsd::Schema> candidates;
  for (const std::string& text : in.texts) {
    qmatch::Result<xsd::Schema> s = xsd::ParseSchema(text);
    if (!s.ok()) return 1;
    candidates.push_back(std::move(*s));
  }
  std::vector<std::vector<uint64_t>> reference;
  ReferenceDigests(in, candidates, args.seed, ops, &reference);
  uint64_t wrong_queries = 0;
  for (uint64_t q = 0; q < ops; ++q) {
    bool typed_failure = false;
    bool mismatch = false;
    for (size_t e = 0; e < candidates.size(); ++e) {
      if (digests[q][e] == 0) typed_failure = true;
      else if (digests[q][e] != reference[q][e]) mismatch = true;
    }
    if (mismatch && !typed_failure) ++wrong_queries;
  }
  outcome.ok -= wrong_queries;
  outcome.wrong += wrong_queries;
  ok_queries -= wrong_queries;
  std::printf("phases: measured %.1f s, oracle %.1f s\n", measured_s,
              MsSince(oracle_start) / 1000.0);

  // --- workload property report ---
  LabelPairHistory history;
  std::vector<double> nm;
  for (uint64_t q = 0; q < ops; ++q) {
    const xsd::Schema query = MakeQuery(in, args.seed, q);
    history.BeginOperation();
    for (const xsd::Schema& c : candidates) {
      history.AddPair(query.Flat().labels, c.Flat().labels);
      nm.push_back(static_cast<double>(query.NodeCount() * c.NodeCount()));
    }
  }
  // Per query: the share of its distinct label pairs (over all candidates)
  // that an earlier query already scored.
  const double repeat_mean = history.MeanRepeatShare();
  std::vector<double> sizes;
  for (const xsd::Schema& c : candidates) sizes.push_back(static_cast<double>(c.NodeCount()));
  PrintReport("{\"workload\": \"corpus-search\", \"seed\": " + std::to_string(args.seed) +
              ", \"files\": " + std::to_string(candidates.size()) +
              ", \"file_nodes\": " + MinMedianMax(sizes) + ", \"node_pairs\": " + MinMedianMax(nm) +
              ", \"label_pair_repeat_share\": " + JsonNum(repeat_mean) +
              ", \"write_share\": " +
              JsonNum(static_cast<double>(writes.size()) /
                      static_cast<double>(writes.size() + ops)) +
              ", \"load_threads\": 1, \"engine_threads\": 2, \"accounting\": " +
              outcome.ToJson() + "}");

  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);  // the repository files
  const bool correct = outcome.wrong == 0 && outcome.Balanced() && ok_queries > 0;
  std::map<std::string, double> m;
  if (!args.trace) {
    ClosedLoopMetrics(Median(setup_times), latencies, writes, outcome, ok_queries, rss, &m);
    return PrintResult(correct, outcome, m, false);
  }
  StageMetrics(stage_sum, traced_ops, traced_engine_ms,
               static_cast<double>(engine.threads()), &m);
  CacheMetrics(cache_before, engine.cache_stats(), traced_ops, &m);
  m["lingua.label_pair_repeat_share"] = repeat_mean;
  m["trace.overhead"] = Median(traced_latencies) - Median(latencies);
  tracer.WriteChromeTrace(ScratchDir(args, "trace-corpus-search.json"));
  return PrintResult(correct, outcome, m, true);
}

}  // namespace qbench
