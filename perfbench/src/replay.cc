#include "replay.h"

#include <vector>

#include "core/engine.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/assignment.h"
#include "match/soa_kernel.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"

namespace qbench {

using qmatch::core::QMatchConfig;
namespace xsd = qmatch::xsd;

namespace {

// The SoA kernel fans label rows out only from this label-matrix size up.
constexpr size_t kMinParallelLabelPairs = 4096;

// Keeps the replayed label scores observable so the loop is not elided.
volatile double g_label_sink = 0.0;

}  // namespace

void StageSample::Add(const StageSample& o) {
  parse_ms += o.parse_ms;
  flatten_ms += o.flatten_ms;
  parse_calls += o.parse_calls;
  flatten_calls += o.flatten_calls;
  label_ms += o.label_ms;
  label_pairs += o.label_pairs;
  node_pairs += o.node_pairs;
  fill_ms += o.fill_ms;
  select_ms += o.select_ms;
  analyze_ms += o.analyze_ms;
}

Replayer::Replayer(bool parallel)
    : pool_(parallel ? std::make_unique<qmatch::ThreadPool>(1) : nullptr) {}

StageSample Replayer::Replay(const xsd::Schema& source, const xsd::Schema& target,
                             Tracer* tracer, int parent, uint64_t op) {
  return Run(source, target, /*fresh_target=*/false, StageSample{}, tracer, parent, op);
}

StageSample Replayer::ReplayFromText(const xsd::Schema& source,
                                     const std::string& target_text, Tracer* tracer,
                                     int parent, uint64_t op) {
  StageSample sample;
  const int parse_span = tracer->Begin("xsd.parse", parent, op);
  qmatch::Result<xsd::Schema> parsed = xsd::ParseSchema(target_text);
  tracer->End(parse_span);
  sample.parse_ms = tracer->DurationMs(parse_span);
  sample.parse_calls = 1;
  if (!parsed.ok()) return sample;
  return Run(source, *parsed, /*fresh_target=*/true, sample, tracer, parent, op);
}

StageSample Replayer::Run(const xsd::Schema& source, const xsd::Schema& target,
                          bool fresh_target, StageSample sample, Tracer* tracer,
                          int parent, uint64_t op) {
  const QMatchConfig& config = matcher_.config();
  const xsd::FlatSchema& fs = source.Flat();
  xsd::FlatSchema fresh_flat;
  if (fresh_target) {
    // Flatten a freshly parsed schema, as the first Flat() of a corpus
    // candidate does inside the engine. The copy is not cached, so the
    // Analyze below flattens again — and that flatten is subtracted from
    // its self time.
    const int span = tracer->Begin("xsd.flatten", parent, op);
    fresh_flat = xsd::BuildFlatSchema(target);
    tracer->End(span);
    sample.flatten_ms = tracer->DurationMs(span);
    sample.flatten_calls = 1;
  }
  const xsd::FlatSchema& ft = fresh_target ? fresh_flat : target.Flat();
  const size_t n = fs.size();
  const size_t m = ft.size();
  sample.node_pairs = n * m;
  // MatchEngine::Match hands its pool to the fill only from this table size
  // up; the workloads' engines keep the default.
  qmatch::ThreadPool* pool =
      n * m >= qmatch::core::MatchEngineOptions{}.min_parallel_pairs ? pool_.get() : nullptr;
  const qmatch::lingua::NameMatcher name_matcher(&qmatch::lingua::DefaultThesaurus(),
                                                 config.name_options);

  // Label matrix: the scorer over the distinct labels, every pair scored.
  {
    const size_t nl = fs.labels.size();
    const size_t ml = ft.labels.size();
    sample.label_pairs = nl * ml;
    std::vector<double> row_sums(nl, 0.0);
    const int span = tracer->Begin("lingua.label_matrix", parent, op);
    qmatch::lingua::PairwiseLabelScorer scorer(name_matcher, fs.labels, ft.labels);
    auto fill_row = [&](size_t a) {
      double sum = 0.0;
      for (size_t b = 0; b < ml; ++b) sum += scorer.Match(a, b).score;
      row_sums[a] = sum;
    };
    if (pool != nullptr && nl * ml >= kMinParallelLabelPairs) {
      scorer.Precompute();
      pool->ParallelFor(nl, fill_row);
    } else {
      for (size_t a = 0; a < nl; ++a) fill_row(a);
    }
    tracer->End(span);
    sample.label_ms = tracer->DurationMs(span);
    double total = 0.0;
    for (double s : row_sums) total += s;
    g_label_sink = g_label_sink + total;
  }

  // Fill and select over a table of the engine's layout.
  {
    std::vector<qmatch::qom::PairQoM> table(n * m);
    std::vector<char> row_done(n, 0);
    qmatch::Arena arena(qmatch::Arena::kDefaultBlockBytes, nullptr);
    qmatch::match::SoaKernelConfig kc;
    kc.weights = config.weights;
    kc.threshold = config.threshold;
    kc.best_match_accumulation =
        config.child_accumulation == QMatchConfig::ChildAccumulation::kBestMatch;
    kc.level_graded = config.level_mode == QMatchConfig::LevelMode::kGraded;
    kc.leaf_to_inner_children_credit = config.leaf_to_inner_children_credit;
    kc.name_matcher = &name_matcher;
    kc.property_options = config.property_options;
    const int fill_span = tracer->Begin("match.fill", parent, op);
    qmatch::match::SoaFillTable(fs, ft, kc, table.data(), row_done, pool, nullptr,
                                &arena);
    tracer->End(fill_span);
    sample.fill_ms = tracer->DurationMs(fill_span);

    const std::vector<const xsd::SchemaNode*> src = source.AllNodes();
    const std::vector<const xsd::SchemaNode*> tgt = target.AllNodes();
    qmatch::match::AssignmentInput input;
    input.sources = &src;
    input.targets = &tgt;
    input.score = [&](size_t i, size_t j) { return table[i * m + j].qom; };
    if (config.require_label_evidence) {
      input.eligible = [&](size_t i, size_t j) {
        return table[i * m + j].label_cls != qmatch::qom::AxisMatch::kNone;
      };
    }
    input.threshold = config.threshold;
    input.ambiguity_margin = config.ambiguity_margin;
    const int select_span = tracer->Begin("match.select", parent, op);
    const std::vector<qmatch::Correspondence> chosen =
        qmatch::match::SelectCorrespondences(input, config.assignment);
    tracer->End(select_span);
    sample.select_ms = tracer->DurationMs(select_span);
    g_label_sink = g_label_sink + static_cast<double>(chosen.size());
  }

  // The whole in-process match (its table allocation and extraction are
  // what the stages above do not cover).
  {
    const int span = tracer->Begin("core.analyze", parent, op);
    qmatch::core::QMatch::Analysis analysis = matcher_.Analyze(source, target, pool);
    tracer->End(span);
    sample.analyze_ms = tracer->DurationMs(span);
    g_label_sink = g_label_sink + analysis.result().schema_qom;
  }
  return sample;
}

}  // namespace qbench
