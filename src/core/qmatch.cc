#include "core/qmatch.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/arena.h"
#include "common/string_util.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "lingua/token_memo.h"
#include "obs/obs.h"

namespace qmatch::core {

QMatch::QMatch() : QMatch(QMatchConfig{}, &lingua::DefaultThesaurus()) {}

QMatch::QMatch(QMatchConfig config)
    : QMatch(std::move(config), &lingua::DefaultThesaurus()) {}

QMatch::QMatch(QMatchConfig config, const lingua::Thesaurus* thesaurus)
    : config_(std::move(config)),
      token_memo_(std::make_shared<lingua::TokenSimilarityMemo>(
          thesaurus, config_.name_options)) {}

struct QMatch::Analysis::Lookup {
  explicit Lookup(std::shared_ptr<lingua::TokenSimilarityMemo> memo)
      : token_memo(std::move(memo)) {}

  /// The kernel's token memo (and so its name matcher) too: it lives here
  /// so the on-demand label scorer can borrow it after the fill.
  const std::shared_ptr<lingua::TokenSimilarityMemo> token_memo;
  std::mutex mu;
  std::unordered_map<const xsd::SchemaNode*, size_t> source_index;
  std::unordered_map<const xsd::SchemaNode*, size_t> target_index;
  std::optional<lingua::PairwiseLabelScorer> scorer;
};

std::optional<PairQoM> QMatch::Analysis::Cell(size_t i, size_t j) const {
  if (row_done_[i] == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(lookup_->mu);
  if (!lookup_->scorer.has_value()) {
    lookup_->scorer.emplace(*lookup_->token_memo, source_flat_->labels,
                            target_flat_->labels);
  }
  return match::DecomposeCell(
      *source_flat_, *target_flat_, kernel_config_, i, j,
      lookup_->scorer->Match(source_flat_->label_id[i],
                             target_flat_->label_id[j]),
      match::MatchProperties(*source_flat_->nodes[i], *target_flat_->nodes[j],
                             kernel_config_.property_options),
      qom_.get(), category_.get());
}

std::optional<PairQoM> QMatch::Analysis::Pair(
    const xsd::SchemaNode* source, const xsd::SchemaNode* target) const {
  if (lookup_ == nullptr) return std::nullopt;
  size_t i = 0;
  size_t j = 0;
  {
    std::lock_guard<std::mutex> lock(lookup_->mu);
    if (lookup_->source_index.empty()) {
      for (size_t k = 0; k < source_flat_->size(); ++k) {
        lookup_->source_index.emplace(source_flat_->nodes[k], k);
      }
      for (size_t k = 0; k < target_flat_->size(); ++k) {
        lookup_->target_index.emplace(target_flat_->nodes[k], k);
      }
    }
    auto is = lookup_->source_index.find(source);
    auto it = lookup_->target_index.find(target);
    if (is == lookup_->source_index.end() ||
        it == lookup_->target_index.end()) {
      return std::nullopt;
    }
    i = is->second;
    j = it->second;
  }
  return Cell(i, j);
}

std::optional<PairQoM> QMatch::Analysis::PairByPath(
    std::string_view source_path, std::string_view target_path) const {
  const xsd::SchemaNode* s = source_schema_->FindByPath(source_path);
  const xsd::SchemaNode* t = target_schema_->FindByPath(target_path);
  if (s == nullptr || t == nullptr) return std::nullopt;
  return Pair(s, t);
}

PairQoM QMatch::Analysis::Root() const {
  // Preorder puts both roots first.
  if (lookup_ == nullptr) return PairQoM{};
  return Cell(0, 0).value_or(PairQoM{});
}

std::string QMatch::Analysis::ExplainCorrespondences() const {
  std::vector<const Correspondence*> sorted;
  sorted.reserve(result_.correspondences.size());
  for (const Correspondence& c : result_.correspondences) {
    sorted.push_back(&c);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Correspondence* a, const Correspondence* b) {
              return a->score > b->score;
            });
  std::string out = StrFormat("schema QoM %.4f — %zu correspondences\n",
                              result_.schema_qom, sorted.size());
  for (const Correspondence* c : sorted) {
    const std::optional<PairQoM> pair = Pair(c->source, c->target);
    out += StrFormat("%s -> %s\n  %s\n", c->source->Path().c_str(),
                     c->target->Path().c_str(),
                     pair.has_value() ? pair->ToString().c_str() : "<?>");
  }
  return out;
}

std::map<qom::MatchCategory, size_t> QMatch::Analysis::CategoryHistogram()
    const {
  std::map<qom::MatchCategory, size_t> histogram;
  for (const Correspondence& c : result_.correspondences) {
    const std::optional<PairQoM> pair = Pair(c.source, c.target);
    if (pair.has_value()) ++histogram[pair->category];
  }
  return histogram;
}

QMatch::Analysis QMatch::Analyze(const xsd::Schema& source,
                                 const xsd::Schema& target, ThreadPool* pool,
                                 const ExecControl* control,
                                 const TreeMatchOptions& tree) const {
  Analysis analysis;
  analysis.source_schema_ = &source;
  analysis.target_schema_ = &target;
  analysis.result_.algorithm = std::string(name());
  analysis.result_.mode = tree.mode;
  if (source.root() == nullptr || target.root() == nullptr) return analysis;

  // Degradation ladder (see MatchMode). kLabelOnly drops the children axis
  // and renormalizes the remaining weight mass per Eq. 6/7, so the weighted
  // total still spans [0, 1]; the label/property/level axis *values* are
  // computed by exactly the code the full run uses, and stay bit-identical.
  // kCappedDepth treats nodes at the cap or deeper as leaves on the
  // children axis only. kFull leaves every branch byte-for-byte unchanged.
  const bool label_only = tree.mode == MatchMode::kLabelOnly;
  qom::Weights weights = config_.weights;
  if (label_only) {
    const double rest = weights.label + weights.properties + weights.level;
    if (rest > 0.0) {
      weights.label /= rest;
      weights.properties /= rest;
      weights.level /= rest;
    } else {
      weights.label = weights.properties = weights.level = 1.0 / 3.0;
    }
    weights.children = 0.0;
  }

  const xsd::FlatSchema& src = source.Flat();
  const xsd::FlatSchema& tgt = target.Flat();
  analysis.source_flat_ = &src;
  analysis.target_flat_ = &tgt;
  const size_t n = src.size();
  const size_t m = tgt.size();
  const size_t ml = tgt.labels.size();
  QMATCH_SPAN(treematch_span, "qmatch.treematch");
  QMATCH_SPAN_ARG(treematch_span, "source_nodes", n);
  QMATCH_SPAN_ARG(treematch_span, "target_nodes", m);
  QMATCH_COUNTER_ADD("qmatch.treematch.tables", 1);
  QMATCH_COUNTER_ADD("qmatch.treematch.pairs", n * m);

  analysis.lookup_ = std::make_shared<Analysis::Lookup>(token_memo_);
  match::SoaKernelConfig& kernel_config = analysis.kernel_config_;
  kernel_config.weights = weights;
  kernel_config.threshold = config_.threshold;
  kernel_config.best_match_accumulation =
      config_.child_accumulation == QMatchConfig::ChildAccumulation::kBestMatch;
  kernel_config.level_graded =
      config_.level_mode == QMatchConfig::LevelMode::kGraded;
  kernel_config.leaf_to_inner_children_credit =
      config_.leaf_to_inner_children_credit;
  kernel_config.label_only = label_only;
  kernel_config.capped = tree.mode == MatchMode::kCappedDepth;
  kernel_config.children_depth_cap = tree.children_depth_cap;
  kernel_config.token_memo = token_memo_.get();
  kernel_config.property_options = config_.property_options;

  // The compact table is left uninitialised: the kernel writes every cell
  // of a completed row, and nothing reads a row that did not complete.
  analysis.qom_ = std::make_unique_for_overwrite<double[]>(n * m);
  analysis.category_ = std::make_unique_for_overwrite<uint8_t[]>(n * m);
  analysis.label_cls_ =
      std::make_unique_for_overwrite<uint8_t[]>(src.labels.size() * ml);
  analysis.row_done_.assign(n, 0);
  {
    // Per-request scratch arena, charged against the request's memory
    // budget block-by-block; ArenaExhausted propagates to the engine,
    // which maps it to kResourceExhausted.
    Arena arena(Arena::kDefaultBlockBytes, tree.arena_budget);
    const match::SoaKernelResult run = match::SoaFillTable(
        src, tgt, kernel_config,
        match::CompactTable{analysis.qom_.get(), analysis.category_.get(),
                            analysis.label_cls_.get()},
        analysis.row_done_, pool, control, &arena);
    analysis.stop_reason_ = run.stop;
    analysis.completed_rows_ = run.completed_rows;
  }
  const double* qom = analysis.qom_.get();
  const uint8_t* label_cls = analysis.label_cls_.get();
  const std::vector<char>& row_done = analysis.row_done_;
#if QMATCH_OBS_ENABLED
  const uint64_t select_start = obs::MonotonicNowNs();
#endif
  // Correspondences are selected from the QoM table per the configured
  // assignment strategy over `sources`, whose k-th entry is table row
  // row(k). Each call site passes its own row map as a lambda, so the
  // full run's identity map compiles down to a direct table read.
  auto select_rows = [&](const std::vector<const xsd::SchemaNode*>& sources,
                         auto row) {
    match::AssignmentInput input;
    input.sources = &sources;
    input.targets = &tgt.nodes;
    input.score = [&, row](size_t i, size_t j) { return qom[row(i) * m + j]; };
    // Pairs without label evidence are never reported (see QMatchConfig).
    if (config_.require_label_evidence) {
      input.eligible = [&, row](size_t i, size_t j) {
        return label_cls[static_cast<size_t>(src.label_id[row(i)]) * ml +
                         tgt.label_id[j]] !=
               static_cast<uint8_t>(qom::AxisMatch::kNone);
      };
    }
    input.threshold = config_.threshold;
    input.ambiguity_margin = config_.ambiguity_margin;
    analysis.result_.correspondences =
        match::SelectCorrespondences(input, config_.assignment);
  };

  if (analysis.stop_reason_ == StopReason::kNone) {
    // The whole table (default strategy: the best target per source node,
    // the set P evaluated in Section 5).
    select_rows(src.nodes, [](size_t i) { return i; });
    analysis.result_.schema_qom = qom[0];
    QMATCH_COUNTER_ADD("qmatch.treematch.select_ns",
                       obs::MonotonicNowNs() - select_start);
    return analysis;
  }

  // Stopped early: extract the monotone partial result. Completed rows are
  // bit-identical to the uninterrupted run (a row only reads strictly
  // deeper rows, which were complete before it started), and kBestPerSource
  // decides each source node from its own row alone — so restricting the
  // assignment to completed rows reproduces exactly the correspondences the
  // full run reports for those sources. The injective strategies compete
  // across rows and cannot be restricted soundly; they report nothing.
  QMATCH_COUNTER_ADD("qmatch.treematch.stopped_tables", 1);
  const size_t completed = analysis.completed_rows_;
  if (config_.assignment == match::AssignmentStrategy::kBestPerSource &&
      completed > 0) {
    std::vector<const xsd::SchemaNode*> done_sources;
    std::vector<size_t> done_rows;
    done_sources.reserve(completed);
    done_rows.reserve(completed);
    for (size_t i = 0; i < n; ++i) {
      if (row_done[i] != 0) {
        done_sources.push_back(src.nodes[i]);
        done_rows.push_back(i);
      }
    }
    select_rows(done_sources, [&](size_t k) { return done_rows[k]; });
  }
  // The schema-level QoM lives in the root pair, which is computed last;
  // report it only when that row actually finished.
  if (row_done[0] != 0) analysis.result_.schema_qom = qom[0];
  QMATCH_COUNTER_ADD("qmatch.treematch.select_ns",
                     obs::MonotonicNowNs() - select_start);
  return analysis;
}

MatchResult QMatch::Match(const xsd::Schema& source,
                          const xsd::Schema& target) const {
  return Match(source, target, nullptr);
}

MatchResult QMatch::Match(const xsd::Schema& source, const xsd::Schema& target,
                          ThreadPool* pool) const {
  Analysis analysis = Analyze(source, target, pool);
  return std::move(analysis.result_);
}

match::SimilarityMatrix QMatch::Similarity(const xsd::Schema& source,
                                           const xsd::Schema& target) const {
  return Similarity(source, target, nullptr);
}

match::SimilarityMatrix QMatch::Similarity(const xsd::Schema& source,
                                           const xsd::Schema& target,
                                           ThreadPool* pool) const {
  const Analysis analysis = Analyze(source, target, pool);
  match::SimilarityMatrix matrix(source, target);
  if (analysis.qom_ != nullptr) {
    const size_t m = analysis.target_flat_->size();
    for (size_t i = 0; i < analysis.total_rows(); ++i) {
      std::copy_n(analysis.qom_.get() + i * m, m, matrix.row(i));
    }
  }
  return matrix;
}

}  // namespace qmatch::core
