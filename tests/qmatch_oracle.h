#ifndef QMATCH_TESTS_QMATCH_ORACLE_H_
#define QMATCH_TESTS_QMATCH_ORACLE_H_

// Test-only reference for the QMatch table: the paper's recursive TreeMatch
// (Fig. 3), memoised, evaluated node by node over the schema trees. It has
// no pool, no observability and no cancellation — only the arithmetic, in
// the same order as the production kernel, so every cell, the schema QoM
// and the correspondences must agree with core::QMatch bit for bit.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/qmatch.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/assignment.h"
#include "match/property_matcher.h"
#include "xsd/schema.h"

namespace qmatch::test {

/// One oracle run: the full decomposition of every node pair (preorder,
/// source-major) plus the extracted result.
struct OracleRun {
  std::vector<const xsd::SchemaNode*> sources;
  std::vector<const xsd::SchemaNode*> targets;
  std::vector<qom::PairQoM> cells;
  MatchResult result;

  const qom::PairQoM& at(size_t i, size_t j) const {
    return cells[i * targets.size() + j];
  }
};

class QMatchOracle {
 public:
  explicit QMatchOracle(
      core::QMatchConfig config = {},
      const lingua::Thesaurus* thesaurus = &lingua::DefaultThesaurus())
      : config_(std::move(config)), name_matcher_(thesaurus,
                                                  config_.name_options) {}

  OracleRun Run(const xsd::Schema& source, const xsd::Schema& target,
                MatchMode mode = MatchMode::kFull,
                size_t children_depth_cap = 3) const {
    OracleRun run;
    run.result.algorithm = "hybrid";
    run.result.mode = mode;
    if (source.root() == nullptr || target.root() == nullptr) return run;
    run.sources = source.AllNodes();
    run.targets = target.AllNodes();
    State state(*this, run, mode, children_depth_cap);
    // TreeMatch of every node pair; the memo makes each pair one
    // evaluation whatever the visiting order.
    for (size_t i = 0; i < run.sources.size(); ++i) {
      for (size_t j = 0; j < run.targets.size(); ++j) state.TreeMatch(i, j);
    }

    match::AssignmentInput input;
    input.sources = &run.sources;
    input.targets = &run.targets;
    input.score = [&run](size_t i, size_t j) { return run.at(i, j).qom; };
    if (config_.require_label_evidence) {
      input.eligible = [&run](size_t i, size_t j) {
        return run.at(i, j).label_cls != qom::AxisMatch::kNone;
      };
    }
    input.threshold = config_.threshold;
    input.ambiguity_margin = config_.ambiguity_margin;
    run.result.correspondences =
        match::SelectCorrespondences(input, config_.assignment);
    run.result.schema_qom = run.at(0, 0).qom;
    return run;
  }

 private:
  class State {
   public:
    State(const QMatchOracle& oracle, OracleRun& run, MatchMode mode,
          size_t cap)
        : config_(oracle.config_),
          run_(run),
          label_only_(mode == MatchMode::kLabelOnly),
          capped_(mode == MatchMode::kCappedDepth),
          cap_(cap),
          scorer_(oracle.name_matcher_, Labels(run.sources),
                  Labels(run.targets)),
          done_(run.sources.size() * run.targets.size(), 0) {
      run.cells.assign(done_.size(), qom::PairQoM{});
      for (size_t i = 0; i < run.sources.size(); ++i) {
        source_index_[run.sources[i]] = i;
      }
      for (size_t j = 0; j < run.targets.size(); ++j) {
        target_index_[run.targets[j]] = j;
      }
      weights_ = config_.weights;
      if (label_only_) {
        // Eq. 6/7: the children weight mass is renormalized away.
        const double rest =
            weights_.label + weights_.properties + weights_.level;
        if (rest > 0.0) {
          weights_.label /= rest;
          weights_.properties /= rest;
          weights_.level /= rest;
        } else {
          weights_.label = weights_.properties = weights_.level = 1.0 / 3.0;
        }
        weights_.children = 0.0;
      }
    }

    const qom::PairQoM& TreeMatch(size_t i, size_t j) {
      qom::PairQoM& pair = run_.cells[i * run_.targets.size() + j];
      if (done_[i * run_.targets.size() + j] != 0) return pair;
      const xsd::SchemaNode* s = run_.sources[i];
      const xsd::SchemaNode* t = run_.targets[j];

      // Children axis (Eq. 3-5), recursing into the child pairs.
      if (label_only_) {
        pair.children = 0.0;
        pair.coverage = qom::Coverage::kNone;
        pair.children_all_exact = false;
      } else if (Leaf(s) && Leaf(t)) {
        pair.children = 1.0;
        pair.coverage = qom::Coverage::kTotal;
        pair.children_all_exact = true;
      } else if (Leaf(s)) {
        pair.children = config_.leaf_to_inner_children_credit;
        pair.coverage = qom::Coverage::kTotal;
        pair.children_all_exact = false;
      } else if (Leaf(t)) {
        pair.children = 0.0;
        pair.coverage = qom::Coverage::kNone;
        pair.children_all_exact = false;
      } else {
        const double child_total = static_cast<double>(s->child_count());
        double qom_sum = 0.0;
        double matched = 0.0;
        bool all_exact = true;
        for (const auto& sc : s->children()) {
          const size_t ci = source_index_.at(sc.get());
          if (config_.child_accumulation ==
              core::QMatchConfig::ChildAccumulation::kBestMatch) {
            double best = 0.0;
            const qom::PairQoM* best_pair = nullptr;
            for (const auto& tc : t->children()) {
              const qom::PairQoM& child =
                  TreeMatch(ci, target_index_.at(tc.get()));
              if (child.qom > best) {
                best = child.qom;
                best_pair = &child;
              }
            }
            if (best_pair != nullptr && best >= config_.threshold) {
              qom_sum += best;
              matched += 1.0;
              if (best_pair->category != qom::MatchCategory::kTotalExact) {
                all_exact = false;
              }
            }
          } else {
            for (const auto& tc : t->children()) {
              const qom::PairQoM& child =
                  TreeMatch(ci, target_index_.at(tc.get()));
              if (child.qom >= config_.threshold) {
                qom_sum += child.qom;
                matched += 1.0;
                if (child.category != qom::MatchCategory::kTotalExact) {
                  all_exact = false;
                }
              }
            }
          }
        }
        const double rw = qom_sum / child_total;
        const double rs = matched / child_total;
        pair.children = std::min(1.0, (rw + rs) / 2.0);
        if (matched <= 0.0) {
          pair.coverage = qom::Coverage::kNone;
          all_exact = false;
        } else if (matched >= child_total) {
          pair.coverage = qom::Coverage::kTotal;
        } else {
          pair.coverage = qom::Coverage::kPartial;
          all_exact = false;
        }
        pair.children_all_exact = all_exact;
      }

      // Label axis: no evidence scores 0.
      const lingua::LabelMatch lm = scorer_.Match(i, j);
      pair.label = lm.cls == lingua::LabelMatchClass::kNone ? 0.0 : lm.score;
      pair.label_cls = lm.cls == lingua::LabelMatchClass::kExact
                           ? qom::AxisMatch::kExact
                       : lm.cls == lingua::LabelMatchClass::kRelaxed
                           ? qom::AxisMatch::kRelaxed
                           : qom::AxisMatch::kNone;

      // Properties axis.
      const match::PropertyMatch pm =
          match::MatchProperties(*s, *t, config_.property_options);
      pair.properties = pm.score;
      pair.properties_cls = pm.cls == match::PropertyMatchClass::kExact
                                ? qom::AxisMatch::kExact
                            : pm.cls == match::PropertyMatchClass::kRelaxed
                                ? qom::AxisMatch::kRelaxed
                                : qom::AxisMatch::kNone;

      // Level axis.
      pair.level_cls = qom::AxisMatch::kNone;
      if (s->level() == t->level()) {
        pair.level = 1.0;
        pair.level_cls = qom::AxisMatch::kExact;
      } else if (config_.level_mode ==
                 core::QMatchConfig::LevelMode::kGraded) {
        const double gap = static_cast<double>(
            s->level() > t->level() ? s->level() - t->level()
                                    : t->level() - s->level());
        pair.level = 1.0 / (1.0 + gap);
      } else {
        pair.level = 0.0;
      }

      // Weighted total (Eq. 1/6) and taxonomy category.
      pair.qom = weights_.label * pair.label +
                 weights_.properties * pair.properties +
                 weights_.level * pair.level +
                 weights_.children * pair.children;
      pair.category =
          qom::Categorize(pair.label_cls, pair.properties_cls,
                          pair.level_cls, pair.coverage,
                          pair.children_all_exact);
      done_[i * run_.targets.size() + j] = 1;
      return pair;
    }

   private:
    static std::vector<std::string> Labels(
        const std::vector<const xsd::SchemaNode*>& nodes) {
      std::vector<std::string> labels;
      labels.reserve(nodes.size());
      for (const xsd::SchemaNode* node : nodes) labels.push_back(node->label());
      return labels;
    }

    bool Leaf(const xsd::SchemaNode* node) const {
      return node->IsLeaf() || (capped_ && node->level() >= cap_);
    }

    const core::QMatchConfig& config_;
    OracleRun& run_;
    const bool label_only_;
    const bool capped_;
    const size_t cap_;
    qom::Weights weights_;
    lingua::PairwiseLabelScorer scorer_;
    std::vector<char> done_;
    std::map<const xsd::SchemaNode*, size_t> source_index_;
    std::map<const xsd::SchemaNode*, size_t> target_index_;
  };

  core::QMatchConfig config_;
  lingua::NameMatcher name_matcher_;
};

}  // namespace qmatch::test

#endif  // QMATCH_TESTS_QMATCH_ORACLE_H_
