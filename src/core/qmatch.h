#ifndef QMATCH_CORE_QMATCH_H_
#define QMATCH_CORE_QMATCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "lingua/thesaurus.h"
#include "match/matcher.h"
#include "match/soa_kernel.h"
#include "qom/pair_qom.h"
#include "qom/taxonomy.h"
#include "xsd/flatten.h"
#include "xsd/schema.h"

namespace qmatch::core {

/// The per-node-pair QoM decomposition lives in the qom layer; the alias
/// keeps every `core::PairQoM` reference working.
using PairQoM = qom::PairQoM;

/// Degradation controls for one TreeMatch evaluation (see MatchMode). The
/// default (kFull) is byte-for-byte the undegraded algorithm.
struct TreeMatchOptions {
  MatchMode mode = MatchMode::kFull;
  /// kCappedDepth only: nodes at this level or deeper are treated as
  /// leaves on the children axis (their subtrees are not recursed into).
  size_t children_depth_cap = 3;
  /// Budget (borrowed, nullable) the kernel's scratch arena charges
  /// block-by-block; exhaustion throws ArenaExhausted, which the engine
  /// maps to kResourceExhausted.
  MemoryBudget* arena_budget = nullptr;
};

/// QMatch — the paper's hybrid match algorithm (Section 4, Fig. 3).
///
/// A recursive depth-first evaluation that combines the linguistic label
/// matcher, the property matcher (types on the XSD lattice, order,
/// occurrence constraints), the level axis and the recursively computed
/// children axis into one weighted QoM per node pair:
///
///   QoM(n1,n2) = WL·QoM_L + WP·QoM_P + WH·QoM_H + WC·QoM_C
///   QoM_C      = (Rw + Rs) / 2                              (Eq. 5)
///
/// where Rw is the normalised sum of child-pair QoMs above the threshold
/// (Eq. 3) and Rs the matched-children cardinality ratio (Eq. 4). The
/// implementation memoises the pairwise table bottom-up, giving the O(n·m)
/// evaluation count the paper claims for TreeMatch.
///
/// Children-axis edge cases (under-specified in the paper, see DESIGN.md):
///  - leaf vs leaf: exact children match by default (QoM_C = 1);
///  - leaf source vs non-leaf target: vacuously total coverage (the source
///    has no children to leave uncovered) but never exact;
///  - non-leaf source vs leaf target: no coverage (QoM_C = 0).
class QMatch : public Matcher {
 public:
  /// Uses the built-in default thesaurus and paper-default configuration.
  QMatch();
  explicit QMatch(QMatchConfig config);
  /// `thesaurus` is borrowed (may be null to disable the linguistic
  /// resource) and must outlive the matcher and every Analysis it returns,
  /// unmodified: the matcher memoises token similarities computed from it
  /// for its whole lifetime.
  QMatch(QMatchConfig config, const lingua::Thesaurus* thesaurus);

  std::string_view name() const override { return "hybrid"; }

  const QMatchConfig& config() const { return config_; }

  MatchResult Match(const xsd::Schema& source,
                    const xsd::Schema& target) const override;

  /// Same as Match, filling the pairwise QoM table across `pool` (nullptr
  /// or an empty pool = sequential). Bit-identical to the sequential path
  /// for every pool size: the table is sharded by source row within one
  /// source *level* at a time, which preserves the bottom-up memoisation
  /// (a pair only reads child pairs, and children live on deeper levels
  /// that are fully filled before the level starts), and each pair's
  /// arithmetic is untouched. See DESIGN.md "Parallel execution model".
  MatchResult Match(const xsd::Schema& source, const xsd::Schema& target,
                    ThreadPool* pool) const;

  /// The raw weighted QoM per pair (Eq. 1), before the label-evidence gate
  /// and mapping selection.
  match::SimilarityMatrix Similarity(const xsd::Schema& source,
                                     const xsd::Schema& target) const override;

  /// Pool-parallel variant of Similarity (same determinism contract as the
  /// three-argument Match).
  match::SimilarityMatrix Similarity(const xsd::Schema& source,
                                     const xsd::Schema& target,
                                     ThreadPool* pool) const;

  /// Full per-pair analysis of one match run. The returned object borrows
  /// nodes and their flattened projections from both schemas, which must
  /// outlive it unmodified.
  ///
  /// It keeps the kernel's compact table (DESIGN.md §13): the weighted QoM
  /// and category per pair plus the distinct-label class matrix. The
  /// per-axis values of a pair are recomputed on demand by Pair().
  class Analysis {
   public:
    /// The standard result (schema QoM + correspondences).
    const MatchResult& result() const { return result_; }

    /// Moves the result out, leaving the analysis without one — the
    /// engine's typed-request path uses this to avoid copying the
    /// correspondence vector.
    MatchResult TakeResult() { return std::move(result_); }

    /// The QoM decomposition of a specific node pair, recomputed from the
    /// axis functions the kernel uses (bit-identical to the fill), or
    /// nullopt when either node is not part of the analysed schemas or the
    /// pair's source row was not completed (a stopped run).
    std::optional<PairQoM> Pair(const xsd::SchemaNode* source,
                                const xsd::SchemaNode* target) const;

    /// Convenience path-based lookup ("/PO/PurchaseInfo", "/PurchaseOrder").
    std::optional<PairQoM> PairByPath(std::string_view source_path,
                                      std::string_view target_path) const;

    /// The root-pair decomposition (the tree match of Section 3); all zero
    /// when the root row was not computed.
    PairQoM Root() const;

    /// Multi-line, human-readable explanation of every reported
    /// correspondence: the per-axis scores and classifications plus the
    /// taxonomy category, sorted by descending QoM.
    std::string ExplainCorrespondences() const;

    /// Count of reported correspondences per taxonomy category (the
    /// qualitative summary of Section 2.2). Keys with zero count are
    /// omitted.
    std::map<qom::MatchCategory, size_t> CategoryHistogram() const;

    /// Why the table fill stopped early (kNone = ran to completion). Only
    /// ever non-kNone when an ExecControl was passed to Analyze.
    StopReason stop_reason() const { return stop_reason_; }

    /// Source rows whose entire table row was computed. Equal to
    /// total_rows() on a completed run; on a stopped run, correspondences
    /// are extracted from these rows only (see DESIGN.md §10 for the
    /// partial-result contract).
    size_t completed_rows() const { return completed_rows_; }
    size_t total_rows() const { return row_done_.size(); }

   private:
    friend class QMatch;
    /// The name matcher the fill used, plus the node-to-index maps and the
    /// label scorer Pair() builds on its first call (never on the match
    /// path).
    struct Lookup;
    std::optional<PairQoM> Cell(size_t i, size_t j) const;

    const xsd::Schema* source_schema_ = nullptr;
    const xsd::Schema* target_schema_ = nullptr;
    const xsd::FlatSchema* source_flat_ = nullptr;
    const xsd::FlatSchema* target_flat_ = nullptr;
    match::SoaKernelConfig kernel_config_;
    // The compact table, source-major: n*m QoMs and categories, and the
    // nl*ml distinct-label classes.
    std::unique_ptr<double[]> qom_;
    std::unique_ptr<uint8_t[]> category_;
    std::unique_ptr<uint8_t[]> label_cls_;
    std::vector<char> row_done_;
    std::shared_ptr<Lookup> lookup_;
    MatchResult result_;
    StopReason stop_reason_ = StopReason::kNone;
    size_t completed_rows_ = 0;
  };

  /// Runs the table fill, optionally across `pool` (nullptr = sequential;
  /// see the three-argument Match for the determinism contract).
  ///
  /// `control` (nullable) makes the run deadline/cancellation-aware: it is
  /// polled once per row of the label and property matrices and once per
  /// node pair during the row fill. When it trips, the fill stops
  /// cooperatively and the returned Analysis carries stop_reason() plus a
  /// *monotone partial result*: correspondences are extracted only from
  /// fully completed source rows, whose cells are bit-identical to the
  /// uninterrupted run's, so every reported pair is one the fault-free run
  /// would also report (kBestPerSource only — the injective strategies need
  /// the whole table, so a stopped run reports no correspondences there).
  /// A null or inactive `control` is byte-for-byte the uncontrolled run.
  ///
  /// `tree.mode` selects the rung of the overload ladder. kLabelOnly skips
  /// the children axis entirely and renormalizes the remaining weights per
  /// Eq. 6/7 (the label, property and level axis values stay bit-identical
  /// to the full run — only the weighting and the dropped axis change).
  /// kCappedDepth treats nodes at `tree.children_depth_cap` or deeper as
  /// leaves on the children axis. The result records the active mode;
  /// kFull (the default) is the undegraded algorithm.
  Analysis Analyze(const xsd::Schema& source, const xsd::Schema& target,
                   ThreadPool* pool = nullptr,
                   const ExecControl* control = nullptr,
                   const TreeMatchOptions& tree = {}) const;

 private:
  QMatchConfig config_;
  /// Token-similarity memo over the matcher's thesaurus and name options,
  /// shared by every Analyze of this matcher and of its copies and kept
  /// alive by every Analysis that may score labels again (DESIGN.md
  /// §13.5).
  std::shared_ptr<lingua::TokenSimilarityMemo> token_memo_;
};

}  // namespace qmatch::core

#endif  // QMATCH_CORE_QMATCH_H_
