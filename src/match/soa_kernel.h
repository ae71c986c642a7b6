#ifndef QMATCH_MATCH_SOA_KERNEL_H_
#define QMATCH_MATCH_SOA_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "lingua/name_match.h"
#include "match/property_matcher.h"
#include "qom/pair_qom.h"
#include "qom/weights.h"
#include "xsd/flatten.h"

namespace qmatch::match {

/// Everything the SoA fill needs from QMatchConfig, flattened so the match
/// layer does not depend on core. `weights` must already carry any
/// label-only renormalisation (Eq. 6/7); `label_only`/`capped` mirror the
/// MatchMode rungs.
struct SoaKernelConfig {
  qom::Weights weights;
  double threshold = 0.5;
  /// True = best-target-per-child accumulation; false = paper-literal
  /// (every child pair above threshold contributes).
  bool best_match_accumulation = true;
  /// True = graded level axis (1/(1+gap)); false = binary.
  bool level_graded = false;
  double leaf_to_inner_children_credit = 0.5;
  bool label_only = false;
  bool capped = false;
  size_t children_depth_cap = 0;
  /// Borrowed; must outlive the call. Unused when `token_memo` is set.
  const lingua::NameMatcher* name_matcher = nullptr;
  /// Borrowed, nullable: when set, the label scorers score with the memo's
  /// own matcher, start from the pairs it holds and add theirs to it.
  lingua::TokenSimilarityMemo* token_memo = nullptr;
  PropertyMatchOptions property_options;
};

struct SoaKernelResult {
  StopReason stop = StopReason::kNone;
  size_t completed_rows = 0;
};

/// The pairwise table the kernel fills (DESIGN.md §13), 9 bytes per pair:
/// source-major `qom` and `category` columns of source.size()*target.size()
/// cells — the only two fields a parent row reads back — plus the
/// distinct-label class matrix (source.labels.size()*target.labels.size()
/// bytes, qom::AxisMatch values) that selection's label-evidence gate reads
/// through the flat label ids. Caller-owned; the kernel writes every cell
/// of a completed row and never reads an incomplete one.
struct CompactTable {
  double* qom = nullptr;
  uint8_t* category = nullptr;
  uint8_t* label_cls = nullptr;
};

/// Bytes of the CompactTable for `source` x `target`.
size_t CompactTableBytes(const xsd::FlatSchema& source,
                         const xsd::FlatSchema& target);

/// Fills `table` with the weighted QoM and taxonomy category of every node
/// pair. Each axis is a pure function evaluated on the same inputs in the
/// same order as the paper's recursive TreeMatch (Fig. 3); the kernel only
/// *deduplicates*: label matches are computed once per distinct (source
/// label, target label), property matches once per distinct
/// packed-descriptor pair, and level matches once per distinct (source
/// level, target level), then broadcast through the interned id columns in
/// one fused pass per cell.
///
/// All scratch (the distinct-pair score matrices) comes from `arena`,
/// allocated on the calling thread before any fan-out to `pool`. `control`
/// (nullable) is polled once per label-matrix row and property-matrix row
/// (where the `treematch.precompute` failpoint also fires) and once per
/// pair in the row fill (where `treematch.pair` fires). On a trip the fill
/// stops cooperatively and `row_done` marks exactly the source rows whose
/// every cell is complete (the monotone-partial contract of DESIGN.md §10);
/// a stop during the precompute completes no row.
SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             const CompactTable& table,
                             std::vector<char>& row_done, ThreadPool* pool,
                             const ExecControl* control, Arena* arena);

/// The full per-axis decomposition of cell (i, j), recomputed on demand
/// from the pure axis functions the fill uses: `label` is the pair's
/// lingua::PairwiseLabelScorer match and `properties` its MatchProperties
/// result, the level axis is re-evaluated, and the children axis is read
/// back from the columns of the child rows (which must be complete) by the
/// helper the row fill calls for every cell. Bit-identical to what the fill
/// computed for the cell.
qom::PairQoM DecomposeCell(const xsd::FlatSchema& source,
                           const xsd::FlatSchema& target,
                           const SoaKernelConfig& config, size_t i, size_t j,
                           const lingua::LabelMatch& label,
                           const PropertyMatch& properties, const double* qom,
                           const uint8_t* category);

/// Expanded-table form of the fill, kept only for the benchmark's replay
/// (perfbench/): runs the compact fill above, then expands every cell of
/// each completed row into `table` through DecomposeCell. Not a second
/// kernel.
SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* arena);

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_SOA_KERNEL_H_
