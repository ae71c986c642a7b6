#include "match/soa_kernel.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "fault/failpoint.h"
#include "lingua/token_memo.h"
#include "obs/obs.h"
#include "qom/taxonomy.h"

namespace qmatch::match {

namespace {

/// One atomic-valued axis: score plus qualitative class.
struct AxisValue {
  double score = 0.0;
  qom::AxisMatch cls = qom::AxisMatch::kNone;
};

// The label axis scores 0.0 when the class is kNone (a label without
// evidence contributes nothing to Eq. 1).
AxisValue LabelAxis(const lingua::LabelMatch& lm) {
  switch (lm.cls) {
    case lingua::LabelMatchClass::kExact:
      return {lm.score, qom::AxisMatch::kExact};
    case lingua::LabelMatchClass::kRelaxed:
      return {lm.score, qom::AxisMatch::kRelaxed};
    case lingua::LabelMatchClass::kNone:
      break;
  }
  return {0.0, qom::AxisMatch::kNone};
}

AxisValue PropertyAxis(const PropertyMatch& pm) {
  switch (pm.cls) {
    case PropertyMatchClass::kExact:
      return {pm.score, qom::AxisMatch::kExact};
    case PropertyMatchClass::kRelaxed:
      return {pm.score, qom::AxisMatch::kRelaxed};
    case PropertyMatchClass::kNone:
      break;
  }
  return {pm.score, qom::AxisMatch::kNone};
}

AxisValue LevelAxis(size_t a, size_t b, bool graded) {
  if (a == b) return {1.0, qom::AxisMatch::kExact};
  if (!graded) return {0.0, qom::AxisMatch::kNone};
  const double gap = static_cast<double>(a > b ? a - b : b - a);
  return {1.0 / (1.0 + gap), qom::AxisMatch::kNone};
}

/// Property match of descriptors p and q, evaluated on their
/// representative nodes (the descriptor captures every field the matcher
/// reads, so any representative gives the pair's exact value).
PropertyMatch MatchDescriptors(const xsd::FlatSchema& source,
                               const xsd::FlatSchema& target, size_t p,
                               size_t q, const PropertyMatchOptions& options) {
  return MatchProperties(*source.nodes[source.prop_rep[p]],
                         *target.nodes[target.prop_rep[q]], options);
}

/// The label scorer over the distinct labels: over the memo's own matcher
/// when the config carries a memo, else over `name_matcher` alone.
lingua::PairwiseLabelScorer MakeLabelScorer(const xsd::FlatSchema& source,
                                            const xsd::FlatSchema& target,
                                            const SoaKernelConfig& config) {
  if (config.token_memo != nullptr) {
    return lingua::PairwiseLabelScorer(*config.token_memo, source.labels,
                                       target.labels);
  }
  return lingua::PairwiseLabelScorer(*config.name_matcher, source.labels,
                                     target.labels);
}

/// Leaf on the children axis: IsLeaf, or at/below the capped-depth rung's
/// cap.
bool EffectiveLeaf(const xsd::FlatSchema& flat, const SoaKernelConfig& config,
                   size_t i) {
  return flat.child_begin[i] == flat.child_begin[i + 1] ||
         (config.capped &&
          static_cast<size_t>(flat.level[i]) >= config.children_depth_cap);
}

/// Weighted total (Eq. 1/6) — the one expression both the fill and the
/// decomposition evaluate, so the bits agree.
double Combine(const qom::Weights& w, double label, double properties,
               double level, double children) {
  return w.label * label + w.properties * properties + w.level * level +
         w.children * children;
}

constexpr uint8_t kTotalExactByte =
    static_cast<uint8_t>(qom::MatchCategory::kTotalExact);

/// Children axis (Eq. 3-5) of one cell.
struct ChildrenAxis {
  double score = 0.0;
  qom::Coverage coverage = qom::Coverage::kNone;
  bool all_exact = false;
};

/// Reads the children axis of cell (i, j) back from the compact columns of
/// the child rows, which must be complete. The row fill calls it for every
/// cell, and the on-demand decomposition for one.
ChildrenAxis ChildrenAxisAt(const xsd::FlatSchema& source,
                            const xsd::FlatSchema& target,
                            const SoaKernelConfig& config, size_t i, size_t j,
                            const double* qom, const uint8_t* category) {
  ChildrenAxis out;
  // Degraded mode: the axis is not evaluated at all — its weight mass was
  // renormalized away.
  if (config.label_only) return out;
  if (EffectiveLeaf(source, config, i)) {
    // Leaf vs leaf: exact by default (the constant C of Eq. 2). Leaf vs
    // inner: no source children to cover — vacuously total, never exact,
    // partial credit only.
    out.coverage = qom::Coverage::kTotal;
    if (EffectiveLeaf(target, config, j)) {
      out.score = 1.0;
      out.all_exact = true;
    } else {
      out.score = config.leaf_to_inner_children_credit;
    }
    return out;
  }
  if (EffectiveLeaf(target, config, j)) return out;

  const size_t m = target.size();
  const size_t cb = source.child_begin[i];
  const size_t ce = source.child_begin[i + 1];
  const size_t tb = target.child_begin[j];
  const size_t te = target.child_begin[j + 1];
  const double child_total = static_cast<double>(ce - cb);
  double qom_sum = 0.0;
  double matched = 0.0;
  bool all_exact = true;
  for (size_t sc = cb; sc < ce; ++sc) {
    const size_t child = source.child_index[sc];
    const double* child_row = qom + child * m;
    const uint8_t* child_cats = category + child * m;
    if (config.best_match_accumulation) {
      double best = 0.0;
      uint8_t best_cat = 0;
      bool has_best = false;
      for (size_t tc = tb; tc < te; ++tc) {
        const size_t cj = target.child_index[tc];
        if (child_row[cj] > best) {
          best = child_row[cj];
          best_cat = child_cats[cj];
          has_best = true;
        }
      }
      if (has_best && best >= config.threshold) {
        qom_sum += best;
        matched += 1.0;
        if (best_cat != kTotalExactByte) all_exact = false;
      }
    } else {
      // Paper-literal accumulation (Fig. 3 pseudo-code): every child pair
      // above threshold contributes.
      for (size_t tc = tb; tc < te; ++tc) {
        const size_t cj = target.child_index[tc];
        if (child_row[cj] >= config.threshold) {
          qom_sum += child_row[cj];
          matched += 1.0;
          if (child_cats[cj] != kTotalExactByte) all_exact = false;
        }
      }
    }
  }
  const double rw = qom_sum / child_total;       // Eq. 3
  const double rs = matched / child_total;       // Eq. 4
  out.score = std::min(1.0, (rw + rs) / 2.0);    // Eq. 5
  if (matched <= 0.0) {
    out.coverage = qom::Coverage::kNone;
    all_exact = false;
  } else if (matched >= child_total) {
    out.coverage = qom::Coverage::kTotal;
  } else {
    out.coverage = qom::Coverage::kPartial;
    all_exact = false;
  }
  out.all_exact = all_exact;
  return out;
}

}  // namespace

size_t CompactTableBytes(const xsd::FlatSchema& source,
                         const xsd::FlatSchema& target) {
  return source.size() * target.size() * (sizeof(double) + sizeof(uint8_t)) +
         source.labels.size() * target.labels.size();
}

qom::PairQoM DecomposeCell(const xsd::FlatSchema& source,
                           const xsd::FlatSchema& target,
                           const SoaKernelConfig& config, size_t i, size_t j,
                           const lingua::LabelMatch& label,
                           const PropertyMatch& properties, const double* qom,
                           const uint8_t* category) {
  qom::PairQoM pair;
  const AxisValue l = LabelAxis(label);
  const AxisValue p = PropertyAxis(properties);
  const AxisValue h =
      LevelAxis(source.level[i], target.level[j], config.level_graded);
  const ChildrenAxis c =
      ChildrenAxisAt(source, target, config, i, j, qom, category);
  pair.label = l.score;
  pair.label_cls = l.cls;
  pair.properties = p.score;
  pair.properties_cls = p.cls;
  pair.level = h.score;
  pair.level_cls = h.cls;
  pair.children = c.score;
  pair.coverage = c.coverage;
  pair.children_all_exact = c.all_exact;
  pair.qom = Combine(config.weights, l.score, p.score, h.score, c.score);
  pair.category = qom::Categorize(l.cls, p.cls, h.cls, c.coverage, c.all_exact);
  return pair;
}

SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             const CompactTable& table,
                             std::vector<char>& row_done, ThreadPool* pool,
                             const ExecControl* control, Arena* arena) {
  SoaKernelResult out;
  const size_t n = source.size();
  const size_t m = target.size();
  if (n == 0 || m == 0) return out;

  // ---- cooperative stop ---------------------------------------------------
  // `stop` latches the first StopReason any thread observes; every poll
  // site checks it first (one relaxed load), so a tripped deadline or
  // cancellation drains the fill within one row of precompute or one pair
  // of row fill per thread. With no active control each poll is one branch.
  const bool controlled = control != nullptr && control->active();
  std::atomic<int> stop{0};  // 0 = running, else static_cast<int>(StopReason)
  auto stopped = [&]() { return stop.load(std::memory_order_relaxed) != 0; };
  auto should_stop = [&]() -> bool {
    if (!controlled) return false;
    if (stopped()) return true;
    const StopReason reason = control->Check();
    if (reason == StopReason::kNone) return false;
    int expected = 0;
    stop.compare_exchange_strong(expected, static_cast<int>(reason),
                                 std::memory_order_relaxed);
    return true;
  };
  auto finish = [&]() {
    out.stop = static_cast<StopReason>(stop.load(std::memory_order_relaxed));
    for (size_t i = 0; i < n; ++i) {
      out.completed_rows += row_done[i] != 0 ? 1u : 0u;
    }
    return out;
  };
#if QMATCH_OBS_ENABLED
  uint64_t stage_mark = obs::MonotonicNowNs();
  auto stage_lap = [&stage_mark]() {
    const uint64_t now = obs::MonotonicNowNs();
    const uint64_t spent = now - stage_mark;
    stage_mark = now;
    return spent;
  };
#endif

  // ---- precompute stage -------------------------------------------------
  // Everything below runs on the coordinating thread except the label
  // rows: the arena is not thread-safe, so all scratch is carved out
  // before any fan-out.

  // Label-axis matrix over *distinct* labels: gated scores in the arena,
  // classes in the caller's table. Polled once before the scorer interns
  // every label, which is the longest step that does not poll.
  if (should_stop()) return finish();
  const size_t nl = source.labels.size();
  const size_t ml = target.labels.size();
  // Uninitialised: each label row is written in full before any cell is
  // read, and zeroing the whole matrix up front would be an unpolled pass
  // over tens of MB on large schemas.
  double* label_score = static_cast<double*>(
      arena->Allocate(nl * ml * sizeof(double), alignof(double)));
  {
    // Scoped so the scorer publishes its new token pairs to the memo here,
    // after any fan-out and inside the label stage's lap.
    lingua::PairwiseLabelScorer scorer =
        MakeLabelScorer(source, target, config);
    auto fill_label_row = [&](size_t a) {
      if (should_stop()) return;
      QMATCH_FAILPOINT("treematch.precompute");
      double* score_row = label_score + a * ml;
      uint8_t* cls_row = table.label_cls + a * ml;
      for (size_t b = 0; b < ml; ++b) {
        const AxisValue axis = LabelAxis(scorer.Match(a, b));
        score_row[b] = axis.score;
        cls_row[b] = static_cast<uint8_t>(axis.cls);
      }
    };
    if (pool != nullptr && pool->worker_count() > 0 && nl * ml >= 4096) {
      // Each cell is a pure function of its label pair, so a parallel fill
      // is bit-identical to the sequential one for any worker count.
      // The token pass runs on this thread alone, so it polls (and fires
      // the precompute failpoint) per source token, like a label row.
      scorer.Precompute([&]() {
        if (should_stop()) return true;
        QMATCH_FAILPOINT("treematch.precompute");
        return false;
      });
      if (!stopped()) pool->ParallelFor(nl, fill_label_row);
    } else {
      for (size_t a = 0; a < nl && !stopped(); ++a) fill_label_row(a);
    }
  }
  QMATCH_COUNTER_ADD("qmatch.treematch.label_matrix_ns", stage_lap());
  if (stopped()) return finish();

  // Property-axis matrix over distinct packed descriptors.
  const size_t np = source.prop_keys.size();
  const size_t mp = target.prop_keys.size();
  double* prop_score = arena->MakeArray<double>(np * mp);
  uint8_t* prop_cls = arena->MakeArray<uint8_t>(np * mp);
  for (size_t p = 0; p < np; ++p) {
    if (should_stop()) break;
    QMATCH_FAILPOINT("treematch.precompute");
    for (size_t q = 0; q < mp; ++q) {
      const AxisValue axis = PropertyAxis(
          MatchDescriptors(source, target, p, q, config.property_options));
      prop_score[p * mp + q] = axis.score;
      prop_cls[p * mp + q] = static_cast<uint8_t>(axis.cls);
    }
  }

  // Level-axis matrix over distinct (source level, target level) pairs.
  const size_t nlev = static_cast<size_t>(source.max_level) + 1;
  const size_t mlev = static_cast<size_t>(target.max_level) + 1;
  double* level_score = arena->MakeArray<double>(nlev * mlev);
  uint8_t* level_cls = arena->MakeArray<uint8_t>(nlev * mlev);
  for (size_t a = 0; a < nlev; ++a) {
    for (size_t b = 0; b < mlev; ++b) {
      const AxisValue axis = LevelAxis(a, b, config.level_graded);
      level_score[a * mlev + b] = axis.score;
      level_cls[a * mlev + b] = static_cast<uint8_t>(axis.cls);
    }
  }
  QMATCH_COUNTER_ADD("qmatch.treematch.property_matrix_ns", stage_lap());
  if (stopped()) return finish();

#if QMATCH_OBS_ENABLED
  // Child-pair cells an inner source row reads per source child: the
  // children of every inner target (the memo lookups of Fig. 3's
  // recursion, counted arithmetically off the hot loop).
  uint64_t inner_target_children = 0;
  if (!config.label_only) {
    for (size_t j = 0; j < m; ++j) {
      if (!EffectiveLeaf(target, config, j)) {
        inner_target_children +=
            target.child_begin[j + 1] - target.child_begin[j];
      }
    }
  }
#endif

  // ---- row fill ----------------------------------------------------------
  // One source row, one fused pass per cell: children axis read back from
  // the child rows, the three atomic axes broadcast from the distinct-pair
  // matrices, then the weighted total and category committed to the
  // table. Polls the stop latch and hits the `treematch.pair` failpoint
  // once per pair. Returns false when the fill stopped before the row
  // completed.
  const qom::Weights w = config.weights;
  auto fill_row = [&](size_t i) -> bool {
    const double* label_score_row =
        label_score + static_cast<size_t>(source.label_id[i]) * ml;
    const uint8_t* label_cls_row =
        table.label_cls + static_cast<size_t>(source.label_id[i]) * ml;
    const double* prop_score_row =
        prop_score + static_cast<size_t>(source.prop_id[i]) * mp;
    const uint8_t* prop_cls_row =
        prop_cls + static_cast<size_t>(source.prop_id[i]) * mp;
    const double* level_score_row =
        level_score + static_cast<size_t>(source.level[i]) * mlev;
    const uint8_t* level_cls_row =
        level_cls + static_cast<size_t>(source.level[i]) * mlev;
    double* qom_row = table.qom + i * m;
    uint8_t* cat_row = table.category + i * m;
    for (size_t j = 0; j < m; ++j) {
      if (should_stop()) return false;
      const ChildrenAxis children = ChildrenAxisAt(
          source, target, config, i, j, table.qom, table.category);
      const size_t b = target.label_id[j];
      const size_t q = target.prop_id[j];
      const size_t h = target.level[j];
      qom_row[j] = Combine(w, label_score_row[b], prop_score_row[q],
                           level_score_row[h], children.score);
      cat_row[j] = static_cast<uint8_t>(qom::Categorize(
          static_cast<qom::AxisMatch>(label_cls_row[b]),
          static_cast<qom::AxisMatch>(prop_cls_row[q]),
          static_cast<qom::AxisMatch>(level_cls_row[h]), children.coverage,
          children.all_exact));
      QMATCH_FAILPOINT("treematch.pair");
    }
#if QMATCH_OBS_ENABLED
    if (!EffectiveLeaf(source, config, i)) {
      QMATCH_COUNTER_ADD(
          "qmatch.treematch.memo_lookups",
          uint64_t{source.child_begin[i + 1] - source.child_begin[i]} *
              inner_target_children);
    }
    // The memo table stands in for the paper's recursive TreeMatch, so a
    // row's source level is its recursion depth.
    static obs::Histogram& depth_hist = obs::Registry::Global().GetHistogram(
        "qmatch.treematch.recursion_depth",
        obs::Histogram::ExponentialBounds(1.0, 2.0, 8),
        "TreeMatch recursion depth (source node level) per table row");
    depth_hist.Observe(static_cast<double>(source.level[i]));
#endif
    return true;
  };

  auto run_row = [&](size_t i) {
    if (fill_row(i)) row_done[i] = 1;
  };

  // ---- drivers -------------------------------------------------------------
  if (pool == nullptr || pool->worker_count() == 0) {
    // Reverse preorder = bottom-up: every child row is complete before any
    // row that reads it.
    for (size_t i = n; i-- > 0 && !stopped();) run_row(i);
  } else {
    // Level-sharded: deepest level first with a barrier between levels;
    // rows within a level never read each other.
    std::vector<std::vector<size_t>> rows_by_level(
        static_cast<size_t>(source.max_level) + 1);
    for (size_t i = 0; i < n; ++i) {
      rows_by_level[source.level[i]].push_back(i);
    }
    for (size_t level = rows_by_level.size(); level-- > 0 && !stopped();) {
      const std::vector<size_t>& rows = rows_by_level[level];
      pool->ParallelFor(rows.size(), [&](size_t r) {
        if (!stopped()) run_row(rows[r]);
      });
    }
  }
  QMATCH_COUNTER_ADD("qmatch.treematch.row_fill_ns", stage_lap());
  return finish();
}

SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* arena) {
  const size_t n = source.size();
  const size_t m = target.size();
  std::vector<double> qom(n * m);
  std::vector<uint8_t> category(n * m);
  std::vector<uint8_t> label_cls(source.labels.size() * target.labels.size());
  const SoaKernelResult result =
      SoaFillTable(source, target, config,
                   CompactTable{qom.data(), category.data(), label_cls.data()},
                   row_done, pool, control, arena);
  const lingua::PairwiseLabelScorer scorer =
      MakeLabelScorer(source, target, config);
  // Property matches memoised per descriptor pair, as in the fill.
  const size_t mp = target.prop_keys.size();
  std::vector<std::optional<PropertyMatch>> properties(
      source.prop_keys.size() * mp);
  for (size_t i = 0; i < n; ++i) {
    if (row_done[i] == 0) continue;
    for (size_t j = 0; j < m; ++j) {
      const size_t p = source.prop_id[i];
      const size_t q = target.prop_id[j];
      std::optional<PropertyMatch>& pm = properties[p * mp + q];
      if (!pm.has_value()) {
        pm = MatchDescriptors(source, target, p, q, config.property_options);
      }
      table[i * m + j] = DecomposeCell(
          source, target, config, i, j,
          scorer.Match(source.label_id[i], target.label_id[j]), *pm,
          qom.data(), category.data());
    }
  }
  return result;
}

}  // namespace qmatch::match
