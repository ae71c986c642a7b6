// The traced run's layer replay: feeds the inputs of one match through each
// layer's public function in turn (xsd::ParseSchema, xsd::BuildFlatSchema,
// lingua::PairwiseLabelScorer, match::SoaFillTable,
// match::SelectCorrespondences, core::QMatch::Analyze), timing each call as
// a span. Nothing inside the program is instrumented.
#ifndef QBENCH_REPLAY_H_
#define QBENCH_REPLAY_H_

#include <memory>
#include <string>

#include "common.h"
#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "xsd/schema.h"

namespace qbench {

/// Per-match layer costs of one replay. Times in ms.
struct StageSample {
  double parse_ms = 0.0;
  double flatten_ms = 0.0;
  size_t parse_calls = 0;
  size_t flatten_calls = 0;
  double label_ms = 0.0;
  size_t label_pairs = 0;
  size_t node_pairs = 0;
  double fill_ms = 0.0;
  double select_ms = 0.0;
  double analyze_ms = 0.0;

  /// Analyze minus the flatten, fill and select it contains (table
  /// allocation, index maps, extraction).
  double CoreSelfMs() const { return analyze_ms - flatten_ms - fill_ms - select_ms; }
  void Add(const StageSample& o);
};

class Replayer {
 public:
  /// `parallel` mirrors an engine with threads=2: tables of at least
  /// MatchEngineOptions::min_parallel_pairs pairs fill on a one-worker pool,
  /// like MatchEngine::Match does.
  explicit Replayer(bool parallel);

  /// Replays source × target, both already parsed (their Flat() cached).
  StageSample Replay(const qmatch::xsd::Schema& source,
                     const qmatch::xsd::Schema& target, Tracer* tracer,
                     int parent, uint64_t op);

  /// Replays the corpus path: parses `target_text`, flattens the fresh
  /// schema, then matches `source` against it.
  StageSample ReplayFromText(const qmatch::xsd::Schema& source,
                             const std::string& target_text, Tracer* tracer,
                             int parent, uint64_t op);

 private:
  StageSample Run(const qmatch::xsd::Schema& source,
                  const qmatch::xsd::Schema& target, bool fresh_target,
                  StageSample sample, Tracer* tracer, int parent, uint64_t op);

  qmatch::core::QMatch matcher_;
  std::unique_ptr<qmatch::ThreadPool> pool_;
};

}  // namespace qbench

#endif  // QBENCH_REPLAY_H_
