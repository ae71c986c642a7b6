#ifndef QMATCH_LINGUA_TOKEN_MEMO_H_
#define QMATCH_LINGUA_TOKEN_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lingua/name_match.h"

namespace qmatch::lingua {

/// Matcher-lifetime memo of `NameMatcher::TokenSimilarity` (DESIGN.md
/// §13.5).
///
/// Interns canonical tokens to dense global ids and keeps the score and
/// exactness of every (source token, target token) pair a
/// PairwiseLabelScorer computed, so later scorers copy the pair instead of
/// recomputing it. The values are pure functions of the NameMatcher's
/// thesaurus and options, so the memo owns the one NameMatcher whose
/// values it holds, and a scorer built over a memo scores with that
/// matcher. core::QMatch owns one memo per instance.
///
/// Storage is a grid of kTileSide x kTileSide tiles over the global ids,
/// each allocated on its first store. A tile holds a 2-byte code per pair
/// into a table of the distinct (score, exactness) values, which are few
/// (0, 1 and the relation scores; 9 on the corpus-search workload), so a
/// pair costs 2 bytes. The memo is bounded by compile-time
/// constants: at most kMaxTokens interned tokens, kMaxTiles tiles (2 MiB)
/// and kMaxValues distinct values. Once any is spent it stops inserting
/// what needs more, and scorers compute the pairs it cannot hold per
/// request, as without a memo.
///
/// Thread-safe. A scorer takes the lock once to load (shared) when it is
/// built and once to publish its new pairs (exclusive) when it is
/// destroyed, never per pair. The
/// `lingua.token_memo.{hits,misses}` counters count the pairs each load
/// copied and each publish offered, and the `lingua.token_memo.entries`
/// gauge the pairs all live memos hold.
class TokenSimilarityMemo {
 public:
  static constexpr size_t kMaxTokens = 2048;
  static constexpr size_t kTileSide = 32;
  static constexpr size_t kMaxTiles = 1024;
  static constexpr size_t kMaxValues = UINT16_MAX;

  /// `thesaurus` is borrowed (may be null), must outlive the memo and must
  /// not change while it lives.
  TokenSimilarityMemo(const Thesaurus* thesaurus, NameMatchOptions options)
      : TokenSimilarityMemo(thesaurus, options, kMaxTiles) {}
  /// A memo that saturates after `max_tiles` tiles — a test seam for the
  /// full-memo path; every production memo uses kMaxTiles.
  TokenSimilarityMemo(const Thesaurus* thesaurus, NameMatchOptions options,
                      size_t max_tiles);
  ~TokenSimilarityMemo();

  TokenSimilarityMemo(const TokenSimilarityMemo&) = delete;
  TokenSimilarityMemo& operator=(const TokenSimilarityMemo&) = delete;

  /// The matcher every held value was computed with.
  const NameMatcher& matcher() const { return matcher_; }

  /// Token pairs held.
  size_t entries() const;

  /// Copies every pair of `source` x `target` the memo holds into the
  /// row-major |source| x |target| arrays `score` and `exact` (nonzero =
  /// exact kind) in one pass, and returns how many it copied (the hits).
  /// Cells of unknown pairs are left untouched.
  size_t Load(const std::vector<std::string>& source,
              const std::vector<std::string>& target, double* score,
              signed char* exact) const;

  /// Stores the cells `cells` (indices into the same row-major arrays; the
  /// misses, computed by the caller) in one batch, interning tokens it has
  /// not seen while there is room. Pairs it already holds, or cannot hold,
  /// are skipped.
  void Publish(const std::vector<std::string>& source,
               const std::vector<std::string>& target, const double* score,
               const signed char* exact, const std::vector<size_t>& cells);

 private:
  static constexpr uint32_t kNoId = UINT32_MAX;
  static constexpr size_t kGridSide = kMaxTokens / kTileSide;
  static constexpr size_t kTileCells = kTileSide * kTileSide;

  struct Value {
    double score;
    bool exact;
  };
  /// Per pair: 0 = unknown, else 1 + the index of its value in values_.
  struct Tile {
    uint16_t code[kTileCells];
  };

  /// Global ids of `tokens` (kNoId where unknown); caller holds mu_.
  std::vector<uint32_t> IdsLocked(const std::vector<std::string>& tokens) const;
  static size_t TileOf(uint32_t a, uint32_t b) {
    return (a / kTileSide) * kGridSide + b / kTileSide;
  }
  static size_t CellOf(uint32_t a, uint32_t b) {
    return (a % kTileSide) * kTileSide + b % kTileSide;
  }

  const NameMatcher matcher_;
  const size_t max_tiles_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, uint32_t> ids_;
  /// kGridSide x kGridSide, sized on the first publish.
  std::vector<std::unique_ptr<Tile>> tiles_;
  size_t tile_count_ = 0;
  std::vector<Value> values_;
  /// (score bits, exact) -> code.
  std::map<std::pair<uint64_t, bool>, uint16_t> codes_;
  size_t entries_ = 0;
};

}  // namespace qmatch::lingua

#endif  // QMATCH_LINGUA_TOKEN_MEMO_H_
