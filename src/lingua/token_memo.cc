#include "lingua/token_memo.h"

#include <bit>
#include <mutex>

#include "obs/obs.h"

namespace qmatch::lingua {

TokenSimilarityMemo::TokenSimilarityMemo(const Thesaurus* thesaurus,
                                         NameMatchOptions options,
                                         size_t max_tiles)
    : matcher_(thesaurus, options), max_tiles_(max_tiles) {}

TokenSimilarityMemo::~TokenSimilarityMemo() {
  QMATCH_GAUGE_ADD("lingua.token_memo.entries",
                   -static_cast<int64_t>(entries_));
}

size_t TokenSimilarityMemo::entries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_;
}

std::vector<uint32_t> TokenSimilarityMemo::IdsLocked(
    const std::vector<std::string>& tokens) const {
  std::vector<uint32_t> ids(tokens.size(), kNoId);
  for (size_t k = 0; k < tokens.size(); ++k) {
    auto it = ids_.find(tokens[k]);
    if (it != ids_.end()) ids[k] = it->second;
  }
  return ids;
}

size_t TokenSimilarityMemo::Load(const std::vector<std::string>& source,
                                 const std::vector<std::string>& target,
                                 double* score, signed char* exact) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const std::vector<uint32_t> source_ids = IdsLocked(source);
  const std::vector<uint32_t> target_ids = IdsLocked(target);
  const size_t m = target.size();
  size_t hits = 0;
  for (size_t s = 0; s < source.size(); ++s) {
    const uint32_t a = source_ids[s];
    if (a == kNoId) continue;
    for (size_t t = 0; t < m; ++t) {
      const uint32_t b = target_ids[t];
      if (b == kNoId) continue;
      const Tile* tile = tiles_[TileOf(a, b)].get();
      if (tile == nullptr) continue;
      const uint16_t code = tile->code[CellOf(a, b)];
      if (code == 0) continue;
      const Value& value = values_[code - 1];
      score[s * m + t] = value.score;
      exact[s * m + t] = value.exact ? 1 : 0;
      ++hits;
    }
  }
  QMATCH_COUNTER_ADD("lingua.token_memo.hits", hits);
  return hits;
}

void TokenSimilarityMemo::Publish(const std::vector<std::string>& source,
                                  const std::vector<std::string>& target,
                                  const double* score,
                                  const signed char* exact,
                                  const std::vector<size_t>& cells) {
  if (cells.empty()) return;
  QMATCH_COUNTER_ADD("lingua.token_memo.misses", cells.size());
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tiles_.empty()) tiles_.resize(kGridSide * kGridSide);
  auto intern = [&](const std::vector<std::string>& tokens) {
    std::vector<uint32_t> ids = IdsLocked(tokens);
    for (size_t k = 0; k < tokens.size(); ++k) {
      if (ids[k] != kNoId || ids_.size() >= kMaxTokens) continue;
      ids[k] = static_cast<uint32_t>(ids_.size());
      ids_.emplace(tokens[k], ids[k]);
    }
    return ids;
  };
  const std::vector<uint32_t> source_ids = intern(source);
  const std::vector<uint32_t> target_ids = intern(target);
  const size_t m = target.size();
  size_t inserted = 0;
  for (const size_t slot : cells) {
    const uint32_t a = source_ids[slot / m];
    const uint32_t b = target_ids[slot % m];
    if (a == kNoId || b == kNoId) continue;
    std::unique_ptr<Tile>& tile = tiles_[TileOf(a, b)];
    if (tile == nullptr) {
      if (tile_count_ >= max_tiles_) continue;
      tile = std::make_unique<Tile>();
      ++tile_count_;
    }
    uint16_t& code = tile->code[CellOf(a, b)];
    if (code != 0) continue;
    auto [it, added] = codes_.try_emplace(
        {std::bit_cast<uint64_t>(score[slot]), exact[slot] != 0}, 0);
    if (added) {
      if (values_.size() >= kMaxValues) {
        codes_.erase(it);
        continue;
      }
      values_.push_back({score[slot], exact[slot] != 0});
      it->second = static_cast<uint16_t>(values_.size());
    }
    code = it->second;
    ++inserted;
  }
  entries_ += inserted;
  QMATCH_GAUGE_ADD("lingua.token_memo.entries", inserted);
}

}  // namespace qmatch::lingua
