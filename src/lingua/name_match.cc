#include "lingua/name_match.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "lingua/string_sim.h"
#include "lingua/tokenize.h"

namespace qmatch::lingua {

std::string_view LabelMatchClassName(LabelMatchClass c) {
  switch (c) {
    case LabelMatchClass::kNone:
      return "none";
    case LabelMatchClass::kRelaxed:
      return "relaxed";
    case LabelMatchClass::kExact:
      return "exact";
  }
  return "?";
}

PreparedLabel NameMatcher::Prepare(std::string_view label) {
  PreparedLabel prepared;
  prepared.tokens = TokenizeLabel(label);
  for (std::string& token : prepared.tokens) {
    token = SingularizeToken(token);
  }
  prepared.canonical = Join(prepared.tokens, " ");
  return prepared;
}

double NameMatcher::TokenSimilarity(const std::string& a, const std::string& b,
                                    bool* exact_kind) const {
  *exact_kind = false;
  if (a == b) {
    *exact_kind = true;
    return 1.0;
  }
  if (thesaurus_ != nullptr) {
    switch (thesaurus_->RelateCanonical(a, b)) {
      case TermRelation::kEqual:
      case TermRelation::kSynonym:
        *exact_kind = true;
        return options_.synonym_score;
      case TermRelation::kHypernym:
      case TermRelation::kHyponym:
        return options_.hypernym_score;
      case TermRelation::kAcronym:
      case TermRelation::kExpansion:
        return options_.acronym_score;
      case TermRelation::kAbbreviation:
        return options_.abbreviation_score;
      case TermRelation::kNone:
        break;
    }
    // Try expanding one side ("addr" -> "address") and re-comparing.
    for (int side = 0; side < 2; ++side) {
      const std::string& short_form = side == 0 ? a : b;
      const std::string& other = side == 0 ? b : a;
      if (auto expansion = thesaurus_->ExpandCanonical(short_form)) {
        if (*expansion == other || thesaurus_->AreSynonymsCanonical(
                                       *expansion, other)) {
          return options_.abbreviation_score;
        }
      }
    }
  }
  double fuzzy = BlendedSimilarity(a, b);
  return fuzzy >= options_.fuzzy_floor ? fuzzy : 0.0;
}

LabelMatch NameMatcher::Match(const PreparedLabel& a,
                              const PreparedLabel& b) const {
  if (a.canonical.empty() || b.canonical.empty()) {
    return {LabelMatchClass::kNone, 0.0};
  }
  if (a.canonical == b.canonical) return {LabelMatchClass::kExact, 1.0};

  // Whole-label thesaurus relation (handles multi-word terms such as
  // "bill to" vs "billing address" and acronyms like "po").
  if (thesaurus_ != nullptr) {
    switch (thesaurus_->RelateCanonical(a.canonical, b.canonical)) {
      case TermRelation::kEqual:
      case TermRelation::kSynonym:
        return {LabelMatchClass::kExact, options_.synonym_score};
      case TermRelation::kHypernym:
      case TermRelation::kHyponym:
        return {LabelMatchClass::kRelaxed, options_.hypernym_score};
      case TermRelation::kAcronym:
      case TermRelation::kExpansion:
        return {LabelMatchClass::kRelaxed, options_.acronym_score};
      case TermRelation::kAbbreviation:
        return {LabelMatchClass::kRelaxed, options_.abbreviation_score};
      case TermRelation::kNone:
        break;
    }
  }

  // Bipartite best-pair token comparison, averaged over both directions
  // (CUPID-style name similarity).
  bool all_exact = true;
  auto directional = [&](const std::vector<std::string>& from,
                         const std::vector<std::string>& to) {
    double sum = 0.0;
    for (const std::string& ft : from) {
      double best = 0.0;
      bool best_exact = false;
      for (const std::string& tt : to) {
        bool exact_kind = false;
        double s = TokenSimilarity(ft, tt, &exact_kind);
        if (s > best) {
          best = s;
          best_exact = exact_kind;
        }
      }
      if (!best_exact || best < 1.0) all_exact = false;
      sum += best;
    }
    return from.empty() ? 0.0 : sum / static_cast<double>(from.size());
  };
  double score = (directional(a.tokens, b.tokens) +
                  directional(b.tokens, a.tokens)) /
                 2.0;

  if (score >= options_.exact_threshold && all_exact) {
    return {LabelMatchClass::kExact, 1.0};
  }
  if (score >= options_.relaxed_threshold) {
    return {LabelMatchClass::kRelaxed, score};
  }
  return {LabelMatchClass::kNone, score};
}

LabelMatch NameMatcher::Match(std::string_view a, std::string_view b) const {
  return Match(Prepare(a), Prepare(b));
}

// ---------------------------------------------------------------------------
// PairwiseLabelScorer
// ---------------------------------------------------------------------------

namespace {

size_t InternToken(const std::string& token, std::vector<std::string>& pool,
                   std::map<std::string, size_t>& index) {
  auto it = index.find(token);
  if (it != index.end()) return it->second;
  size_t id = pool.size();
  pool.push_back(token);
  index.emplace(token, id);
  return id;
}

}  // namespace

PairwiseLabelScorer::PairwiseLabelScorer(
    const NameMatcher& matcher, const std::vector<std::string>& source_labels,
    const std::vector<std::string>& target_labels)
    : matcher_(matcher) {
  std::map<std::string, size_t> source_index;
  std::map<std::string, size_t> target_index;
  // Canonical-form pool shared by both sides: two labels are string-equal
  // iff they intern to the same id, so the hot Match path compares ints.
  std::map<std::string, size_t> canonical_index;
  const Thesaurus* thesaurus = matcher.thesaurus();
  auto intern_label = [&](const std::string& label,
                          std::vector<std::string>& token_pool,
                          std::map<std::string, size_t>& token_index) {
    PreparedLabel prepared = NameMatcher::Prepare(label);
    InternedLabel interned;
    interned.canonical = std::move(prepared.canonical);
    for (const std::string& token : prepared.tokens) {
      interned.token_ids.push_back(InternToken(token, token_pool, token_index));
    }
    interned.canonical_id =
        canonical_index.try_emplace(interned.canonical, canonical_index.size())
            .first->second;
    interned.mentioned =
        thesaurus != nullptr && thesaurus->MentionedCanonical(interned.canonical);
    return interned;
  };
  source_.reserve(source_labels.size());
  for (const std::string& label : source_labels) {
    source_.push_back(intern_label(label, source_tokens_, source_index));
  }
  target_.reserve(target_labels.size());
  for (const std::string& label : target_labels) {
    target_.push_back(intern_label(label, target_tokens_, target_index));
  }
  token_sim_cache_.assign(source_tokens_.size() * target_tokens_.size(), -1.0);
  token_exact_cache_.assign(token_sim_cache_.size(), 0);
}

void PairwiseLabelScorer::Precompute(const std::function<bool()>& should_stop) {
  bool exact = false;
  for (size_t s = 0; s < source_tokens_.size(); ++s) {
    if (should_stop && should_stop()) return;
    for (size_t t = 0; t < target_tokens_.size(); ++t) {
      CachedTokenSimilarity(s, t, &exact);
    }
  }
}

double PairwiseLabelScorer::CachedTokenSimilarity(size_t source_token,
                                                  size_t target_token,
                                                  bool* exact_kind) const {
  size_t slot = source_token * target_tokens_.size() + target_token;
  if (token_sim_cache_[slot] < 0.0) {
    bool exact = false;
    token_sim_cache_[slot] = matcher_.TokenSimilarity(
        source_tokens_[source_token], target_tokens_[target_token], &exact);
    token_exact_cache_[slot] = exact ? 1 : 0;
  }
  *exact_kind = token_exact_cache_[slot] != 0;
  return token_sim_cache_[slot];
}

LabelMatch PairwiseLabelScorer::Match(size_t i, size_t j) const {
  const InternedLabel& a = source_[i];
  const InternedLabel& b = target_[j];
  const NameMatchOptions& options = matcher_.options();
  if (a.canonical.empty() || b.canonical.empty()) {
    return {LabelMatchClass::kNone, 0.0};
  }
  if (a.canonical_id == b.canonical_id) return {LabelMatchClass::kExact, 1.0};

  // Whole-label thesaurus relation — skipped when neither canonical is
  // mentioned in the thesaurus, where RelateCanonical is kNone by
  // construction (see Thesaurus::MentionedCanonical).
  if (const Thesaurus* thesaurus =
          (a.mentioned || b.mentioned) ? matcher_.thesaurus() : nullptr) {
    switch (thesaurus->RelateCanonical(a.canonical, b.canonical)) {
      case TermRelation::kEqual:
      case TermRelation::kSynonym:
        return {LabelMatchClass::kExact, options.synonym_score};
      case TermRelation::kHypernym:
      case TermRelation::kHyponym:
        return {LabelMatchClass::kRelaxed, options.hypernym_score};
      case TermRelation::kAcronym:
      case TermRelation::kExpansion:
        return {LabelMatchClass::kRelaxed, options.acronym_score};
      case TermRelation::kAbbreviation:
        return {LabelMatchClass::kRelaxed, options.abbreviation_score};
      case TermRelation::kNone:
        break;
    }
  }

  bool all_exact = true;
  auto directional = [&](const std::vector<size_t>& from,
                         const std::vector<size_t>& to, bool forward) {
    double sum = 0.0;
    for (size_t ft : from) {
      double best = 0.0;
      bool best_exact = false;
      for (size_t tt : to) {
        bool exact_kind = false;
        double s = forward ? CachedTokenSimilarity(ft, tt, &exact_kind)
                           : CachedTokenSimilarity(tt, ft, &exact_kind);
        if (s > best) {
          best = s;
          best_exact = exact_kind;
        }
      }
      if (!best_exact || best < 1.0) all_exact = false;
      sum += best;
    }
    return from.empty() ? 0.0 : sum / static_cast<double>(from.size());
  };
  double score = (directional(a.token_ids, b.token_ids, true) +
                  directional(b.token_ids, a.token_ids, false)) /
                 2.0;

  if (score >= options.exact_threshold && all_exact) {
    return {LabelMatchClass::kExact, 1.0};
  }
  if (score >= options.relaxed_threshold) {
    return {LabelMatchClass::kRelaxed, score};
  }
  return {LabelMatchClass::kNone, score};
}

}  // namespace qmatch::lingua
