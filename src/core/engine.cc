#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <thread>
#include <utility>

#include "common/arena.h"
#include "common/file_util.h"
#include "common/random.h"
#include "fault/failpoint.h"
#include "obs/obs.h"

namespace qmatch::core {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashInt(uint64_t value, uint64_t& h) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
}

void HashDouble(double value, uint64_t& h) {
  HashInt(std::bit_cast<uint64_t>(value), h);
}

/// Hashes every field of the configuration that influences match output.
/// The thesaurus is deliberately absent: it is fixed per engine instance
/// and the cache never outlives the engine.
uint64_t HashConfig(const QMatchConfig& config) {
  uint64_t h = kFnvOffset;
  HashDouble(config.weights.label, h);
  HashDouble(config.weights.properties, h);
  HashDouble(config.weights.level, h);
  HashDouble(config.weights.children, h);
  HashDouble(config.threshold, h);
  HashInt(static_cast<uint64_t>(config.child_accumulation), h);
  HashInt(static_cast<uint64_t>(config.level_mode), h);
  HashInt(config.require_label_evidence ? 1u : 0u, h);
  HashDouble(config.ambiguity_margin, h);
  HashInt(static_cast<uint64_t>(config.assignment), h);
  HashDouble(config.leaf_to_inner_children_credit, h);
  const lingua::NameMatchOptions& name = config.name_options;
  HashDouble(name.synonym_score, h);
  HashDouble(name.hypernym_score, h);
  HashDouble(name.acronym_score, h);
  HashDouble(name.abbreviation_score, h);
  HashDouble(name.fuzzy_floor, h);
  HashDouble(name.exact_threshold, h);
  HashDouble(name.relaxed_threshold, h);
  const match::PropertyMatchOptions& prop = config.property_options;
  HashInt(prop.compare_kind ? 1u : 0u, h);
  HashInt(prop.compare_type ? 1u : 0u, h);
  HashInt(prop.compare_order ? 1u : 0u, h);
  HashInt(prop.compare_occurs ? 1u : 0u, h);
  HashInt(prop.compare_nillable ? 1u : 0u, h);
  HashDouble(prop.relaxed_credit, h);
  return h;
}

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = kFnvOffset;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

Status StopStatus(StopReason reason, const std::string& what) {
  return reason == StopReason::kCancelled
             ? Status::Cancelled(what + ": request cancelled")
             : Status::DeadlineExceeded(what + ": request deadline exceeded");
}

/// Every typed request (direct or per corpus entry) is tallied exactly once
/// here, so `engine.requests` always equals the sum of the four outcome
/// counters — the accounting invariant the chaos suite asserts.
void CountRequestOutcome(const Status& status) {
  (void)status;  // only read by the obs hooks, which compile away with them
  QMATCH_COUNTER_ADD("engine.requests", 1);
  switch (status.code()) {
    case StatusCode::kOk:
      QMATCH_COUNTER_ADD("engine.requests_ok", 1);
      break;
    case StatusCode::kDeadlineExceeded:
      QMATCH_COUNTER_ADD("engine.requests_deadline_exceeded", 1);
      break;
    case StatusCode::kCancelled:
      QMATCH_COUNTER_ADD("engine.requests_cancelled", 1);
      break;
    case StatusCode::kOverloaded:
      QMATCH_COUNTER_ADD("engine.requests_overloaded", 1);
      break;
    case StatusCode::kResourceExhausted:
      QMATCH_COUNTER_ADD("engine.requests_resource_exhausted", 1);
      break;
    default:
      QMATCH_COUNTER_ADD("engine.requests_error", 1);
      break;
  }
}

}  // namespace

MatchEngine::MatchEngine(MatchEngineOptions options)
    : MatchEngine(QMatchConfig{}, std::move(options)) {}

MatchEngine::MatchEngine(QMatchConfig config, MatchEngineOptions options)
    : matcher_(std::move(config)),
      threads_(ResolveThreads(options.threads)),
      options_(options),
      admission_(options.overload.admission),
      process_budget_(options.overload.process_budget_bytes) {
  config_hash_ = HashConfig(matcher_.config());
  // The calling thread participates in every ParallelFor, so `threads`
  // total parallelism needs threads-1 pool workers.
  pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  InitPersist();
}

MatchEngine::MatchEngine(QMatchConfig config, const lingua::Thesaurus* thesaurus,
                         MatchEngineOptions options)
    : matcher_(std::move(config), thesaurus),
      threads_(ResolveThreads(options.threads)),
      options_(options),
      admission_(options.overload.admission),
      process_budget_(options.overload.process_budget_bytes) {
  config_hash_ = HashConfig(matcher_.config());
  pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  InitPersist();
}

MatchEngine::~MatchEngine() {
  if (persist_ != nullptr) {
    // Final compaction is best effort: persistence failpoints throw to
    // simulate crashes, and a destructor must absorb that (or any real
    // I/O throw) — the on-disk state stays consistent either way.
    try {
      (void)CompactPersist();
    } catch (...) {
    }
  }
}

void MatchEngine::InitPersist() {
  if (options_.persist_dir.empty()) return;
  persist::StoreState state;
  persist::LoadStats stats;
  Result<std::unique_ptr<persist::PersistentStore>> store =
      persist::PersistentStore::Open(options_.persist_dir, config_hash_,
                                     &state, &stats);
  if (!store.ok()) {
    // Persistence is an accelerator, never a dependency: a store that
    // cannot open leaves the engine fully functional, just cold.
    QMATCH_COUNTER_ADD("persist.open_failures", 1);
    return;
  }
  persist_ = std::move(*store);
  persist_load_stats_ = stats;
  size_t recovered = 0;
  size_t dropped = 0;
  if (options_.cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // Decoded order is oldest-first (snapshot order, then journal replay),
    // so pushing each record to the LRU front reproduces the recency order
    // the previous process shut down with, and capacity eviction drops the
    // oldest entries first.
    for (const persist::CacheEntryRec& rec : state.cache_entries) {
      if (rec.config_hash != config_hash_) {
        // Written by a differently-configured engine: dropped, never
        // trusted — even though the file-level fingerprint matched.
        ++dropped;
        continue;
      }
      UpsertCacheRecLocked(rec);
      ++recovered;
    }
    cache_stats_.entries = cache_lru_.size();
    QMATCH_GAUGE_SET("engine.cache.entries", cache_lru_.size());
  }
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    for (const persist::CorpusEntryRec& rec : state.corpus_entries) {
      UpsertCorpusRecLocked(rec);
    }
  }
  QMATCH_COUNTER_ADD("persist.recovered_entries", recovered);
  QMATCH_COUNTER_ADD("persist.dropped_entries", dropped);
  QMATCH_COUNTER_ADD("persist.recovered_corpus_entries",
                     state.corpus_entries.size());
  (void)recovered;
  (void)dropped;
}

void MatchEngine::UpsertCacheRecLocked(const persist::CacheEntryRec& rec) const {
  CacheEntry entry;
  entry.key = CacheKey{rec.source_fp, rec.target_fp, rec.config_hash};
  entry.algorithm = rec.algorithm;
  entry.schema_qom = rec.schema_qom;
  entry.correspondences.reserve(rec.correspondences.size());
  for (const persist::CorrespondenceRec& c : rec.correspondences) {
    entry.correspondences.push_back(
        CachedCorrespondence{c.source_path, c.target_path, c.score});
  }
  const CacheKey key = entry.key;
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    *it->second = std::move(entry);
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  } else {
    cache_lru_.push_front(std::move(entry));
    cache_index_[key] = cache_lru_.begin();
  }
  while (cache_lru_.size() > options_.cache_capacity) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
}

void MatchEngine::UpsertCorpusRecLocked(
    const persist::CorpusEntryRec& rec) const {
  corpus_index_[rec.path] = rec;
  CircuitBreaker& breaker =
      breakers_
          .try_emplace(rec.path,
                       CircuitBreakerOptions{
                           options_.overload.breaker_failure_threshold,
                           options_.overload.breaker_cooldown})
          .first->second;
  breaker.Restore(static_cast<int>(rec.breaker_failures));
}

void MatchEngine::SetReplicationObserver(ReplicationObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mutex_);
  observer_ = std::move(observer);
}

bool MatchEngine::HasReplicationObserver() const {
  std::lock_guard<std::mutex> lock(observer_mutex_);
  return observer_.cache != nullptr || observer_.corpus != nullptr;
}

void MatchEngine::NotifyReplicated(const persist::CacheEntryRec& rec) const {
  std::function<void(const persist::CacheEntryRec&)> cb;
  {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    cb = observer_.cache;
  }
  if (cb) cb(rec);
}

void MatchEngine::NotifyReplicated(const persist::CorpusEntryRec& rec) const {
  std::function<void(const persist::CorpusEntryRec&)> cb;
  {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    cb = observer_.corpus;
  }
  if (cb) cb(rec);
}

void MatchEngine::ApplyReplicatedCacheEntry(const persist::CacheEntryRec& rec) {
  if (rec.config_hash != config_hash_) {
    // A primary running a different match config cannot feed this engine:
    // the same trust boundary warm-start replay enforces.
    QMATCH_COUNTER_ADD("replica.dropped_records", 1);
    return;
  }
  if (options_.cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    UpsertCacheRecLocked(rec);
    cache_stats_.entries = cache_lru_.size();
    QMATCH_GAUGE_SET("engine.cache.entries", cache_lru_.size());
  }
  if (persist_ != nullptr) {
    const Status appended = persist_->AppendCache(rec);
    if (!appended.ok()) QMATCH_COUNTER_ADD("persist.append_dropped", 1);
    MaybeCompactPersist();
  }
}

void MatchEngine::ApplyReplicatedCorpusEntry(
    const persist::CorpusEntryRec& rec) {
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    UpsertCorpusRecLocked(rec);
  }
  if (persist_ != nullptr) {
    const Status appended = persist_->AppendCorpus(rec);
    if (!appended.ok()) QMATCH_COUNTER_ADD("persist.append_dropped", 1);
    MaybeCompactPersist();
  }
}

persist::StoreState MatchEngine::ExportState() const { return SnapshotState(); }

persist::StoreState MatchEngine::SnapshotState() const {
  persist::StoreState state;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    state.cache_entries.reserve(cache_lru_.size());
    // Oldest first (see InitPersist): reverse LRU order.
    for (auto it = cache_lru_.rbegin(); it != cache_lru_.rend(); ++it) {
      persist::CacheEntryRec rec;
      rec.source_fp = it->key.source_fp;
      rec.target_fp = it->key.target_fp;
      rec.config_hash = it->key.config_hash;
      rec.algorithm = it->algorithm;
      rec.schema_qom = it->schema_qom;
      rec.correspondences.reserve(it->correspondences.size());
      for (const CachedCorrespondence& c : it->correspondences) {
        rec.correspondences.push_back(
            persist::CorrespondenceRec{c.source_path, c.target_path, c.score});
      }
      state.cache_entries.push_back(std::move(rec));
    }
  }
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    state.corpus_entries.reserve(corpus_index_.size());
    for (const auto& [path, rec] : corpus_index_) {
      persist::CorpusEntryRec fresh = rec;
      // The live breaker count supersedes what the last journal append
      // recorded (failures may have accrued since).
      auto breaker = breakers_.find(path);
      if (breaker != breakers_.end()) {
        fresh.breaker_failures = static_cast<uint32_t>(
            std::max(0, breaker->second.consecutive_failures()));
      }
      state.corpus_entries.push_back(std::move(fresh));
    }
  }
  return state;
}

Status MatchEngine::CompactPersist() const {
  if (persist_ == nullptr) return Status::OK();
  return persist_->Compact(SnapshotState());
}

void MatchEngine::MaybeCompactPersist() const {
  if (persist_ == nullptr || options_.persist_compact_interval == 0) return;
  if (persist_->appends_since_compact() < options_.persist_compact_interval) {
    return;
  }
  // Periodic compaction is opportunistic; a failed one just leaves the
  // journal longer until the next interval (or shutdown) retries.
  (void)CompactPersist();
}

MatchEngine::CacheKey MatchEngine::MakeKey(const xsd::Schema& source,
                                           const xsd::Schema& target) const {
  return CacheKey{xsd::SchemaFingerprint(source), xsd::SchemaFingerprint(target),
                  config_hash_};
}

bool MatchEngine::CacheLookup(const CacheKey& key, const xsd::Schema& source,
                              const xsd::Schema& target,
                              MatchResult* out) const {
  // A poisoned lookup degrades to a miss: the caller recomputes and the
  // answer stays correct — the cache is an accelerator, never an oracle.
  if (QMATCH_FAILPOINT_FIRED("engine.cache.lookup")) {
    QMATCH_COUNTER_ADD("engine.cache.fault_misses", 1);
    return false;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    ++cache_stats_.misses;
    QMATCH_COUNTER_ADD("engine.cache.misses", 1);
    return false;
  }
  const CacheEntry& entry = *it->second;
  MatchResult result;
  result.algorithm = entry.algorithm;
  result.schema_qom = entry.schema_qom;
  result.correspondences.reserve(entry.correspondences.size());
  for (const CachedCorrespondence& c : entry.correspondences) {
    const xsd::SchemaNode* s = source.FindByPath(c.source_path);
    const xsd::SchemaNode* t = target.FindByPath(c.target_path);
    if (s == nullptr || t == nullptr) {
      // Fingerprint collision or a path the caller's schema cannot
      // resolve: treat as a miss and recompute rather than return a
      // result pointing into the wrong trees.
      ++cache_stats_.misses;
      QMATCH_COUNTER_ADD("engine.cache.misses", 1);
      QMATCH_COUNTER_ADD("engine.cache.rehydration_failures", 1);
      return false;
    }
    result.correspondences.push_back(Correspondence{s, t, c.score});
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  ++cache_stats_.hits;
  QMATCH_COUNTER_ADD("engine.cache.hits", 1);
  QMATCH_COUNTER_ADD("engine.cache.rehydrated_correspondences",
                     result.correspondences.size());
  *out = std::move(result);
  return true;
}

void MatchEngine::CacheStore(const CacheKey& key,
                             const MatchResult& result) const {
  // A failed store is dropped silently (the entry is recomputed next time);
  // correctness never depends on the store landing.
  if (QMATCH_FAILPOINT_FIRED("engine.cache.store")) {
    QMATCH_COUNTER_ADD("engine.cache.dropped_stores", 1);
    return;
  }
  CacheEntry entry;
  entry.key = key;
  entry.algorithm = result.algorithm;
  entry.schema_qom = result.schema_qom;
  entry.correspondences.reserve(result.correspondences.size());
  for (const Correspondence& c : result.correspondences) {
    entry.correspondences.push_back(
        CachedCorrespondence{c.source->Path(), c.target->Path(), c.score});
  }
  persist::CacheEntryRec rec;
  // The record feeds both the local journal and the replication stream —
  // built whenever either consumer is attached.
  const bool record_needed = persist_ != nullptr || HasReplicationObserver();
  if (record_needed) {
    rec.source_fp = key.source_fp;
    rec.target_fp = key.target_fp;
    rec.config_hash = key.config_hash;
    rec.algorithm = entry.algorithm;
    rec.schema_qom = entry.schema_qom;
    rec.correspondences.reserve(entry.correspondences.size());
    for (const CachedCorrespondence& c : entry.correspondences) {
      rec.correspondences.push_back(
          persist::CorrespondenceRec{c.source_path, c.target_path, c.score});
    }
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      *it->second = std::move(entry);
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    } else {
      cache_lru_.push_front(std::move(entry));
      cache_index_[key] = cache_lru_.begin();
      while (cache_lru_.size() > options_.cache_capacity) {
        cache_index_.erase(cache_lru_.back().key);
        cache_lru_.pop_back();
        ++cache_stats_.evictions;
        QMATCH_COUNTER_ADD("engine.cache.evictions", 1);
      }
      cache_stats_.entries = cache_lru_.size();
      QMATCH_GAUGE_SET("engine.cache.entries", cache_lru_.size());
    }
  }
  if (persist_ != nullptr) {
    // Journal outside the cache lock (the store serializes on its own
    // mutex). CacheStore only ever sees full-fidelity results, so every
    // append is a trustworthy upsert; a failed append is dropped — the
    // entry is simply recomputed after the next restart.
    Status appended = persist_->AppendCache(rec);
    if (!appended.ok()) {
      QMATCH_COUNTER_ADD("persist.append_dropped", 1);
    }
    MaybeCompactPersist();
  }
  if (record_needed) NotifyReplicated(rec);
}

MatchResult MatchEngine::MatchUncached(const xsd::Schema& source,
                                       const xsd::Schema& target,
                                       ThreadPool* pool) const {
  return matcher_.Match(source, target, pool);
}

MatchResult MatchEngine::Match(const xsd::Schema& source,
                               const xsd::Schema& target) const {
  QMATCH_SPAN(span, "engine.match");
  QMATCH_SPAN_ARG(span, "source_nodes", source.NodeCount());
  QMATCH_SPAN_ARG(span, "target_nodes", target.NodeCount());
  const bool cached = options_.cache_capacity > 0;
  CacheKey key;
  if (cached) {
    key = MakeKey(source, target);
    MatchResult hit;
    if (CacheLookup(key, source, target, &hit)) return hit;
  }
  const size_t pairs = source.NodeCount() * target.NodeCount();
  // The untyped API has no deadline to bound a queue wait and no way to
  // return a typed shed, so it applies pure backpressure: block until
  // capacity frees up. Callers that want load shedding use the typed Match.
  AdmissionPermit permit;
  admission_.AdmitBlocking(std::max<uint64_t>(1, pairs), &permit);
  ThreadPool* pool =
      (threads_ > 1 && pairs >= options_.min_parallel_pairs) ? pool_.get()
                                                             : nullptr;
  MatchResult result = MatchUncached(source, target, pool);
  if (cached) CacheStore(key, result);
  return result;
}

match::SimilarityMatrix MatchEngine::Similarity(
    const xsd::Schema& source, const xsd::Schema& target) const {
  const size_t pairs = source.NodeCount() * target.NodeCount();
  ThreadPool* pool =
      (threads_ > 1 && pairs >= options_.min_parallel_pairs) ? pool_.get()
                                                             : nullptr;
  return matcher_.Similarity(source, target, pool);
}

std::vector<MatchResult> MatchEngine::MatchAll(
    const std::vector<MatchJob>& jobs) const {
  std::vector<MatchResult> results(jobs.size());
  if (jobs.empty()) return results;
  if (jobs.size() == 1) {
    // A single job gets the row-parallel fill instead of job fan-out.
    results[0] = Match(*jobs[0].source, *jobs[0].target);
    return results;
  }
  // Fan jobs out across the pool; each job fills its own table
  // sequentially (the batch already saturates the workers, and one table
  // per thread keeps memory locality). Determinism: slot i is written by
  // exactly one task and holds the result of jobs[i] no matter which
  // worker ran it or in what order.
  QMATCH_SPAN(span, "engine.match_all");
  QMATCH_SPAN_ARG(span, "jobs", jobs.size());
  QMATCH_OBS_ONLY(const uint64_t fanout_start_ns = obs::MonotonicNowNs();)
  pool_->ParallelFor(jobs.size(), [&](size_t i) {
    const bool cached = options_.cache_capacity > 0;
    CacheKey key;
    if (cached) {
      key = MakeKey(*jobs[i].source, *jobs[i].target);
      if (CacheLookup(key, *jobs[i].source, *jobs[i].target, &results[i])) {
        return;
      }
    }
    AdmissionPermit permit;
    admission_.AdmitBlocking(
        std::max<uint64_t>(1, jobs[i].source->NodeCount() *
                                  jobs[i].target->NodeCount()),
        &permit);
    results[i] = MatchUncached(*jobs[i].source, *jobs[i].target, nullptr);
    if (cached) CacheStore(key, results[i]);
  });
  QMATCH_HISTOGRAM_OBSERVE("engine.batch_fanout_ns",
                           obs::MonotonicNowNs() - fanout_start_ns);
  QMATCH_COUNTER_ADD("engine.batch_jobs", jobs.size());
  return results;
}

EngineMatchResult MatchEngine::Match(const xsd::Schema& source,
                                     const xsd::Schema& target,
                                     const EngineRequestOptions& options) const {
  QMATCH_SPAN(span, "engine.match_request");
  QMATCH_SPAN_ARG(span, "source_nodes", source.NodeCount());
  QMATCH_SPAN_ARG(span, "target_nodes", target.NodeCount());
  EngineMatchResult out;
  out.total_rows = source.NodeCount();
  const ExecControl control{options.deadline, options.cancel};
  const bool cached = options_.cache_capacity > 0;
  CacheKey key;
  if (cached) {
    key = MakeKey(source, target);
    MatchResult hit;
    if (CacheLookup(key, source, target, &hit)) {
      // A hit is instant and complete, so it is served even when the
      // envelope has already tripped — strictly better than a partial.
      out.result = std::move(hit);
      out.completed_rows = out.total_rows;
      CountRequestOutcome(out.status);
      return out;
    }
  }
  const size_t pairs = source.NodeCount() * target.NodeCount();
  const OverloadOptions& overload = options_.overload;

  // Admission: over-capacity requests queue (FIFO, up to the deadline) or
  // are shed with a typed kOverloaded before any matching work runs.
  AdmissionPermit permit;
  {
    Status admitted =
        admission_.Admit(std::max<uint64_t>(1, pairs), control, &permit);
    if (!admitted.ok()) {
      out.status = std::move(admitted);
      CountRequestOutcome(out.status);
      return out;
    }
  }

  // A request whose envelope has tripped by the time it is admitted —
  // while it queued, or while a corpus entry was being parsed under the
  // shared deadline — does no matching work (not even the flatten the
  // table charge below needs).
  if (const StopReason stopped = control.Check();
      stopped != StopReason::kNone) {
    out.status = StopStatus(stopped, "match");
    out.result.algorithm = std::string(matcher_.name());
    CountRequestOutcome(out.status);
    return out;
  }

  // Degradation ladder: the pressure signal picks the rung, unless the
  // request pins one explicitly.
  const double pressure = Pressure();
  QMATCH_GAUGE_SET("engine.pressure_permille",
                   static_cast<uint64_t>(pressure * 1000.0));
  MatchMode mode = MatchMode::kFull;
  if (options.force_mode.has_value()) {
    mode = *options.force_mode;
  } else if (pressure >= kLabelOnlyPressure) {
    mode = MatchMode::kLabelOnly;
  } else if (pressure >= kCappedDepthPressure) {
    mode = MatchMode::kCappedDepth;
  }
  if (mode == MatchMode::kCappedDepth) {
    QMATCH_COUNTER_ADD("engine.degraded.capped_depth", 1);
  } else if (mode == MatchMode::kLabelOnly) {
    QMATCH_COUNTER_ADD("engine.degraded.label_only", 1);
  }

  // Memory budget: the pairwise table is this request's dominant
  // allocation; charge its real footprint (the kernel's 9-byte-per-pair
  // columns plus the distinct-label class matrix — they live outside the
  // scratch arena) to the request budget, which rolls up into the process
  // one, and reject with a typed kResourceExhausted instead of OOMing.
  MemoryBudget request_budget(overload.request_budget_bytes, &process_budget_);
  ScopedCharge table_charge(&request_budget);
  {
    Status charged = table_charge.Add(
        std::max<uint64_t>(
            1, match::CompactTableBytes(source.Flat(), target.Flat())),
        "pairwise QoM table");
    if (!charged.ok()) {
      out.status = std::move(charged);
      CountRequestOutcome(out.status);
      return out;
    }
  }

  TreeMatchOptions tree;
  tree.mode = mode;
  tree.children_depth_cap = overload.children_depth_cap;
  // The SoA kernel's scratch arena charges the same request budget as the
  // table, block-by-block; exhaustion surfaces as ArenaExhausted below.
  tree.arena_budget = &request_budget;
  ThreadPool* pool =
      (threads_ > 1 && pairs >= options_.min_parallel_pairs) ? pool_.get()
                                                             : nullptr;
  try {
    QMatch::Analysis analysis =
        matcher_.Analyze(source, target, pool, &control, tree);
    out.completed_rows = analysis.completed_rows();
    out.total_rows = analysis.total_rows();
    switch (analysis.stop_reason()) {
      case StopReason::kNone:
        out.result = analysis.TakeResult();
        // Only full-fidelity answers enter the cache: a degraded result
        // must never be served later as if it were the real one.
        if (cached && mode == MatchMode::kFull) CacheStore(key, out.result);
        break;
      case StopReason::kCancelled:
      case StopReason::kDeadlineExceeded:
        out.status = StopStatus(analysis.stop_reason(), "match");
        out.result = analysis.TakeResult();
        QMATCH_COUNTER_ADD("engine.partial_correspondences",
                           out.result.correspondences.size());
        break;
    }
  } catch (const ArenaExhausted& e) {
    // The kernel's scratch arena hit the request/process memory budget (or
    // the arena.alloc failpoint): same typed rejection as the table charge.
    out.status =
        Status::ResourceExhausted(std::string("match arena: ") + e.what());
    out.result = MatchResult{};
    out.completed_rows = 0;
  } catch (const std::exception& e) {
    // A throwing failpoint (or any other internal throw) still produces a
    // typed response — no request escapes the status contract.
    out.status = Status::Internal(std::string("match failed: ") + e.what());
    out.result = MatchResult{};
    out.completed_rows = 0;
  }
  CountRequestOutcome(out.status);
  return out;
}

std::vector<EngineMatchResult> MatchEngine::MatchAll(
    const std::vector<MatchJob>& jobs,
    const EngineRequestOptions& options) const {
  std::vector<EngineMatchResult> results(jobs.size());
  if (jobs.empty()) return results;
  QMATCH_SPAN(span, "engine.match_all_request");
  QMATCH_SPAN_ARG(span, "jobs", jobs.size());
  // Same determinism contract as the untyped MatchAll: slot i holds the
  // result of jobs[i] regardless of scheduling. The typed Match never
  // throws, so the fan-out completes even when every job degrades.
  pool_->ParallelFor(jobs.size(), [&](size_t i) {
    results[i] = Match(*jobs[i].source, *jobs[i].target, options);
  });
  return results;
}

namespace {

/// Loads one corpus file, retrying transient (kIoError) failures with
/// seeded jittered exponential backoff. The `engine.corpus.load` failpoint
/// injects exactly such transient failures ahead of the real read.
Result<std::string> LoadCorpusFile(const std::string& path,
                                   const CorpusMatchOptions& options,
                                   const ExecControl& control,
                                   size_t* attempts_out) {
  const size_t max_attempts = std::max<size_t>(1, options.max_load_attempts);
  Status last = Status::IoError(path + ": no load attempt ran");
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    *attempts_out = attempt + 1;
    const StopReason stopped = control.Check();
    if (stopped != StopReason::kNone) return StopStatus(stopped, path);
    if (QMATCH_FAILPOINT_FIRED("engine.corpus.load")) {
      last = Status::IoError(path + ": injected transient load failure");
    } else {
      Result<std::string> text = ReadFile(path);
      if (text.ok()) return text;
      last = text.status();
    }
    QMATCH_COUNTER_ADD("engine.corpus.load_failures", 1);
    // Only I/O failures are presumed transient; anything else is final.
    if (last.code() != StatusCode::kIoError) return last;
    if (attempt + 1 >= max_attempts) break;
    QMATCH_COUNTER_ADD("engine.corpus.load_retries", 1);
    // Backoff for attempt k: base * 2^k jittered to [50%, 100%], capped,
    // and clamped so a sleep can never outlive the request deadline. The
    // jitter stream is seeded per (seed, path, attempt): deterministic to
    // replay, decorrelated across files so retries do not stampede.
    Random jitter(options.backoff_seed ^ HashBytes(path) ^
                  (0x9E3779B97F4A7C15ULL * (attempt + 1)));
    const auto shift = std::min<size_t>(attempt, 10);
    auto backoff = std::min<std::chrono::milliseconds>(
        options.backoff_base * (uint64_t{1} << shift), options.backoff_cap);
    auto backoff_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(backoff);
    if (backoff_ns.count() > 0) {
      const uint64_t span_ns = static_cast<uint64_t>(backoff_ns.count());
      auto sleep_ns = std::chrono::nanoseconds(
          static_cast<int64_t>(span_ns / 2 + jitter.Uniform(span_ns / 2 + 1)));
      const auto remaining = control.deadline.Remaining();
      if (remaining < sleep_ns) {
        sleep_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
            remaining);
      }
      if (sleep_ns.count() > 0) std::this_thread::sleep_for(sleep_ns);
    }
  }
  return last;
}

}  // namespace

CorpusMatchResult MatchEngine::MatchCorpus(
    const xsd::Schema& query, const std::vector<std::string>& paths,
    const CorpusMatchOptions& options) const {
  QMATCH_SPAN(span, "engine.match_corpus");
  QMATCH_SPAN_ARG(span, "paths", paths.size());
  QMATCH_COUNTER_ADD("engine.corpus.requests", 1);
  CorpusMatchResult out;
  out.entries.resize(paths.size());
  if (paths.empty()) return out;
  const ExecControl control{options.request.deadline, options.request.cancel};
  // One corpus entry, start to finish: load (with retry), parse, match.
  // Failures are contained per entry — a poisoned file degrades its own
  // slot and nothing else. Entries that fail before reaching the typed
  // Match are tallied here so the request accounting stays exact.
  auto process = [&](size_t i) {
    CorpusEntryResult& entry = out.entries[i];
    entry.path = paths[i];
    // Per-entry circuit breaker: an entry that repeatedly failed (load,
    // parse or internal) across requests is rejected up front instead of
    // burning retries on it again. Deadline/cancellation/shed outcomes are
    // the request's fault, not the entry's, and leave the breaker alone.
    CircuitBreaker* breaker;
    {
      std::lock_guard<std::mutex> lock(breaker_mutex_);
      breaker = &breakers_
                     .try_emplace(paths[i],
                                  CircuitBreakerOptions{
                                      options_.overload.breaker_failure_threshold,
                                      options_.overload.breaker_cooldown})
                     .first->second;
    }
    if (!breaker->Allow()) {
      entry.status = Status::Overloaded(paths[i] + ": circuit breaker open");
      CountRequestOutcome(entry.status);
      QMATCH_COUNTER_ADD("engine.corpus.breaker_rejections", 1);
      return;
    }
    // Reports the entry's final outcome to its breaker on every exit path.
    struct BreakerRecord {
      CircuitBreaker* breaker;
      const Status* status;
      ~BreakerRecord() {
        switch (status->code()) {
          case StatusCode::kOk:
            breaker->RecordSuccess();
            break;
          case StatusCode::kIoError:
          case StatusCode::kParseError:
          case StatusCode::kInternal:
          case StatusCode::kResourceExhausted:
            breaker->RecordFailure();
            break;
          default:
            breaker->RecordNeutral();
            break;
        }
      }
    } breaker_record{breaker, &entry.status};
    try {
      const StopReason stopped = control.Check();
      if (stopped != StopReason::kNone) {
        entry.status = StopStatus(stopped, paths[i]);
        CountRequestOutcome(entry.status);
        return;
      }
      Result<std::string> text =
          LoadCorpusFile(paths[i], options, control, &entry.load_attempts);
      if (!text.ok()) {
        entry.status = text.status();
        CountRequestOutcome(entry.status);
        return;
      }
      Result<xsd::Schema> schema =
          xsd::ParseSchema(*text, options.parse);
      if (!schema.ok()) {
        entry.status = schema.status().WithContext(paths[i]);
        CountRequestOutcome(entry.status);
        return;
      }
      // The entry owns the schema so the correspondences (which point into
      // its node tree) outlive this task.
      entry.schema = std::move(*schema);
      EngineMatchResult match = Match(query, entry.schema, options.request);
      entry.status = std::move(match.status);
      entry.result = std::move(match.result);
      entry.completed_rows = match.completed_rows;
      entry.total_rows = match.total_rows;
    } catch (const std::exception& e) {
      entry.status =
          Status::Internal(paths[i] + ": corpus entry failed: " + e.what());
      CountRequestOutcome(entry.status);
    }
  };
  pool_->ParallelFor(paths.size(), process);
  for (const CorpusEntryResult& entry : out.entries) {
    if (entry.ok()) {
      ++out.ok;
    } else {
      ++out.degraded;
      QMATCH_COUNTER_ADD("engine.corpus.degraded_entries", 1);
    }
  }
  QMATCH_COUNTER_ADD("engine.corpus.entries", out.entries.size());
  if (persist_ != nullptr || HasReplicationObserver()) {
    // Journal the corpus index: last-seen schema fingerprint and breaker
    // failure count per path, appended only when something changed so a
    // steady-state corpus query costs zero journal growth.
    std::vector<persist::CorpusEntryRec> changed;
    {
      std::lock_guard<std::mutex> lock(breaker_mutex_);
      for (const CorpusEntryResult& entry : out.entries) {
        persist::CorpusEntryRec rec;
        rec.path = entry.path;
        auto prev = corpus_index_.find(entry.path);
        if (prev != corpus_index_.end()) {
          // A failed load/parse keeps the last-known fingerprint.
          rec.schema_fp = prev->second.schema_fp;
        }
        if (entry.schema.root() != nullptr) {
          rec.schema_fp = xsd::SchemaFingerprint(entry.schema);
        }
        auto breaker = breakers_.find(entry.path);
        if (breaker != breakers_.end()) {
          rec.breaker_failures = static_cast<uint32_t>(
              std::max(0, breaker->second.consecutive_failures()));
        }
        if (prev == corpus_index_.end() || !(prev->second == rec)) {
          corpus_index_[entry.path] = rec;
          changed.push_back(std::move(rec));
        }
      }
    }
    if (persist_ != nullptr) {
      for (const persist::CorpusEntryRec& rec : changed) {
        Status appended = persist_->AppendCorpus(rec);
        if (!appended.ok()) {
          QMATCH_COUNTER_ADD("persist.append_dropped", 1);
          break;
        }
      }
      MaybeCompactPersist();
    }
    // Replicate every changed record even when a local append failed — the
    // in-memory state moved, and the stream mirrors state, not the disk.
    for (const persist::CorpusEntryRec& rec : changed) NotifyReplicated(rec);
  }
  return out;
}

std::vector<MatchResult> MatchEngine::MatchOneToMany(
    const xsd::Schema& query,
    const std::vector<const xsd::Schema*>& candidates) const {
  std::vector<MatchJob> jobs;
  jobs.reserve(candidates.size());
  for (const xsd::Schema* candidate : candidates) {
    jobs.push_back(MatchJob{&query, candidate});
  }
  return MatchAll(jobs);
}

double MatchEngine::Pressure() const {
  return std::max(admission_.Pressure(), process_budget_.Pressure());
}

MatchEngineCacheStats MatchEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  MatchEngineCacheStats stats = cache_stats_;
  stats.entries = cache_lru_.size();
  return stats;
}

void MatchEngine::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_lru_.clear();
  cache_index_.clear();
  cache_stats_ = MatchEngineCacheStats{};
}

}  // namespace qmatch::core
