#ifndef QMATCH_CORE_ENGINE_H_
#define QMATCH_CORE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/admission.h"
#include "common/cancel.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "match/matcher.h"
#include "persist/store.h"
#include "xsd/parser.h"
#include "xsd/schema.h"

namespace qmatch::core {

/// Degradation ladder thresholds on the pressure signal (max of admission
/// pressure and process-budget watermark, in [0, 1]): pressure >=
/// kCappedDepthPressure degrades to kCappedDepth, >= kLabelOnlyPressure to
/// kLabelOnly (DESIGN.md §11).
inline constexpr double kCappedDepthPressure = 0.75;
inline constexpr double kLabelOnlyPressure = 0.90;

/// Overload-protection knobs: admission control, memory budgets and the
/// pressure-driven degradation ladder. Every default leaves the mechanism
/// off, so an unconfigured engine behaves bit-identically to one built
/// before this layer existed.
struct OverloadOptions {
  /// Admission control over typed requests (cost = |Ns|·|Nt| node pairs).
  /// Disabled while `admission.max_inflight_cost` is 0.
  AdmissionOptions admission;

  /// Process-wide memory budget shared by every request (0 = unlimited).
  uint64_t process_budget_bytes = 0;

  /// Per-request memory budget, charged into the process budget
  /// (0 = unlimited). Bounds one request's pairwise table + parse arena.
  uint64_t request_budget_bytes = 0;

  /// Subtree-depth cap of the kCappedDepth rung (see TreeMatchOptions).
  size_t children_depth_cap = 3;

  /// Per-corpus-entry circuit breaker (see CircuitBreaker): consecutive
  /// load/parse/internal failures before the entry stops being admitted,
  /// and how long it stays open.
  int breaker_failure_threshold = 3;
  std::chrono::milliseconds breaker_cooldown{250};
};

/// Tuning knobs for the parallel batch-match engine.
struct MatchEngineOptions {
  /// Total worker parallelism including the calling thread; 0 picks the
  /// hardware concurrency. threads=1 is the sequential reference path.
  size_t threads = 0;

  /// Capacity (entries) of the bounded LRU result cache; 0 disables
  /// caching. One entry stores the correspondences of one
  /// (source fingerprint, target fingerprint, config) triple by path, so
  /// repeated corpus queries — the schema_search workload — skip the
  /// O(n·m) table entirely and only rehydrate node pointers.
  size_t cache_capacity = 128;

  /// Pairwise tables with fewer than this many (source, target) pairs are
  /// filled sequentially even when workers are available: below this size
  /// the fan-out overhead dominates the table fill.
  size_t min_parallel_pairs = 2048;

  /// Overload protection (admission, budgets, degradation). All off by
  /// default.
  OverloadOptions overload;

  /// Directory of the crash-safe persistence layer (DESIGN.md §12). When
  /// set, the result cache and the corpus index are journaled there and
  /// reloaded on construction (warm start); recovered cache entries serve
  /// bit-identical QoM to a fresh compute. Entries whose config fingerprint
  /// does not match this engine's are dropped, never trusted. Empty (the
  /// default) = persistence off.
  std::string persist_dir;

  /// Journal appends between automatic compactions of the journal into the
  /// snapshot. 0 disables periodic compaction; shutdown still compacts.
  size_t persist_compact_interval = 256;
};

/// Observability counters of the result cache.
struct MatchEngineCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t entries = 0;
};

/// One unit of corpus work: match *source against *target. Both schemas
/// must outlive the returned results.
struct MatchJob {
  const xsd::Schema* source = nullptr;
  const xsd::Schema* target = nullptr;
};

/// Per-request robustness envelope: a deadline for the whole request and an
/// optional cancellation token, both polled cooperatively down to
/// node-pair granularity inside TreeMatch. Default = unbounded,
/// uncancellable (the classic run-to-completion behaviour).
struct EngineRequestOptions {
  Deadline deadline;
  const CancellationToken* cancel = nullptr;

  /// Pins the degradation mode instead of letting the pressure signal pick
  /// it — tests and quality experiments use this to get a deterministic
  /// degraded run; production callers normally leave it unset.
  std::optional<MatchMode> force_mode;
};

/// Typed outcome of one deadline/cancellation-aware match. `status` is the
/// request's type: OK, kDeadlineExceeded, kCancelled, or a load/parse/
/// internal error. A degraded request still carries whatever completed —
/// `result.correspondences` is always a subset of what the fault-free,
/// unbounded run would report (the monotone partial-result contract,
/// DESIGN.md §10).
struct EngineMatchResult {
  Status status;
  MatchResult result;
  /// Table-fill progress: completed_rows == total_rows iff the pairwise
  /// QoM table ran to completion (then status is OK or a load error).
  size_t completed_rows = 0;
  size_t total_rows = 0;

  bool ok() const { return status.ok(); }
};

/// Options of MatchCorpus — corpus loading plus the request envelope.
struct CorpusMatchOptions {
  /// Budget/cancellation shared by every schema in the corpus request.
  EngineRequestOptions request;

  /// XSD parse options applied to each loaded file.
  xsd::ParseOptions parse;

  /// Total load attempts per file (1 = no retry). Only kIoError failures
  /// are retried — transient by assumption (NFS blips, the
  /// `engine.corpus.load` failpoint); parse errors are deterministic and
  /// never retried.
  size_t max_load_attempts = 3;

  /// Exponential backoff between load attempts: attempt k sleeps
  /// base * 2^k, jittered to [50%, 100%] on a seeded stream and capped —
  /// deterministic for a given (seed, path, attempt), never past the
  /// request deadline.
  std::chrono::milliseconds backoff_base{1};
  std::chrono::milliseconds backoff_cap{50};
  uint64_t backoff_seed = 0x51D3CAFEULL;
};

/// Outcome of one corpus file inside a MatchCorpus request.
struct CorpusEntryResult {
  std::string path;
  Status status;  ///< OK | kIoError | kParseError | kDeadlineExceeded | kCancelled | kInternal
  /// The parsed candidate schema, owned here because `result`'s
  /// correspondences point into its node tree (moving a Schema keeps node
  /// addresses stable, so vector growth in `entries` is safe). Empty
  /// (null root) when loading or parsing failed.
  xsd::Schema schema;
  MatchResult result;
  size_t completed_rows = 0;
  size_t total_rows = 0;
  size_t load_attempts = 0;

  bool ok() const { return status.ok(); }
};

/// Aggregate result of MatchCorpus: entries[i] always corresponds to
/// paths[i], every entry carries a typed status, and the tallies account
/// for every request (ok + degraded == entries.size()).
struct CorpusMatchResult {
  std::vector<CorpusEntryResult> entries;
  size_t ok = 0;
  size_t degraded = 0;  ///< deadline + cancelled + load/parse errors
};

/// MatchEngine — the production front door to QMatch for corpus-scale
/// workloads. Wraps one QMatch configuration with
///
///  1. a fixed ThreadPool that fans a batch of (source, target) pairs out
///     across workers with deterministic, input-ordered results
///     (`MatchAll`, `MatchOneToMany`);
///  2. a row-parallel fill of the inner pairwise-QoM table for a single
///     large match (`Match`), sharded by source level so the bottom-up
///     memoisation is preserved — output is bit-identical to the
///     sequential path for every thread count (proven by
///     tests/core_engine_test.cpp, including under ThreadSanitizer);
///  3. a bounded LRU cache keyed on (schema fingerprint pair, config
///     hash), so repeated queries against a repository skip recomputation.
///
/// The engine is itself a `Matcher`, so it drops into every API that
/// consumes one (the composite matcher, the CLI).
/// All public methods are safe to call concurrently.
class MatchEngine : public Matcher {
 public:
  explicit MatchEngine(MatchEngineOptions options = {});
  explicit MatchEngine(QMatchConfig config, MatchEngineOptions options = {});
  /// `thesaurus` is borrowed (may be null) and must outlive the engine.
  MatchEngine(QMatchConfig config, const lingua::Thesaurus* thesaurus,
              MatchEngineOptions options);
  ~MatchEngine() override;

  std::string_view name() const override { return "hybrid"; }

  const QMatchConfig& config() const { return matcher_.config(); }

  /// Fingerprint of every config field that influences match output — the
  /// cache key component and the persistence-layer trust boundary (records
  /// from a differently-fingerprinted engine are dropped on load).
  uint64_t config_hash() const { return config_hash_; }

  /// Resolved total parallelism (>= 1).
  size_t threads() const { return threads_; }

  /// Matches one pair: the typed Match with the default (unbounded)
  /// envelope, returning its `.result`. With the default OverloadOptions
  /// that is the full result; on an overload-configured engine the request
  /// is admitted, charged and possibly degraded like any other, and a
  /// refusal returns an empty, algorithm-stamped result.
  MatchResult Match(const xsd::Schema& source,
                    const xsd::Schema& target) const override;

  /// Raw pairwise QoM matrix, row-parallel for large tables (uncached —
  /// the matrix dominates the recomputation cost anyway).
  match::SimilarityMatrix Similarity(const xsd::Schema& source,
                                     const xsd::Schema& target) const override;

  /// The typed MatchAll with the default envelope, returning each `.result`.
  /// results[i] always corresponds to jobs[i] and every result is
  /// bit-identical to a sequential `QMatch::Match` on the same pair,
  /// regardless of thread count or completion order.
  std::vector<MatchResult> MatchAll(const std::vector<MatchJob>& jobs) const;

  /// Convenience fan-out of one query against a candidate repository —
  /// the paper's Section 1 retrieval scenario.
  std::vector<MatchResult> MatchOneToMany(
      const xsd::Schema& query,
      const std::vector<const xsd::Schema*>& candidates) const;

  /// Deadline/cancellation-aware single match — the one request path every
  /// match takes: cache lookup, admission, degradation, memory-budget
  /// charge, the table fill (row-parallel for large tables), cache store.
  /// Never blocks past the deadline (modulo one node-pair of slack): the
  /// TreeMatch table fill polls the envelope at node-pair granularity and
  /// returns a typed partial result instead of running to completion. A
  /// FailpointException or other internal throw is converted to a kInternal
  /// status — the request always returns, typed. Degraded results are
  /// never cached.
  EngineMatchResult Match(const xsd::Schema& source, const xsd::Schema& target,
                          const EngineRequestOptions& options) const;

  /// Batch fan-out with a shared request envelope: results[i] corresponds
  /// to jobs[i] and each carries its own typed status (a deadline trips
  /// jobs still running; completed jobs keep their full results). A large
  /// job nests the row-parallel fill inside the job fan-out.
  std::vector<EngineMatchResult> MatchAll(
      const std::vector<MatchJob>& jobs,
      const EngineRequestOptions& options) const;

  /// The production corpus entry point: loads, parses and matches `query`
  /// against every schema file in `paths`, fanning entries across the
  /// pool. Transient (kIoError) load failures are retried with seeded,
  /// jittered exponential backoff; parse failures, deadline expiry and
  /// cancellation degrade that entry to a typed status without disturbing
  /// the others. entries[i] always corresponds to paths[i].
  CorpusMatchResult MatchCorpus(const xsd::Schema& query,
                                const std::vector<std::string>& paths,
                                const CorpusMatchOptions& options = {}) const;

  MatchEngineCacheStats cache_stats() const;
  void ClearCache();

  /// True when `persist_dir` was set and the store opened successfully.
  bool persist_enabled() const { return persist_ != nullptr; }

  /// Accounting of the warm-start load: what was recovered, dropped
  /// untrusted, or truncated as a torn journal tail. Zero-initialised when
  /// persistence is off.
  const persist::LoadStats& persist_load_stats() const {
    return persist_load_stats_;
  }

  /// Compacts the persistence journal into a fresh snapshot of the current
  /// in-memory state (cache + corpus index). No-op (OK) when persistence is
  /// off. Runs automatically every `persist_compact_interval` journal
  /// appends and once more at destruction.
  Status CompactPersist() const;

  /// Replication hooks (DESIGN.md §15). The observer is invoked after each
  /// durable state mutation — a cache store or a corpus-index update — with
  /// the *same record* the local journal receives, so a primary can ship
  /// its journal stream to a warm standby byte-for-byte. Callbacks run on
  /// whatever thread performed the mutation, outside the engine's cache/
  /// breaker locks; they must not call back into the engine.
  struct ReplicationObserver {
    std::function<void(const persist::CacheEntryRec&)> cache;
    std::function<void(const persist::CorpusEntryRec&)> corpus;
  };
  void SetReplicationObserver(ReplicationObserver observer);

  /// Applies one record received from a primary's replication stream: the
  /// same config-fingerprint trust boundary and idempotent last-wins upsert
  /// as warm-start replay, journaled into the local persist store (so a
  /// promoted standby is immediately durable) but NEVER echoed to the
  /// replication observer — a standby cannot loop records back. Safe to
  /// call concurrently with serving reads.
  void ApplyReplicatedCacheEntry(const persist::CacheEntryRec& rec);
  void ApplyReplicatedCorpusEntry(const persist::CorpusEntryRec& rec);

  /// Full durable state (cache entries oldest-first + corpus index) as
  /// persistable records — what compaction snapshots, and the replication
  /// anchor a primary sends to a standby that is too far behind to catch
  /// up from the log. Oldest-first order makes warm-start replay reproduce
  /// the LRU recency.
  persist::StoreState ExportState() const;

  /// Live load signal in [0, 1]: max of admission pressure (cost/queue
  /// fill) and the process-budget watermark. Drives the degradation
  /// ladder; also exported as the `engine.pressure_permille` gauge.
  double Pressure() const;

  /// Read-only access to the overload-protection state (tests, benches).
  const AdmissionController& admission() const { return admission_; }
  const MemoryBudget& process_budget() const { return process_budget_; }

 private:
  /// LRU index key: (source fingerprint, target fingerprint, config hash).
  using LruKey = std::tuple<uint64_t, uint64_t, uint64_t>;
  static LruKey KeyOf(const persist::CacheEntryRec& rec);

  /// The row-parallel fill pool for a table of `pairs` node pairs, or null
  /// when the table is too small (or the engine sequential) to fan out.
  ThreadPool* FillPool(size_t pairs) const;
  bool CacheLookup(const LruKey& key, const xsd::Schema& source,
                   const xsd::Schema& target, MatchResult* out) const;
  void CacheStore(const LruKey& key, const MatchResult& result) const;

  /// Opens the persistent store and warm-starts the cache, breakers and
  /// corpus index from it. A store that cannot open leaves the engine fully
  /// functional, just cold.
  void InitPersist();
  /// Idempotent last-wins LRU upsert of one cache record, evicting (and
  /// counting) past capacity; caller holds cache_mutex_ and has already
  /// verified the config hash.
  void UpsertCacheRecLocked(persist::CacheEntryRec rec) const;
  /// Corpus-index + breaker upsert of one persisted record; caller holds
  /// breaker_mutex_.
  void UpsertCorpusRecLocked(const persist::CorpusEntryRec& rec) const;
  /// The circuit breaker of one corpus path, created on first use; caller
  /// holds breaker_mutex_.
  CircuitBreaker& BreakerLocked(const std::string& path) const;
  /// Invoke the replication observer (if set) outside every engine lock.
  void NotifyReplicated(const persist::CacheEntryRec& rec) const;
  void NotifyReplicated(const persist::CorpusEntryRec& rec) const;
  bool HasReplicationObserver() const;
  void MaybeCompactPersist() const;

  QMatch matcher_;
  uint64_t config_hash_ = 0;
  size_t threads_ = 1;
  MatchEngineOptions options_;
  mutable std::unique_ptr<ThreadPool> pool_;

  mutable AdmissionController admission_;
  mutable MemoryBudget process_budget_;
  mutable std::mutex breaker_mutex_;
  /// Per-corpus-path circuit breakers, created on first use and persistent
  /// across MatchCorpus requests (that persistence is the point: repeated
  /// failures across requests open the circuit).
  mutable std::map<std::string, CircuitBreaker> breakers_;

  mutable std::mutex cache_mutex_;
  /// The cache holds the same record the journal and the replication
  /// stream carry: correspondences by path, not node pointer, because a
  /// later call may pass different Schema objects with the same
  /// fingerprint, so pointers are rehydrated against the caller's schemas
  /// on every hit.
  mutable std::list<persist::CacheEntryRec> cache_lru_;  // front = most recent
  mutable std::map<LruKey, std::list<persist::CacheEntryRec>::iterator>
      cache_index_;
  mutable MatchEngineCacheStats cache_stats_;

  /// Crash-safe persistence (null = off). The store has its own mutex;
  /// lock order is always engine mutex -> store mutex, never the reverse.
  mutable std::unique_ptr<persist::PersistentStore> persist_;
  persist::LoadStats persist_load_stats_;
  /// Last journaled record per corpus path — MatchCorpus appends an update
  /// only when the fingerprint or breaker count actually changed. Guarded
  /// by breaker_mutex_ (it shadows the breakers).
  mutable std::map<std::string, persist::CorpusEntryRec> corpus_index_;

  /// Replication observer (DESIGN.md §15); guarded by its own mutex so a
  /// primary can attach/detach while requests are in flight. Lock order:
  /// never held while any other engine lock is taken.
  mutable std::mutex observer_mutex_;
  ReplicationObserver observer_;
};

}  // namespace qmatch::core

#endif  // QMATCH_CORE_ENGINE_H_
