#ifndef QMATCH_COMMON_ADMISSION_H_
#define QMATCH_COMMON_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/cancel.h"
#include "common/status.h"

namespace qmatch {

/// Tuning knobs of the AdmissionController.
struct AdmissionOptions {
  /// Total cost (node pairs, |Ns|·|Nt|) allowed in flight at once. 0
  /// disables admission control entirely — every request is admitted
  /// immediately, the controller is a pass-through.
  uint64_t max_inflight_cost = 0;

  /// Requests that cannot run immediately wait in a FIFO queue of at most
  /// this depth; arrivals beyond it are shed with kOverloaded.
  size_t max_queue_depth = 16;
};

class AdmissionController;

/// RAII hold on admitted capacity: returned by Admit, releases its cost
/// (and wakes queued waiters) on destruction. Move-only; a
/// default-constructed or moved-from Permit releases nothing.
class AdmissionPermit {
 public:
  AdmissionPermit() = default;
  AdmissionPermit(AdmissionPermit&& other) noexcept
      : controller_(other.controller_), cost_(other.cost_) {
    other.controller_ = nullptr;
    other.cost_ = 0;
  }
  AdmissionPermit& operator=(AdmissionPermit&& other) noexcept;
  AdmissionPermit(const AdmissionPermit&) = delete;
  AdmissionPermit& operator=(const AdmissionPermit&) = delete;
  ~AdmissionPermit() { Release(); }

  /// Returns the held cost early (idempotent).
  void Release() noexcept;

  bool held() const { return controller_ != nullptr; }
  uint64_t cost() const { return cost_; }

 private:
  friend class AdmissionController;
  AdmissionPermit(AdmissionController* controller, uint64_t cost)
      : controller_(controller), cost_(cost) {}

  AdmissionController* controller_ = nullptr;
  uint64_t cost_ = 0;
};

/// Cost-based admission control with a bounded FIFO pending queue.
///
/// Each request declares a cost proportional to its work (the engine uses
/// the pairwise-table size |Ns|·|Nt|). Requests are admitted while the
/// in-flight cost fits under `max_inflight_cost`; otherwise they wait in
/// FIFO order up to their deadline, and arrivals that find the queue full
/// are shed immediately with a typed kOverloaded Status — backpressure
/// with a hard bound on latency debt. A request costing more than the
/// whole capacity is clamped to it, so oversized work runs alone when the
/// system is idle instead of being unservable.
///
/// Thread-safe. The `admission.admit` failpoint injects a shed at the top
/// of Admit for chaos tests.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {})
      : options_(options) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool enabled() const { return options_.max_inflight_cost != 0; }

  /// Admits `cost` units of work, waiting (FIFO) up to `control`'s
  /// deadline/cancellation if the system is at capacity. On OK `*out`
  /// holds the admitted cost. Queue full → kOverloaded (shed, counted);
  /// deadline expiry / cancellation while queued → kDeadlineExceeded /
  /// kCancelled.
  Status Admit(uint64_t cost, const ExecControl& control,
               AdmissionPermit* out);

  /// Load signal in [0, 1]: the larger of cost utilization and queue fill.
  /// 0 when disabled. One input of the engine's degradation ladder.
  double Pressure() const;

  uint64_t inflight_cost() const;
  size_t queue_depth() const;
  /// Requests shed with kOverloaded since construction.
  uint64_t shed_total() const;

 private:
  friend class AdmissionPermit;

  struct Waiter {
    uint64_t id = 0;
    uint64_t cost = 0;
  };

  uint64_t ClampCost(uint64_t cost) const {
    return cost > options_.max_inflight_cost ? options_.max_inflight_cost
                                             : cost;
  }
  bool FitsLocked(uint64_t cost) const {
    return inflight_ + cost <= options_.max_inflight_cost;
  }
  void Release(uint64_t cost) noexcept;

  const AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t inflight_ = 0;       // guarded by mutex_
  uint64_t next_waiter_id_ = 0; // guarded by mutex_
  std::deque<Waiter> queue_;    // guarded by mutex_
  uint64_t shed_ = 0;           // guarded by mutex_
};

/// Tuning knobs of the CircuitBreaker.
struct CircuitBreakerOptions {
  /// Consecutive failures that open the circuit.
  int failure_threshold = 3;
  /// How long the circuit stays open before allowing a half-open probe.
  std::chrono::milliseconds cooldown{250};
};

/// Per-corpus-entry circuit breaker: after `failure_threshold` consecutive
/// failures the circuit opens and Allow() rejects (the engine maps that to
/// kOverloaded) until `cooldown` passes; then a single half-open probe is
/// let through — success closes the circuit, failure reopens it for
/// another cooldown. Builds on the per-load retry from the corpus loader:
/// retry handles transient blips, the breaker stops re-admitting entries
/// that keep failing across requests.
///
/// Thread-safe; non-copyable (store in a node-based map).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options = {})
      : options_(options) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True when a request may proceed. An open circuit past its cooldown
  /// transitions to half-open and admits exactly one probe.
  bool Allow();

  /// Reports the outcome of an allowed request.
  void RecordSuccess();
  void RecordFailure();
  /// Outcome that says nothing about the entry's health (deadline expiry,
  /// cancellation, admission shed): leaves the failure count and state
  /// alone, but returns a half-open probe slot so the breaker cannot wedge
  /// waiting for a probe that never reported.
  void RecordNeutral();

  State state() const;

  /// Failure history for persistence (the engine journals it per corpus
  /// entry).
  int consecutive_failures() const;

  /// Restores persisted failure history at warm start: sets the
  /// consecutive-failure count and, when it is at or over the threshold,
  /// opens the circuit with a fresh cooldown starting now (the persisted
  /// open time is a steady-clock instant from a dead process — a fresh
  /// cooldown is the conservative reading).
  void Restore(int consecutive_failures);

 private:
  const CircuitBreakerOptions options_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;              // guarded by mutex_
  int consecutive_failures_ = 0;              // guarded by mutex_
  bool probe_inflight_ = false;               // guarded by mutex_
  std::chrono::steady_clock::time_point opened_at_{};  // guarded by mutex_
};

}  // namespace qmatch

#endif  // QMATCH_COMMON_ADMISSION_H_
