// Unit tests for cost-based admission control (immediate admit, FIFO
// queueing with backpressure, typed kOverloaded shed, deadline/cancel while
// queued, cost clamping, pressure) and the per-entry circuit breaker state
// machine (closed → open → half-open probe → closed/reopen).

#include "common/admission.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace qmatch {
namespace {

// Sanitizer-scaled sleeps/deadlines: these tests race timed waiters
// against short sleeps, and instrumented builds stretch both sides.
using test::Scaled;

AdmissionOptions Options(uint64_t capacity, size_t queue_depth) {
  AdmissionOptions options;
  options.max_inflight_cost = capacity;
  options.max_queue_depth = queue_depth;
  return options;
}

TEST(AdmissionControllerTest, DisabledControllerAdmitsEverythingInstantly) {
  AdmissionController admission;  // max_inflight_cost = 0 → disabled
  EXPECT_FALSE(admission.enabled());
  AdmissionPermit permit;
  EXPECT_TRUE(admission.Admit(1u << 30, ExecControl{}, &permit).ok());
  EXPECT_FALSE(permit.held());  // pass-through: nothing to release
  EXPECT_EQ(admission.Pressure(), 0.0);
}

TEST(AdmissionControllerTest, AdmitsWithinCapacityAndReleasesOnPermitDeath) {
  AdmissionController admission(Options(100, 4));
  {
    AdmissionPermit a;
    ASSERT_TRUE(admission.Admit(60, ExecControl{}, &a).ok());
    EXPECT_TRUE(a.held());
    EXPECT_EQ(admission.inflight_cost(), 60u);
    AdmissionPermit b;
    ASSERT_TRUE(admission.Admit(40, ExecControl{}, &b).ok());
    EXPECT_EQ(admission.inflight_cost(), 100u);
  }
  EXPECT_EQ(admission.inflight_cost(), 0u);
}

TEST(AdmissionControllerTest, OversizedRequestIsClampedToCapacity) {
  AdmissionController admission(Options(100, 4));
  AdmissionPermit permit;
  ASSERT_TRUE(admission.Admit(1u << 20, ExecControl{}, &permit).ok());
  EXPECT_EQ(permit.cost(), 100u);  // runs alone, but runs
}

TEST(AdmissionControllerTest, QueueFullShedsWithTypedOverloaded) {
  AdmissionController admission(Options(10, 0));  // no queue at all
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  AdmissionPermit shed;
  Status status = admission.Admit(5, ExecControl{}, &shed);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_FALSE(shed.held());
  EXPECT_EQ(admission.shed_total(), 1u);
}

TEST(AdmissionControllerTest, DeadlineExpiresWhileQueued) {
  AdmissionController admission(Options(10, 4));
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  ExecControl control;
  control.deadline = Deadline::After(Scaled(std::chrono::milliseconds(30)));
  AdmissionPermit queued;
  Status status = admission.Admit(5, control, &queued);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.queue_depth(), 0u);  // the waiter removed itself
}

TEST(AdmissionControllerTest, CancellationInterruptsTheQueueWait) {
  AdmissionController admission(Options(10, 4));
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  CancellationToken token;
  ExecControl control;
  control.cancel = &token;
  std::thread canceller([&token]() {
    std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
    token.Cancel();
  });
  AdmissionPermit queued;
  Status status = admission.Admit(5, control, &queued);
  canceller.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(admission.queue_depth(), 0u);
}

TEST(AdmissionControllerTest, QueuedRequestAdmitsWhenCapacityFrees) {
  AdmissionController admission(Options(10, 4));
  auto held = std::make_unique<AdmissionPermit>();
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, held.get()).ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&]() {
    AdmissionPermit permit;
    ExecControl control;
    control.deadline = Deadline::After(std::chrono::seconds(10));
    ASSERT_TRUE(admission.Admit(5, control, &permit).ok());
    admitted.store(true);
  });
  std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
  EXPECT_FALSE(admitted.load());
  held.reset();  // release capacity → the waiter admits
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionControllerTest, FifoOrderIsPreservedAcrossWaiters) {
  AdmissionController admission(Options(10, 8));
  auto held = std::make_unique<AdmissionPermit>();
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, held.get()).ok());
  std::vector<int> admit_order;
  std::mutex order_mutex;
  std::vector<std::thread> waiters;
  for (int id = 0; id < 3; ++id) {
    waiters.emplace_back([&, id]() {
      // Stagger arrivals so queue positions are deterministic.
      std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(10)) * (id + 1));
      AdmissionPermit permit;
      ExecControl control;
      control.deadline = Deadline::After(std::chrono::seconds(10));
      ASSERT_TRUE(admission.Admit(10, control, &permit).ok());
      std::lock_guard<std::mutex> lock(order_mutex);
      admit_order.push_back(id);
    });
  }
  std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(60)));
  held.reset();
  for (std::thread& t : waiters) t.join();
  ASSERT_EQ(admit_order.size(), 3u);
  EXPECT_EQ(admit_order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionControllerTest, PressureTracksCostAndQueueFill) {
  AdmissionController admission(Options(100, 2));
  EXPECT_EQ(admission.Pressure(), 0.0);
  AdmissionPermit permit;
  ASSERT_TRUE(admission.Admit(50, ExecControl{}, &permit).ok());
  EXPECT_DOUBLE_EQ(admission.Pressure(), 0.5);
}

#if QMATCH_FAULT_ENABLED
TEST(AdmissionControllerTest, AdmitFailpointInjectsShed) {
  AdmissionController admission(Options(1u << 20, 16));
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  fault::ScopedFailpoint fp("admission.admit", spec);
  AdmissionPermit permit;
  Status status = admission.Admit(1, ExecControl{}, &permit);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(admission.shed_total(), 1u);
}
#endif

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown = std::chrono::milliseconds(10000);
  CircuitBreaker breaker(options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = Scaled(std::chrono::milliseconds(10));
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  ASSERT_FALSE(breaker.Allow());  // open, cooling down
  std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
  EXPECT_TRUE(breaker.Allow());  // the half-open probe
  EXPECT_FALSE(breaker.Allow());  // exactly one probe at a time
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, HalfOpenProbeReopensOnFailure) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = Scaled(std::chrono::milliseconds(10));
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
}

TEST(CircuitBreakerTest, NeutralOutcomeFreesTheProbeSlot) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = Scaled(std::chrono::milliseconds(10));
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
  ASSERT_TRUE(breaker.Allow());  // probe in flight...
  breaker.RecordNeutral();       // ...ends without a verdict (deadline)
  EXPECT_TRUE(breaker.Allow());  // the slot is free for the next probe
}

}  // namespace
}  // namespace qmatch
