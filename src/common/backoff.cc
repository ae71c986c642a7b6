#include "common/backoff.h"

#include <algorithm>

#include "common/random.h"

namespace qmatch {

std::chrono::nanoseconds RetryBackoff(std::chrono::milliseconds base,
                                      std::chrono::milliseconds cap,
                                      uint64_t attempt, uint64_t seed) {
  if (base.count() <= 0) return std::chrono::nanoseconds(0);
  // min(base * 2^attempt, cap), with the shift clamped so it cannot
  // overflow before the cap comparison gets a say.
  const uint64_t shift = std::min<uint64_t>(attempt, 20);
  int64_t span_ms = base.count() << shift;
  if (span_ms <= 0 || (cap.count() > 0 && span_ms > cap.count())) {
    span_ms = cap.count() > 0 ? cap.count() : base.count();
  }
  // Jitter to [span/2, span]: decorrelates a thundering herd while keeping
  // the schedule fully reproducible from (seed, attempt).
  Random jitter(seed ^ (0x9E3779B97F4A7C15ULL * (attempt + 1)));
  const int64_t span_ns = span_ms * 1'000'000;
  return std::chrono::nanoseconds(
      span_ns / 2 + static_cast<int64_t>(jitter.Uniform(
                        static_cast<uint64_t>(span_ns / 2) + 1)));
}

}  // namespace qmatch
