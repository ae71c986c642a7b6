#ifndef QMATCH_COMMON_BACKOFF_H_
#define QMATCH_COMMON_BACKOFF_H_

#include <chrono>
#include <cstdint>

namespace qmatch {

/// Jittered exponential backoff, as a pure function so every retry loop
/// (the resilient client, the standby's stream reconnect, the engine's
/// corpus loader) shares one schedule and tests can pin it: attempt n
/// sleeps uniformly in [d/2, d] where d = min(base * 2^n, cap), drawn from
/// a stream seeded by (seed, attempt). Same arguments -> same sleep,
/// always. base <= 0 disables sleeping; cap <= 0 leaves d uncapped.
std::chrono::nanoseconds RetryBackoff(std::chrono::milliseconds base,
                                      std::chrono::milliseconds cap,
                                      uint64_t attempt, uint64_t seed);

}  // namespace qmatch

#endif  // QMATCH_COMMON_BACKOFF_H_
