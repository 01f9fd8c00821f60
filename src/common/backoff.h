// Jittered exponential backoff for retry loops.
//
// Retrying transactions (wait-die refusals, commit conflicts, timeouts)
// back off before each attempt. A fixed or linear schedule synchronizes
// competing clients — they collide, back off by the same amount, and
// collide again. The standard fix is exponential growth with full jitter
// (see e.g. the AWS architecture blog's "Exponential Backoff and Jitter"):
// the delay for attempt k is drawn uniformly from
//
//   [base, min(cap, base * multiplier^(k+1))]
//
// so the window doubles every attempt (desynchronizing contenders fast)
// while the cap bounds worst-case added latency and the base floor keeps a
// retry from landing instantly back on a still-held lock.
//
// Header-only and templated on the RNG so src/common stays free of
// dependencies on the simulator layer; any type with
// `int64_t NextInRange(int64_t lo, int64_t hi)` (inclusive) works.

#ifndef WVOTE_SRC_COMMON_BACKOFF_H_
#define WVOTE_SRC_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "src/common/status.h"
#include "src/common/time.h"

namespace wvote {

struct BackoffPolicy {
  Duration base = Duration::Millis(1);   // floor of every delay
  Duration cap = Duration::Millis(250);  // ceiling of every delay
  double multiplier = 2.0;               // window growth per attempt

  BackoffPolicy() = default;
  BackoffPolicy(Duration b, Duration c, double m) : base(b), cap(c), multiplier(m) {}
};

// Delay before retry number `attempt` (0-based: pass 0 before the first
// retry). Uniform in [base, window] where the window grows by `multiplier`
// per attempt and saturates at `cap`.
template <typename RngT>
Duration JitteredBackoff(RngT& rng, int attempt, const BackoffPolicy& policy = {}) {
  const int64_t base_us = std::max<int64_t>(policy.base.ToMicros(), 1);
  const int64_t cap_us = std::max<int64_t>(policy.cap.ToMicros(), base_us);
  // Grow the window multiplicatively, saturating (not overflowing) at cap.
  double window_us = static_cast<double>(base_us);
  for (int i = 0; i <= attempt && window_us < static_cast<double>(cap_us); ++i) {
    window_us *= policy.multiplier;
  }
  const int64_t hi = std::min<int64_t>(cap_us, static_cast<int64_t>(window_us));
  return Duration::Micros(rng.NextInRange(base_us, std::max(base_us, hi)));
}

// Transaction failures a fresh attempt can get past: a wait-die refusal, an
// abort (crash, failed prepare) or a timeout. Every retry loop uses this one
// predicate.
inline bool IsRetryable(const Status& st) {
  return st.code() == StatusCode::kConflict || st.code() == StatusCode::kAborted ||
         st.code() == StatusCode::kTimeout;
}

}  // namespace wvote

#endif  // WVOTE_SRC_COMMON_BACKOFF_H_
