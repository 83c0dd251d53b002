// Bounded retry with exponential backoff for transient device errors.
//
// A RetryPolicy is consulted wherever a device IO failure may be transient (a
// flaky cable, a momentarily saturated controller): the pager miss, raw-IO,
// flush and write-back paths, and the journal commit chain. Only kIoError is
// treated as retryable — Corruption means the bytes arrived but are wrong
// (retrying re-reads the same wrong bytes from the page cache), NoSpace and
// caller errors are deterministic.
//
// Two consumption modes:
//   - RunWithRetry(): synchronous paths. Sleeps base_backoff * 2^attempt
//     between attempts. Callers must NOT hold stripe locks (or any lock a
//     completion thread could need) across the call.
//   - ShouldRetry(): completion-thread paths (the journal's commit chain)
//     where sleeping would stall the IO engine. The caller resubmits
//     immediately and tracks its own attempt count.
#ifndef HFAD_SRC_COMMON_RETRY_H_
#define HFAD_SRC_COMMON_RETRY_H_

#include <chrono>
#include <thread>

#include "src/common/stats.h"
#include "src/common/status.h"

namespace hfad {

struct RetryPolicy {
  // Total tries, including the first. <= 1 disables retry.
  int max_attempts = 3;
  // Sleep before attempt k (k >= 1) is base_backoff << (k - 1).
  std::chrono::microseconds base_backoff{100};

  static RetryPolicy None() { return RetryPolicy{1, std::chrono::microseconds{0}}; }

  bool IsTransient(const Status& s) const { return s.code() == StatusCode::kIoError; }

  // For completion threads: should attempt (attempts_so_far + 1) be made?
  // Bumps kIoRetries when it says yes.
  bool ShouldRetry(const Status& s, int attempts_so_far) const {
    if (!IsTransient(s) || attempts_so_far >= max_attempts) {
      return false;
    }
    stats::Add(stats::Counter::kIoRetries);
    return true;
  }

  // Synchronous helper: run op() up to max_attempts times, sleeping an
  // exponentially growing backoff between transient failures. Returns the
  // first success or the last failure.
  template <typename Op>
  Status RunWithRetry(Op&& op) const {
    Status s = op();
    for (int attempt = 1; attempt < max_attempts && IsTransient(s); attempt++) {
      stats::Add(stats::Counter::kIoRetries);
      if (base_backoff.count() > 0) {
        std::this_thread::sleep_for(base_backoff * (1 << (attempt - 1)));
      }
      s = op();
    }
    return s;
  }
};

}  // namespace hfad

#endif  // HFAD_SRC_COMMON_RETRY_H_
