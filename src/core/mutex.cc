#include "core/mutex.h"

#include <chrono>

namespace hygnn::core {

// The caller holds `mu` (enforced by the HYGNN_REQUIRES annotation on
// the declaration). std::condition_variable needs a unique_lock that
// *owns* the underlying std::mutex, so adopt the already-held lock for
// the duration of the wait and release ownership again before
// returning — the net effect is "held on entry, held on exit", exactly
// what the annotation promises. The adopt/release pair is invisible to
// the analysis (it manipulates the raw std::mutex), which is fine: no
// annotated capability changes state here.
void CondVar::Wait(Mutex& mu) {
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

// Same adopt/release dance as Wait; wait_for uses steady_clock
// internally, so the deadline is immune to wall-clock adjustments.
bool CondVar::WaitFor(Mutex& mu, int64_t timeout_us) {
  if (timeout_us <= 0) return false;
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  const auto status = cv_.wait_for(lock, std::chrono::microseconds(timeout_us));
  lock.release();
  return status == std::cv_status::no_timeout;
}

}  // namespace hygnn::core
