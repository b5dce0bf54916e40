#include "core/clock.h"

#include <chrono>

namespace hygnn::core {

namespace {

/// steady_clock backend — the repository's one raw monotonic read
/// (this file is lint rule 10's only exemption).
class MonotonicClockImpl : public Clock {
 public:
  uint64_t NowNanos() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

Clock*& ActiveClockSlot() {
  static Clock* active = &MonotonicClock();
  return active;
}

}  // namespace

Clock& MonotonicClock() {
  static MonotonicClockImpl clock;
  return clock;
}

Clock& ActiveClock() { return *ActiveClockSlot(); }

ScopedClock::ScopedClock(Clock* clock) : previous_(ActiveClockSlot()) {
  ActiveClockSlot() = clock;
}

ScopedClock::~ScopedClock() { ActiveClockSlot() = previous_; }

}  // namespace hygnn::core
