#include "obs/optime.h"

#include <algorithm>
#include <cstring>

#include "core/clock.h"

namespace hygnn::obs {

namespace internal {
std::atomic<bool> g_kernel_timing_enabled{false};
}  // namespace internal

namespace {

/// Fixed lock-free attribution table. Slots are claimed once per op tag
/// with a CAS on the name pointer and never released; accumulation is
/// relaxed fetch_adds, so concurrent workers aggregate without locks.
/// 64 slots is ~4x the engine's op vocabulary; an overflowing table
/// silently drops new ops rather than blocking a kernel.
constexpr size_t kMaxOps = 64;

struct OpSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> forward_calls{0};
  std::atomic<uint64_t> forward_nanos{0};
  std::atomic<uint64_t> backward_calls{0};
  std::atomic<uint64_t> backward_nanos{0};
};

OpSlot g_slots[kMaxOps];

/// Finds (or claims) the slot for `op`. Tags are static strings, but
/// identical literals in different translation units may have distinct
/// addresses, so matching falls back to strcmp after the pointer check.
OpSlot* SlotFor(const char* op) {
  for (size_t i = 0; i < kMaxOps; ++i) {
    const char* name = g_slots[i].name.load(std::memory_order_acquire);
    if (name == nullptr) {
      const char* expected = nullptr;
      if (g_slots[i].name.compare_exchange_strong(
              expected, op, std::memory_order_acq_rel)) {
        return &g_slots[i];
      }
      name = expected;  // lost the race; fall through to match it
    }
    if (name == op || std::strcmp(name, op) == 0) return &g_slots[i];
  }
  return nullptr;  // table full: drop the sample
}

void Record(const char* op, uint64_t nanos, bool backward) {
  OpSlot* slot = SlotFor(op);
  if (slot == nullptr) return;
  if (backward) {
    slot->backward_calls.fetch_add(1, std::memory_order_relaxed);
    slot->backward_nanos.fetch_add(nanos, std::memory_order_relaxed);
  } else {
    slot->forward_calls.fetch_add(1, std::memory_order_relaxed);
    slot->forward_nanos.fetch_add(nanos, std::memory_order_relaxed);
  }
}

}  // namespace

void SetKernelTimingEnabled(bool enabled) {
  internal::g_kernel_timing_enabled.store(enabled,
                                          std::memory_order_relaxed);
}

uint64_t NowNanos() { return core::MonotonicClock().NowNanos(); }

void RecordForward(const char* op, uint64_t nanos) {
  if (!KernelTimingEnabled()) return;
  Record(op, nanos, false);
}

void RecordBackward(const char* op, uint64_t nanos) {
  if (!KernelTimingEnabled()) return;
  Record(op, nanos, true);
}

std::vector<OpTimeEntry> OpTimeSnapshot() {
  std::vector<OpTimeEntry> out;
  for (size_t i = 0; i < kMaxOps; ++i) {
    const char* name = g_slots[i].name.load(std::memory_order_acquire);
    if (name == nullptr) break;
    OpTimeEntry entry;
    entry.op = name;
    entry.forward_calls =
        g_slots[i].forward_calls.load(std::memory_order_relaxed);
    entry.forward_ms =
        g_slots[i].forward_nanos.load(std::memory_order_relaxed) / 1e6;
    entry.backward_calls =
        g_slots[i].backward_calls.load(std::memory_order_relaxed);
    entry.backward_ms =
        g_slots[i].backward_nanos.load(std::memory_order_relaxed) / 1e6;
    if (entry.forward_calls == 0 && entry.backward_calls == 0) continue;
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const OpTimeEntry& a, const OpTimeEntry& b) {
              const double ta = a.forward_ms + a.backward_ms;
              const double tb = b.forward_ms + b.backward_ms;
              if (ta != tb) return ta > tb;
              return a.op < b.op;
            });
  return out;
}

void ResetOpTimes() {
  for (size_t i = 0; i < kMaxOps; ++i) {
    // Keep the claimed name (static string, never dangles); zero the
    // accumulators so cached slots stay valid.
    g_slots[i].forward_calls.store(0, std::memory_order_relaxed);
    g_slots[i].forward_nanos.store(0, std::memory_order_relaxed);
    g_slots[i].backward_calls.store(0, std::memory_order_relaxed);
    g_slots[i].backward_nanos.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hygnn::obs
