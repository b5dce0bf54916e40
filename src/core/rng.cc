#include "core/rng.h"

#include <cmath>

#include "core/logging.h"

namespace hygnn::core {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

Rng::State Rng::state() const {
  State snapshot;
  for (size_t i = 0; i < snapshot.s.size(); ++i) snapshot.s[i] = state_[i];
  snapshot.has_cached_normal = has_cached_normal_;
  snapshot.cached_normal = cached_normal_;
  return snapshot;
}

void Rng::set_state(const State& state) {
  for (size_t i = 0; i < state.s.size(); ++i) state_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

float Rng::UniformFloat() {
  return static_cast<float>(Next() >> 40) * 0x1.0p-24f;
}

uint64_t Rng::UniformInt(uint64_t n) {
  HYGNN_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  HYGNN_CHECK_LE(k, n);
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  HYGNN_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    HYGNN_CHECK_GE(w, 0.0);
    total += w;
  }
  HYGNN_CHECK_GT(total, 0.0);
  double target = Uniform() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;
}

}  // namespace hygnn::core
