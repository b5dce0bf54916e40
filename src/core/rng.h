#ifndef HYGNN_CORE_RNG_H_
#define HYGNN_CORE_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hygnn::core {

/// Deterministic 64-bit pseudo-random generator (xoshiro256** seeded via
/// SplitMix64). Every stochastic component in the library takes an
/// explicit seed so that experiments and tests are reproducible.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed);

  /// Complete generator state — the xoshiro words plus the Box-Muller
  /// spare — so a stream can be checkpointed and resumed bit-exactly
  /// (training checkpoints persist this).
  struct State {
    std::array<uint64_t, 4> s{};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };

  /// Snapshots the stream; feeding the snapshot to set_state reproduces
  /// the exact continuation.
  State state() const;

  /// Restores a snapshot taken with state().
  void set_state(const State& state);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform float in [0, 1).
  float UniformFloat();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal sample (Box-Muller).
  double Normal();

  /// Normal sample with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap(items[i], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Draws an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hygnn::core

#endif  // HYGNN_CORE_RNG_H_
