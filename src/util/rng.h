// Deterministic, counter-based random number generation.
//
// VirtualFlow's central reproducibility claim is that the virtual-node ->
// device mapping has no effect on training semantics. Every source of
// randomness therefore has to be keyed by *logical* identifiers (seed,
// stream, epoch, virtual-node id, step) and never by execution order or
// device identity. A counter-based generator gives us random access into
// the stream: draw k of stream (s, c) is a pure function of (seed, s, c, k).
#pragma once

#include <cstdint>
#include <vector>

namespace vf {

/// SplitMix64 finalizer; used as the mixing function of the counter RNG.
std::uint64_t splitmix64(std::uint64_t x);

/// Counter-based deterministic RNG.
///
/// Each (seed, stream) pair identifies an independent random stream, and
/// each draw advances a local counter. Two CounterRng instances constructed
/// with the same key produce identical sequences regardless of what any
/// other instance did — there is no hidden global state.
class CounterRng {
 public:
  /// `seed` is the experiment seed; `stream` distinguishes independent
  /// uses (e.g. weight init vs. data shuffling vs. dropout for VN 7).
  explicit CounterRng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Uniform bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Standard normal via Box-Muller (both values of the pair are used,
  /// so the stream stays deterministic and cheap).
  float normal();

  /// Normal with the given mean and standard deviation.
  float normal(float mean, float stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Deterministic Fisher-Yates permutation of {0, ..., n-1}.
  std::vector<std::int64_t> permutation(std::int64_t n);
  /// The same permutation written into `out`, reusing its buffer.
  void permutation_into(std::int64_t n, std::vector<std::int64_t>& out);

  /// Number of draws made so far (useful for tests).
  std::uint64_t counter() const { return counter_; }

 private:
  std::uint64_t key_;
  std::uint64_t counter_ = 0;
  bool have_cached_normal_ = false;
  float cached_normal_ = 0.0F;
};

/// Derives a child seed from (seed, tag). Used to fan a single experiment
/// seed out into per-purpose streams without correlation.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace vf
