#include "util/rng.h"

#include <cmath>

#include "util/common.h"

namespace vf {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return splitmix64(seed ^ splitmix64(tag + 0x9E3779B97F4A7C15ULL));
}

CounterRng::CounterRng(std::uint64_t seed, std::uint64_t stream)
    : key_(derive_seed(seed, stream)) {}

std::uint64_t CounterRng::next_u64() {
  return splitmix64(key_ + 0xD1B54A32D192ED03ULL * ++counter_);
}

double CounterRng::next_double() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float CounterRng::uniform(float lo, float hi) {
  return lo + static_cast<float>(next_double()) * (hi - lo);
}

float CounterRng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; clamp u1 away from 0 to keep log finite.
  double u1 = next_double();
  double u2 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = static_cast<float>(r * std::sin(theta));
  have_cached_normal_ = true;
  return static_cast<float>(r * std::cos(theta));
}

float CounterRng::normal(float mean, float stddev) { return mean + stddev * normal(); }

std::uint64_t CounterRng::next_below(std::uint64_t n) {
  check(n > 0, "next_below requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

std::vector<std::int64_t> CounterRng::permutation(std::int64_t n) {
  std::vector<std::int64_t> p;
  permutation_into(n, p);
  return p;
}

void CounterRng::permutation_into(std::int64_t n, std::vector<std::int64_t>& p) {
  check(n >= 0, "permutation size must be non-negative");
  p.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
}

}  // namespace vf
