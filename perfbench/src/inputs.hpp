// Seeded input generators for the benchmark workloads.
//
// The benchmark owns its generators instead of reusing the library's RNG or
// the figure benches' Zipf code, so a change to either cannot silently
// change the inputs a baseline was measured on. Every stream is derived from
// the run's --seed through `streamSeed(seed, purpose, stream)`: the same
// seed always gives the same keys, op mix, object placement and values.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Independent seeds from one run seed, per purpose and per stream (a
/// stream is one client's inputs in one trial).
enum class Stream : std::uint64_t {
  keys = 1,
  ops = 2,
  placement = 3,
  values = 4,
};

inline std::uint64_t streamSeed(std::uint64_t seed, Stream purpose,
                                std::uint64_t stream) noexcept {
  return mix64(seed * 0x9e3779b97f4a7c15ULL +
               static_cast<std::uint64_t>(purpose) * 0x632be59bd9b4e019ULL +
               stream * 0x85ebca6b0a3f1e27ULL + 1);
}

/// splitmix64 stream: small, fast, and good enough for workload draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Zipf(theta) over [0, n) by Gray et al.'s inversion (the YCSB generator).
/// Ranks are scrambled so the hottest keys spread over both owners instead
/// of clustering at 0..k.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    for (std::uint64_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  std::uint64_t rank(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

  std::uint64_t key(Rng& rng) const { return mix64(rank(rng) + 1) % n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

}  // namespace perfbench
