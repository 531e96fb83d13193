// Measurement helpers: the percentile and sample-count rule, sample
// histograms, the remote/local op split, medians, and a metric set whose
// ratios always travel with their base.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reportable only when at least this many samples lie
/// beyond it (p99 needs 1,000 samples, p50 needs 20).
inline constexpr std::uint64_t kTailSamples = 10;

/// Samples strictly beyond the q-quantile rank of an n-sample set.
inline std::uint64_t samplesBeyond(std::uint64_t n, double q) {
  const auto at = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

inline bool tailReportable(std::uint64_t n, double q) {
  return samplesBeyond(n, q) >= kTailSamples;
}

/// A percentile value with the sample count it was read from.
struct Percentile {
  double value = 0.0;
  std::uint64_t samples = 0;
  bool reportable = false;
};

/// Median of a small sample set, such as one value per trial, interpolated
/// between the middle two for an even count; an empty set reads 0.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = 0.5 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// Sample counts by value. Simulated latencies take few distinct values, so
/// the samples of a whole run pool into a small map.
class Histogram {
 public:
  void add(double x, std::uint64_t n = 1) {
    if (n == 0) return;
    counts_[x] += n;
    total_ += n;
  }
  void merge(const Histogram& other) {
    for (const auto& [x, n] : other.counts_) add(x, n);
  }
  std::uint64_t size() const noexcept { return total_; }
  const std::map<double, std::uint64_t>& counts() const noexcept {
    return counts_;
  }

 private:
  std::map<double, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// The q-quantile (q in [0, 1]) of samples recorded in steps of `quantum`,
/// as simulated latencies are (every model charge is a multiple of the
/// CPU-atomic cost); an empty histogram reads 0.
///
/// Each distinct value stands for a class of width `quantum` centred on it,
/// and the quantile is interpolated inside the class that holds rank q*n
/// (the grouped-data estimate). A raw quantile of such data can only read a
/// class value, so it cannot show a shift of less than one step in how the
/// samples fill the classes; this estimate can.
inline Percentile percentile(const Histogram& h, double q, double quantum) {
  Percentile p;
  p.samples = h.size();
  p.reportable = tailReportable(p.samples, q);
  if (h.size() == 0) return p;
  const double rank = q * static_cast<double>(h.size());
  double below = 0.0;
  for (const auto& [x, n] : h.counts()) {
    const auto in_class = static_cast<double>(n);
    if (below + in_class >= rank || x == h.counts().rbegin()->first) {
      p.value = x - quantum / 2 + (rank - below) / in_class * quantum;
      return p;
    }
    below += in_class;
  }
  return p;
}

/// Per-op latencies split by whether the op's target lives on the issuing
/// locale. Owner-local ops finish in one CPU charge, remote ones pay the
/// wire, so a median over both classes lands on the boundary between them;
/// the benchmark reports remote latency only.
class OpSplit {
 public:
  explicit OpSplit(std::uint32_t locales = 0) : remote_to_(locales, 0) {}

  void record(std::uint32_t issuer, std::uint32_t target, double latency_ns) {
    if (issuer == target) {
      local_.add(latency_ns);
      return;
    }
    remote_.add(latency_ns);
    if (target >= remote_to_.size()) remote_to_.resize(target + 1, 0);
    ++remote_to_[target];
  }

  void merge(const OpSplit& other) {
    remote_.merge(other.remote_);
    local_.merge(other.local_);
    if (other.remote_to_.size() > remote_to_.size()) {
      remote_to_.resize(other.remote_to_.size(), 0);
    }
    for (std::size_t i = 0; i < other.remote_to_.size(); ++i) {
      remote_to_[i] += other.remote_to_[i];
    }
  }

  const Histogram& remote() const noexcept { return remote_; }
  const Histogram& local() const noexcept { return local_; }
  /// Remote ops whose target is `locale` (the ops its owner serviced).
  std::uint64_t remoteTo(std::uint32_t locale) const noexcept {
    return locale < remote_to_.size() ? remote_to_[locale] : 0;
  }

 private:
  Histogram remote_;
  Histogram local_;
  std::vector<std::uint64_t> remote_to_;
};

struct Metric {
  std::string name;
  std::string unit;
  std::string layer;
  double value = 0.0;
  std::uint64_t samples = 1;
};

/// An ordered metric set. Ratios are added together with their base, so a
/// reader never sees `ops_per_am` without the `am_batched` it divides by.
class MetricSet {
 public:
  void add(std::string name, std::string unit, std::string layer,
           double value, std::uint64_t samples = 1) {
    metrics_.push_back({std::move(name), std::move(unit), std::move(layer),
                        value, samples});
  }

  /// Adds `base_name` = base and `name` = numerator / base (0 when the base
  /// is 0, never NaN). A ratio over a count takes that count as its sample
  /// count.
  void addRatio(const std::string& name, const std::string& unit,
                const std::string& layer, double numerator,
                const std::string& base_name, const std::string& base_unit,
                double base) {
    add(base_name, base_unit, layer, base);
    add(name, unit, layer, base == 0.0 ? 0.0 : numerator / base,
        base_unit == "count" ? static_cast<std::uint64_t>(base) : 1);
  }

  /// Adds `<prefix>.p50` and `<prefix>.p99` of `h` (recorded in steps of
  /// `quantum`) scaled by `scale`.
  void addPercentiles(const std::string& prefix, const std::string& unit,
                      const std::string& layer, const Histogram& h,
                      double quantum, double scale) {
    for (const auto& [suffix, q] : {std::pair{".p50", 0.50},
                                    std::pair{".p99", 0.99}}) {
      const Percentile p = percentile(h, q, quantum);
      add(prefix + suffix, unit, layer, p.value * scale, p.samples);
    }
  }

  void append(const MetricSet& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
  }

  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
