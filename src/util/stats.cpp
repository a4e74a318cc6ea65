#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dac::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  return sum() / static_cast<double>(xs_.size());
}

double Samples::sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

double Samples::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double idx =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void LogHistogram::add(double x) {
  min_ = n_ == 0 ? x : std::min(min_, x);
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  sum_ += x;
  ++buckets_[bucket_of(x)];
}

double LogHistogram::mean() const {
  return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0;
}

std::size_t LogHistogram::bucket_of(double x) {
  if (!(x >= std::ldexp(1.0, kMinExp))) return 0;  // NaN lands here too
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [.5,1)
  const auto octave = static_cast<std::size_t>(exp - 1 - kMinExp);
  const auto sub = static_cast<std::size_t>((2.0 * frac - 1.0) * kSubBuckets);
  return std::min(kBuckets - 1, 1 + octave * kSubBuckets + sub);
}

double LogHistogram::midpoint(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  const auto octave = static_cast<int>((bucket - 1) / kSubBuckets);
  const auto sub = static_cast<double>((bucket - 1) % kSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, kMinExp + octave);
}

double LogHistogram::percentile(double p) const {
  if (n_ == 0) return 0.0;
  // The sample of 0-based rank `rank` in sorted order, as Samples ranks.
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n_ - 1));
  // The extreme ranks are known exactly.
  if (rank == 0) return min_;
  if (rank == n_ - 1) return max_;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return std::clamp(midpoint(b), min_, max_);
  }
  return max_;
}

}  // namespace dac::util
