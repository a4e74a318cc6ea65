// Small statistics helpers for the benchmark harness and schedule metrics:
// online mean/variance (Welford), a sample set with percentiles, and a
// fixed-size log-bucketed histogram for distributions that must not grow
// with the number of samples. All figures in the paper report means over 10
// trials; Samples gives mean, stddev, min/max and percentiles from the
// recorded samples.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dac::util {

// Online mean / variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Sample container with percentile queries (linear interpolation).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double sum() const;

  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

// A distribution in fixed memory: exact count, mean, min and max, plus
// counts in log-spaced buckets, kSubBuckets per power of two from 2^kMinExp
// to 2^kMaxExp. A percentile is the midpoint of the bucket that holds its
// rank, clamped to [min, max] (the lowest and highest ranks read min and
// max), so it is read in one pass over the buckets and is within half a
// bucket (1/16 of the value) of the true one. Values below 2^kMinExp share
// the first bucket and values above 2^kMaxExp the last.
class LogHistogram {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  // p in [0, 100].
  [[nodiscard]] double percentile(double p) const;

 private:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 20;
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>((kMaxExp - kMinExp) * kSubBuckets);

  static std::size_t bucket_of(double x);
  static double midpoint(std::size_t bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dac::util
