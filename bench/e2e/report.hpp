// Metric values and the order statistics the benchmark reports them with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace earthred::e2e {

/// One reported number. `n` is the sample count behind it (1 for a
/// single measurement or a count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 1;
};

/// Median of `xs` (0 for an empty set).
double median(std::vector<double> xs);

/// A nearest-rank percentile together with how many samples lie beyond
/// it. A tail is reported only when at least ten samples lie beyond the
/// percentile; with fewer, the number says nothing about the tail.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  bool valid = false;
};
Tail tail_percentile(std::vector<double> xs, double percentile);

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
double peak_rss_mib();

}  // namespace earthred::e2e
