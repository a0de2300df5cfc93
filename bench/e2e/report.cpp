#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "support/stats.hpp"

namespace earthred::e2e {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, 0.5);
}

Tail tail_percentile(std::vector<double> xs, double percentile) {
  Tail t;
  t.percentile = percentile;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const auto n = xs.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9)),
      1, n);
  t.value = xs[rank - 1];
  t.beyond = n - rank;
  t.valid = t.beyond >= 10;
  return t;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

}  // namespace earthred::e2e
