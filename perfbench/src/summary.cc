#include "perfbench/src/summary.h"

#include <algorithm>

namespace perfbench {

size_t TailIndex(size_t n) {
  // ceil(0.99 n) - 1 is the p99 rank; n - 1 - kTailSamplesBeyond leaves exactly ten above.
  const size_t p99 = (99 * n + 99) / 100 - 1;
  return std::min(p99, n - 1 - kTailSamplesBeyond);
}

LatencySummary Summarize(std::vector<uint32_t> samples_ns) {
  LatencySummary s;
  s.n = samples_ns.size();
  if (s.n == 0) {
    return s;
  }
  std::sort(samples_ns.begin(), samples_ns.end());
  s.p50_us = samples_ns[(s.n - 1) / 2] / 1000.0;
  s.tail_ok = s.n > kTailSamplesBeyond;
  if (s.tail_ok) {
    const size_t idx = TailIndex(s.n);
    s.tail_us = samples_ns[idx] / 1000.0;
    s.tail_pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(s.n);
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
