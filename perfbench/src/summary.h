// Latency summaries: the median, and the highest percentile up to p99 that still has
// at least ten samples beyond it, reported with the sample count.
#ifndef PERFBENCH_SRC_SUMMARY_H_
#define PERFBENCH_SRC_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

constexpr size_t kTailSamplesBeyond = 10;

// Index into n sorted samples of the tail value: p99 when at least ten samples lie
// above it, otherwise the highest rank that keeps ten above. Needs n > 10.
size_t TailIndex(size_t n);

struct LatencySummary {
  size_t n = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_pct = 0;    // The percentile tail_us stands for (99 with enough samples).
  bool tail_ok = false;   // False when n <= 10: no percentile has ten samples beyond it.
};

LatencySummary Summarize(std::vector<uint32_t> samples_ns);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUMMARY_H_
