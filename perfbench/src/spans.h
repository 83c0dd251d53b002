// In-memory span recording for the traced run.
//
// Every client thread owns a ClientTrace: one span per client op (named by op kind,
// keyed by a process-unique op id) and one child span per device call the op made on
// that thread. Device calls on threads without a client context (IoEngine workers, the
// checkpointer, the lazy indexers) land in the shared background log. Nothing is
// recorded unless tracing is on, and nothing leaves memory until WriteChromeTrace runs
// at the end of the benchmark.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One closed interval of work. For an op span `kind` indexes the workload's op names;
// for a device span it is a DeviceCall.
struct Span {
  uint64_t op_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t kind = 0;
};

struct ClientTrace {
  std::vector<Span> ops;
  std::vector<Span> device;  // Children of `ops`, matched by op_id.
};

// The calling thread's client identity. Null on every thread the benchmark did not
// start as a client, which is how the device tells foreground from background work.
struct ClientContext {
  ClientTrace* trace = nullptr;
  uint64_t op_id = 0;   // Non-zero while an op is being timed.
  bool traced = false;  // The current op records spans.
};

ClientContext*& CurrentClient();

// Whether background device calls are recorded right now (the traced phases).
void SetBackgroundTracing(bool on);
bool BackgroundTracing();

void RecordBackgroundSpan(const Span& span);
std::vector<Span> TakeBackgroundSpans();

// Self time of every traced op: its span minus the device spans nested in it.
struct SelfTimeSummary {
  uint64_t ops = 0;
  uint64_t span_ns = 0;
  uint64_t device_ns = 0;
  uint64_t self_ns = 0;
  // Ops whose device children fall outside the op span or overlap one another, so
  // self plus device time would not add up to the span.
  uint64_t inconsistent = 0;
};
SelfTimeSummary ComputeSelfTime(const std::vector<const ClientTrace*>& clients);

// Trace Event Format (chrome://tracing, Perfetto) with at most `max_ops` op spans per
// client and their children, plus at most `max_background` background spans.
bool WriteChromeTrace(const std::string& path, const std::vector<const ClientTrace*>& clients,
                      const std::vector<Span>& background,
                      const std::vector<std::string>& op_names, size_t max_ops,
                      size_t max_background);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
