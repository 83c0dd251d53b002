#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/src/device.h"

namespace perfbench {
namespace {

std::atomic<bool> g_background_tracing{false};
std::mutex g_background_mu;
std::vector<Span> g_background;  // Guarded by g_background_mu.

}  // namespace

ClientContext*& CurrentClient() {
  thread_local ClientContext* ctx = nullptr;
  return ctx;
}

void SetBackgroundTracing(bool on) { g_background_tracing.store(on, std::memory_order_relaxed); }

bool BackgroundTracing() { return g_background_tracing.load(std::memory_order_relaxed); }

void RecordBackgroundSpan(const Span& span) {
  std::lock_guard<std::mutex> lock(g_background_mu);
  g_background.push_back(span);
}

std::vector<Span> TakeBackgroundSpans() {
  std::lock_guard<std::mutex> lock(g_background_mu);
  return std::move(g_background);
}

SelfTimeSummary ComputeSelfTime(const std::vector<const ClientTrace*>& clients) {
  SelfTimeSummary sum;
  for (const ClientTrace* t : clients) {
    // Device spans are appended in completion order on one thread, so the children of
    // each op are contiguous and in op order.
    size_t d = 0;
    for (const Span& op : t->ops) {
      uint64_t device_ns = 0;
      uint64_t prev_end = op.start_ns;
      bool consistent = true;
      while (d < t->device.size() && t->device[d].op_id == op.op_id) {
        const Span& child = t->device[d++];
        if (child.start_ns < prev_end || child.end_ns > op.end_ns || child.end_ns < child.start_ns) {
          consistent = false;
        }
        prev_end = std::max(prev_end, child.end_ns);
        device_ns += child.end_ns - child.start_ns;
      }
      const uint64_t span_ns = op.end_ns - op.start_ns;
      if (device_ns > span_ns) {
        consistent = false;
      }
      sum.ops++;
      sum.span_ns += span_ns;
      sum.device_ns += device_ns;
      sum.self_ns += span_ns - std::min(span_ns, device_ns);
      sum.inconsistent += consistent ? 0 : 1;
    }
    // Children whose op span was never recorded are orphans: also inconsistent.
    sum.inconsistent += t->device.size() - d;
  }
  return sum;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const ClientTrace*>& clients,
                      const std::vector<Span>& background,
                      const std::vector<std::string>& op_names, size_t max_ops,
                      size_t max_background) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t t0 = UINT64_MAX;
  for (const ClientTrace* t : clients) {
    if (!t->ops.empty()) {
      t0 = std::min(t0, t->ops.front().start_ns);
    }
  }
  if (!background.empty()) {
    t0 = std::min(t0, background.front().start_ns);
  }
  auto emit = [&](const char* name, int tid, const Span& s, bool* first) {
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op_id\":%llu}}",
                 *first ? "" : ",", name, tid, (s.start_ns - t0) / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0, static_cast<unsigned long long>(s.op_id));
    *first = false;
  };
  bool first = true;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t c = 0; c < clients.size(); c++) {
    const ClientTrace* t = clients[c];
    const size_t n = std::min(max_ops, t->ops.size());
    const uint64_t last_op = n == 0 ? 0 : t->ops[n - 1].op_id;
    for (size_t i = 0; i < n; i++) {
      const Span& s = t->ops[i];
      emit(s.kind < op_names.size() ? op_names[s.kind].c_str() : "op", static_cast<int>(c + 1),
           s, &first);
    }
    for (const Span& s : t->device) {
      if (s.op_id > last_op) {
        break;
      }
      emit(DeviceCallName(static_cast<DeviceCall>(s.kind)), static_cast<int>(c + 1), s, &first);
    }
  }
  for (size_t i = 0; i < std::min(max_background, background.size()); i++) {
    const Span& s = background[i];
    std::string name = std::string("background.") +
                       DeviceCallName(static_cast<DeviceCall>(s.kind));
    emit(name.c_str(), 0, s, &first);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
