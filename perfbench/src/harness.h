// Closed-loop client harness: the workload interface, per-client op timing, the
// measured window (untraced, or alternating untraced and traced slices), and the
// layer counters snapshotted around it.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/device.h"
#include "perfbench/src/spans.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/filesystem.h"

namespace perfbench {

enum Phase : int { kUntraced = 0, kTraced = 1, kPhases = 2, kOutside = 2 };

// One client thread's timing, failure and trace state. The workload keeps the
// client's model of its objects; this holds what the harness measures.
class Client {
 public:
  Client(int id, uint64_t seed);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int id() const { return id_; }
  hfad::Random& rng() { return rng_; }

  // Bracket one op: Begin before its first program call, End after its last. Oracle
  // checks run after End so they never count as latency.
  void Begin(uint32_t kind);
  void End();
  // The op begun last records spans (still true after its End, for the oracle side).
  bool traced() const { return phase_ == kTraced; }

  // The op just ended returned an error status / a result the oracle rejects.
  void Fail(const std::string& what);
  void Mismatch(const std::string& what);

  // Work counters the workload adds for traced ops (query-layer PlanStats and edits).
  struct TracedWork {
    uint64_t finds = 0;
    uint64_t find_results = 0;
    uint64_t rows_scanned = 0;
    uint64_t membership_probes = 0;
    uint64_t index_lookups = 0;
    uint64_t edits = 0;
  };
  TracedWork& traced_work() { return traced_work_; }
  const TracedWork& traced_work() const { return traced_work_; }

  // ---- Harness side ----
  // One untraced op's latency, tagged with its kind and the window slice it began in.
  struct Sample {
    uint32_t ns;
    uint16_t kind;
    uint16_t slice;
  };
  ClientContext* context() { return &ctx_; }
  const ClientTrace& trace() const { return trace_; }
  const std::vector<Sample>& samples() const { return samples_; }
  uint64_t ops(int phase) const { return ops_[phase]; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  const std::vector<std::string>& errors() const { return errors_; }
  // Forget everything measured so far (after warm-up).
  void ResetMeasurements();

 private:
  const int id_;
  hfad::Random rng_;
  ClientContext ctx_;
  ClientTrace trace_;
  uint32_t kind_ = 0;
  int slice_ = -1;
  int phase_ = kOutside;
  uint64_t start_ns_ = 0;
  std::vector<Sample> samples_;
  uint64_t ops_[kPhases] = {0, 0};
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> errors_;  // The first few, for the report.
  TracedWork traced_work_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::vector<std::string>& op_names() const = 0;
  virtual int clients() const = 0;
  // Ops each client runs after Setup, still inside the timed set-up.
  virtual size_t warmup_ops() const = 0;
  // Drop any previous instance; format and preload a fresh one.
  virtual hfad::Status Setup() = 0;
  // One closed-loop op for client c (Begin/End inside).
  virtual void Step(Client& c) = 0;
  // Run-end oracles; every mismatch is appended to problems.
  virtual hfad::Status Verify(std::vector<std::string>* problems) = 0;

  virtual hfad::core::FileSystem* fs() = 0;
  virtual std::vector<ModelDevice*> devices() = 0;
  // User bytes acknowledged since format (object bytes plus tag name and value bytes).
  virtual uint64_t user_bytes_acked() const = 0;
  // User bytes live in the client models now.
  virtual uint64_t live_user_bytes() const = 0;

  // Named latency groups (e.g. "find" -> the find kinds) for the report.
  struct Group {
    std::string name;
    std::vector<uint32_t> kinds;
  };
  virtual std::vector<Group> latency_groups() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Program and device counters at one instant.
struct LayerSnapshot {
  uint64_t ns = 0;
  hfad::stats::Snapshot counters;
  std::vector<hfad::metrics::HistSnapshot> hists;  // Indexed by metrics::Hist.
  std::vector<DeviceTotals> device[kThreadClasses];  // Per shard.
  std::vector<uint64_t> io_submitted;                // Per shard.

  static LayerSnapshot Take(Workload* wl);
};

// Sums of per-slice deltas for one phase, plus gauges sampled during it.
struct PhaseTotals {
  double seconds = 0;
  uint64_t counters[hfad::stats::kNumCounters] = {};
  std::vector<hfad::metrics::HistSnapshot> hists;
  std::vector<DeviceTotals> device[kThreadClasses];
  uint64_t io_submitted = 0;
  uint64_t intent_backlog_max = 0;
  double journal_occupancy_max = 0;
  uint64_t dirty_pages_max = 0;

  void Add(const LayerSnapshot& before, const LayerSnapshot& after);
  uint64_t operator[](hfad::stats::Counter c) const { return counters[static_cast<int>(c)]; }
  DeviceTotals DeviceSum(int cls) const;
  DeviceTotals DeviceSum() const;
};

struct WindowResult {
  PhaseTotals phase[kPhases];
  std::vector<double> slice_seconds;
  std::vector<int> slice_phase;
};

// Run every client for `ops_per_client` ops, untimed (warm-up).
void RunOps(Workload* wl, std::vector<std::unique_ptr<Client>>* clients, size_t ops_per_client);

// The measured window, cut into `slices` equal slices so every end-to-end figure can be
// a median over slices. Traced: the slices alternate untraced and traced, so tracing
// overhead is measured against the same state of the volume.
WindowResult RunWindow(Workload* wl, std::vector<std::unique_ptr<Client>>* clients,
                       double seconds, bool trace, int slices);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
