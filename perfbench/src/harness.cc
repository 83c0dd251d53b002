#include "perfbench/src/harness.h"

#include <algorithm>
#include <limits>
#include <thread>

namespace perfbench {
namespace {

// The window slice ops begin in now (-1 outside the window), and whether odd slices
// are traced.
std::atomic<int> g_slice{-1};
std::atomic<bool> g_trace_window{false};
std::atomic<uint64_t> g_next_op_id{1};

constexpr size_t kErrorsKept = 5;
constexpr auto kGaugeInterval = std::chrono::milliseconds(10);

void SampleGauges(Workload* wl, PhaseTotals* t) {
  hfad::core::FileSystem* fs = wl->fs();
  if (fs->lazy_tag_indexing()) {
    t->intent_backlog_max =
        std::max<uint64_t>(t->intent_backlog_max, fs->PendingIndexIntents().size());
  }
  uint64_t dirty = 0;
  for (size_t k = 0; k < fs->cluster()->shard_count(); k++) {
    hfad::osd::Osd* shard = fs->cluster()->shard(k);
    t->journal_occupancy_max = std::max(t->journal_occupancy_max, shard->journal_occupancy());
    dirty += shard->pager()->dirty_pages();
  }
  t->dirty_pages_max = std::max(t->dirty_pages_max, dirty);
}

// Runs `body` on one thread per client with that client's context installed.
template <typename Body>
void OnClientThreads(std::vector<std::unique_ptr<Client>>* clients, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (auto& c : *clients) {
    Client* client = c.get();
    threads.emplace_back([client, &body] {
      CurrentClient() = client->context();
      body(*client);
      CurrentClient() = nullptr;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace

Client::Client(int id, uint64_t seed)
    : id_(id), rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(id) + 1) {
  ctx_.trace = &trace_;
}

void Client::Begin(uint32_t kind) {
  kind_ = kind;
  slice_ = g_slice.load(std::memory_order_relaxed);
  phase_ = slice_ < 0 ? kOutside
           : g_trace_window.load(std::memory_order_relaxed) && slice_ % 2 == 1 ? kTraced
                                                                               : kUntraced;
  ctx_.op_id = g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  ctx_.traced = phase_ == kTraced;
  start_ns_ = NowNs();
}

void Client::End() {
  const uint64_t end_ns = NowNs();
  if (phase_ != kOutside) {
    ops_[phase_]++;
  }
  if (phase_ == kUntraced) {
    samples_.push_back(Sample{
        static_cast<uint32_t>(
            std::min<uint64_t>(end_ns - start_ns_, std::numeric_limits<uint32_t>::max())),
        static_cast<uint16_t>(kind_), static_cast<uint16_t>(slice_)});
  } else if (phase_ == kTraced) {
    trace_.ops.push_back(Span{ctx_.op_id, start_ns_, end_ns, kind_});
  }
  ctx_.op_id = 0;
  ctx_.traced = false;
}

void Client::Fail(const std::string& what) {
  failed_++;
  if (errors_.size() < kErrorsKept) {
    errors_.push_back("client " + std::to_string(id_) + ": " + what);
  }
}

void Client::Mismatch(const std::string& what) {
  mismatches_++;
  Fail("wrong result: " + what);
}

void Client::ResetMeasurements() {
  samples_.clear();
  ops_[kUntraced] = ops_[kTraced] = 0;
  trace_ = ClientTrace{};
  traced_work_ = TracedWork{};
}

LayerSnapshot LayerSnapshot::Take(Workload* wl) {
  LayerSnapshot s;
  s.ns = NowNs();
  s.counters = hfad::stats::Snapshot::Take();
  for (int h = 0; h < hfad::metrics::kNumHists; h++) {
    s.hists.push_back(hfad::metrics::HistSnapshot::Take(static_cast<hfad::metrics::Hist>(h)));
  }
  for (ModelDevice* d : wl->devices()) {
    for (int cls = 0; cls < kThreadClasses; cls++) {
      s.device[cls].push_back(d->Totals(static_cast<ThreadClass>(cls)));
    }
  }
  const hfad::osd::OsdCluster* cluster = wl->fs()->cluster();
  for (size_t k = 0; k < cluster->shard_count(); k++) {
    hfad::io::IoEngine* engine = cluster->shard(k)->io_engine();
    s.io_submitted.push_back(engine != nullptr ? engine->submitted() : 0);
  }
  return s;
}

void PhaseTotals::Add(const LayerSnapshot& before, const LayerSnapshot& after) {
  seconds += static_cast<double>(after.ns - before.ns) / 1e9;
  const hfad::stats::Snapshot d = after.counters.Delta(before.counters);
  for (int i = 0; i < hfad::stats::kNumCounters; i++) {
    counters[i] += d.values[i];
  }
  hists.resize(after.hists.size());
  for (size_t h = 0; h < after.hists.size(); h++) {
    hists[h].count += after.hists[h].count - before.hists[h].count;
    hists[h].sum += after.hists[h].sum - before.hists[h].sum;
    for (int b = 0; b < hfad::metrics::kNumBuckets; b++) {
      hists[h].buckets[b] += after.hists[h].buckets[b] - before.hists[h].buckets[b];
    }
  }
  for (int cls = 0; cls < kThreadClasses; cls++) {
    device[cls].resize(after.device[cls].size());
    for (size_t k = 0; k < after.device[cls].size(); k++) {
      device[cls][k] += after.device[cls][k] - before.device[cls][k];
    }
  }
  for (size_t k = 0; k < after.io_submitted.size(); k++) {
    io_submitted += after.io_submitted[k] - before.io_submitted[k];
  }
}

DeviceTotals PhaseTotals::DeviceSum(int cls) const {
  DeviceTotals t;
  for (const DeviceTotals& d : device[cls]) {
    t += d;
  }
  return t;
}

DeviceTotals PhaseTotals::DeviceSum() const {
  DeviceTotals t = DeviceSum(kClientThread);
  t += DeviceSum(kBackgroundThread);
  return t;
}

void RunOps(Workload* wl, std::vector<std::unique_ptr<Client>>* clients, size_t ops_per_client) {
  OnClientThreads(clients, [wl, ops_per_client](Client& c) {
    for (size_t i = 0; i < ops_per_client; i++) {
      wl->Step(c);
    }
  });
}

WindowResult RunWindow(Workload* wl, std::vector<std::unique_ptr<Client>>* clients,
                       double seconds, bool trace, int slices) {
  WindowResult result;
  g_trace_window.store(trace, std::memory_order_relaxed);
  std::atomic<bool> stop{false};
  std::thread coordinator([&] {
    const auto start = std::chrono::steady_clock::now();
    const auto slice_len = std::chrono::duration<double>(seconds / slices);
    for (int s = 0; s < slices; s++) {
      const int phase = trace && s % 2 == 1 ? kTraced : kUntraced;
      PhaseTotals& totals = result.phase[phase];
      const LayerSnapshot before = LayerSnapshot::Take(wl);
      SetBackgroundTracing(phase == kTraced);
      g_slice.store(s, std::memory_order_relaxed);
      const auto slice_end =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(slice_len *
                                                                                   (s + 1));
      while (std::chrono::steady_clock::now() < slice_end) {
        if (phase == kTraced) {
          SampleGauges(wl, &totals);
        }
        std::this_thread::sleep_until(
            std::min(slice_end, std::chrono::steady_clock::now() + kGaugeInterval));
      }
      g_slice.store(-1, std::memory_order_relaxed);
      SetBackgroundTracing(false);
      const LayerSnapshot after = LayerSnapshot::Take(wl);
      totals.Add(before, after);
      result.slice_seconds.push_back(static_cast<double>(after.ns - before.ns) / 1e9);
      result.slice_phase.push_back(phase);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  OnClientThreads(clients, [wl, &stop](Client& c) {
    while (!stop.load(std::memory_order_relaxed)) {
      wl->Step(c);
    }
  });
  coordinator.join();
  return result;
}

}  // namespace perfbench
