// perfbench: the repository benchmark.
//
//   perfbench --workload <ingest_sync|query_cold|edit_mixed> --seed <n> --seconds <s>
//             --trace <0|1> [--spans <path>]
//
// Sets the workload up three times (reporting the median set-up time), then runs its
// closed loop for --seconds, cut into one-second slices. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 the slices alternate untraced and traced, it
// reports the per-layer metrics instead, and --spans names the span dump. Every metric is printed by name and unit; the last line of
// standard output is one JSON object. The exit code is non-zero when any op failed or
// any oracle found a wrong result.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/summary.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using hfad::metrics::Hist;
using hfad::stats::Counter;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (key == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

uint64_t HeapAllocated(hfad::core::FileSystem* fs) {
  uint64_t n = 0;
  for (size_t k = 0; k < fs->cluster()->shard_count(); k++) {
    n += fs->cluster()->shard(k)->heap_allocated_bytes();
  }
  return n;
}

// Latencies of the given kinds; slice -1 takes every slice.
std::vector<uint32_t> SamplesOf(const std::vector<std::unique_ptr<Client>>& clients,
                                const std::vector<uint32_t>& kinds, int slice = -1) {
  std::vector<uint32_t> out;
  for (const auto& c : clients) {
    for (const Client::Sample& s : c->samples()) {
      if ((slice < 0 || s.slice == slice) &&
          std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
        out.push_back(s.ns);
      }
    }
  }
  return out;
}

std::vector<uint32_t> AllKinds(Workload* wl) {
  std::vector<uint32_t> kinds;
  for (uint32_t k = 0; k < wl->op_names().size(); k++) {
    kinds.push_back(k);
  }
  return kinds;
}

void PrintLatency(const std::string& name, const LatencySummary& s) {
  if (s.n == 0) {
    return;
  }
  std::printf("  %-24s p50 %10.2f us   p%-6.3g %10.2f us   n=%zu\n", name.c_str(), s.p50_us,
              s.tail_ok ? s.tail_pct : 0.0, s.tail_ok ? s.tail_us : 0.0, s.n);
}

// Throughput and the median latency are medians over the window's one-second slices,
// so one slice disturbed by the host moves them little; the tail takes every op of the
// window, so it rests on the most samples beyond it.
std::vector<Metric> EndToEnd(Workload* wl, const std::vector<std::unique_ptr<Client>>& clients,
                             const WindowResult& window, const std::vector<double>& setup_s) {
  const std::vector<uint32_t> kinds = AllKinds(wl);
  std::vector<double> rate, p50;
  for (size_t s = 0; s < window.slice_seconds.size(); s++) {
    if (window.slice_phase[s] != kUntraced) {
      continue;
    }
    const std::vector<uint32_t> samples = SamplesOf(clients, kinds, static_cast<int>(s));
    rate.push_back(Ratio(static_cast<double>(samples.size()), window.slice_seconds[s]));
    const LatencySummary l = Summarize(samples);
    p50.push_back(l.p50_us);
    std::printf("  slice %2zu: %10.1f ops/s  p50 %9.2f us  p%-6.3g %9.2f us  n=%zu\n", s,
                rate.back(), l.p50_us, l.tail_pct, l.tail_us, l.n);
  }
  const LatencySummary all = Summarize(SamplesOf(clients, kinds));
  uint64_t written = 0;
  for (ModelDevice* d : wl->devices()) {
    written += d->Totals().write_bytes;
  }
  return {
      {"setup_s", "s", Median(setup_s)},
      {"ops_per_s", "ops/s", Median(rate)},
      {"op_p50_us", "us", Median(p50)},
      {"op_p99_us", "us", all.tail_ok ? all.tail_us : 0},
      {"write_amp", "ratio",
       Ratio(static_cast<double>(written), static_cast<double>(wl->user_bytes_acked()))},
      {"space_amp", "ratio",
       Ratio(static_cast<double>(HeapAllocated(wl->fs())),
             static_cast<double>(wl->live_user_bytes()))},
      {"peak_rss_mb", "MiB", PeakRssMiB()},
  };
}

std::vector<Metric> PerLayer(Workload* wl, const std::vector<std::unique_ptr<Client>>& clients,
                             const WindowResult& window, const SelfTimeSummary& self) {
  const PhaseTotals& t = window.phase[kTraced];
  const PhaseTotals& u = window.phase[kUntraced];
  uint64_t traced_ops = 0, untraced_ops = 0;
  Client::TracedWork w;
  for (const auto& c : clients) {
    traced_ops += c->ops(kTraced);
    untraced_ops += c->ops(kUntraced);
    const Client::TracedWork& cw = c->traced_work();
    w.finds += cw.finds;
    w.find_results += cw.find_results;
    w.rows_scanned += cw.rows_scanned;
    w.membership_probes += cw.membership_probes;
    w.index_lookups += cw.index_lookups;
    w.edits += cw.edits;
  }
  const double n = static_cast<double>(traced_ops);
  auto per_op = [&](double v) { return Ratio(v, n); };
  auto c = [&](Counter k) { return static_cast<double>(t[k]); };
  auto hist = [&](Hist h) -> const hfad::metrics::HistSnapshot& {
    return t.hists[static_cast<int>(h)];
  };
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  const DeviceTotals dev = t.DeviceSum();
  const DeviceTotals fg = t.DeviceSum(kClientThread);
  DeviceTotals shard0;  // The metadata shard.
  for (int cls = 0; cls < kThreadClasses; cls++) {
    if (!t.device[cls].empty()) {
      shard0 += t.device[cls][0];
    }
  }
  hfad::core::FileSystem* fs = wl->fs();
  uint64_t max_qd = 0;
  for (size_t k = 0; k < fs->cluster()->shard_count(); k++) {
    if (hfad::io::IoEngine* e = fs->cluster()->shard(k)->io_engine()) {
      max_qd += e->max_queue_depth();
    }
  }
  const double traced_rate = Ratio(static_cast<double>(traced_ops), t.seconds);
  const double untraced_rate = Ratio(static_cast<double>(untraced_ops), u.seconds);
  return {
      {"core.self_us_per_op", "us/op", Ratio(us(self.self_ns), static_cast<double>(self.ops))},
      {"core.lock_contentions_per_op", "count/op", per_op(c(Counter::kLockContentions))},
      {"query.rows_scanned_per_result", "count",
       Ratio(static_cast<double>(w.rows_scanned), static_cast<double>(w.find_results))},
      {"query.probes_per_find", "count",
       Ratio(static_cast<double>(w.membership_probes), static_cast<double>(w.finds))},
      {"query.lookups_per_find", "count",
       Ratio(static_cast<double>(w.index_lookups), static_cast<double>(w.finds))},
      {"index.traversals_per_op", "count/op", per_op(c(Counter::kIndexTraversals))},
      {"index.intent_backlog_max", "count", static_cast<double>(t.intent_backlog_max)},
      {"index.apply_busy_s", "s", static_cast<double>(hist(Hist::kIndexerApply).sum) / 1e9},
      {"index.apply_p50_us", "us", us(hist(Hist::kIndexerApply).Percentile(0.5))},
      {"btree.node_visits_per_op", "count/op", per_op(c(Counter::kBtreeNodeVisits))},
      {"fulltext.terms_per_doc", "count",
       Ratio(static_cast<double>(hfad::stats::Get(Counter::kFulltextTermsPosted)),
             static_cast<double>(hfad::stats::Get(Counter::kFulltextDocsIndexed)))},
      {"extent.extents_alloc_per_edit", "count",
       Ratio(c(Counter::kExtentsAllocated), static_cast<double>(w.edits))},
      {"extent.extents_freed_per_edit", "count",
       Ratio(c(Counter::kExtentsFreed), static_cast<double>(w.edits))},
      {"journal.records_per_op", "count/op", per_op(c(Counter::kJournalRecords))},
      {"journal.bytes_per_op", "B/op", per_op(c(Counter::kJournalBytes))},
      {"journal.commits_per_op", "count/op", per_op(c(Counter::kJournalCommits))},
      {"journal.records_per_commit", "count",
       Ratio(c(Counter::kJournalRecords), c(Counter::kJournalCommits))},
      {"journal.commit_p50_us", "us", us(hist(Hist::kJournalCommit).Percentile(0.5))},
      {"journal.commit_p99_us", "us", us(hist(Hist::kJournalCommit).Percentile(0.99))},
      {"journal.occupancy_pct_max", "%", t.journal_occupancy_max * 100},
      {"osd.checkpoints", "count", static_cast<double>(hist(Hist::kCheckpoint).count)},
      {"osd.checkpoint_busy_s", "s", static_cast<double>(hist(Hist::kCheckpoint).sum) / 1e9},
      {"osd.checkpoint_p99_ms", "ms",
       static_cast<double>(hist(Hist::kCheckpoint).Percentile(0.99)) / 1e6},
      {"osd.meta_shard_sync_share", "ratio",
       Ratio(static_cast<double>(shard0.syncs), static_cast<double>(dev.syncs))},
      {"osd.meta_shard_write_share", "ratio",
       Ratio(static_cast<double>(shard0.write_bytes), static_cast<double>(dev.write_bytes))},
      {"io.submitted_per_op", "count/op", per_op(static_cast<double>(t.io_submitted))},
      {"io.max_queue_depth", "count", static_cast<double>(max_qd)},
      {"storage.pager_hit_ratio", "ratio",
       Ratio(c(Counter::kPagerHits), c(Counter::kPagerHits) + c(Counter::kPageReads))},
      {"storage.pager_misses_per_op", "count/op", per_op(c(Counter::kPageReads))},
      {"storage.pager_miss_p50_us", "us", us(hist(Hist::kPageRead).Percentile(0.5))},
      {"storage.pager_miss_p99_us", "us", us(hist(Hist::kPageRead).Percentile(0.99))},
      {"storage.pager_writebacks_per_op", "count/op", per_op(c(Counter::kPageWrites))},
      {"storage.pager_dirty_max", "count", static_cast<double>(t.dirty_pages_max)},
      {"storage.checksum_verifies_per_op", "count/op", per_op(c(Counter::kChecksumVerifies))},
      {"storage.heap_allocated_mb", "MiB", static_cast<double>(HeapAllocated(fs)) / (1 << 20)},
      {"storage.device_reads_per_op", "count/op", per_op(static_cast<double>(dev.reads))},
      {"storage.device_read_busy_s", "s", static_cast<double>(dev.read_ns) / 1e9},
      {"storage.device_writes_per_op", "count/op", per_op(static_cast<double>(dev.writes))},
      {"storage.device_write_bytes_per_op", "B/op", per_op(static_cast<double>(dev.write_bytes))},
      {"storage.device_runs_per_batch", "count",
       Ratio(c(Counter::kDeviceBatchRuns), c(Counter::kDeviceWriteBatches))},
      {"storage.device_syncs_per_op", "count/op", per_op(static_cast<double>(dev.syncs))},
      {"storage.device_sync_busy_s", "s", static_cast<double>(dev.sync_ns) / 1e9},
      {"storage.device_fg_share", "ratio",
       Ratio(static_cast<double>(fg.busy_ns()), static_cast<double>(dev.busy_ns()))},
      {"trace.overhead_frac", "ratio", untraced_rate == 0 ? 0 : 1 - traced_rate / untraced_rate},
  };
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Client>> clients;
  for (int k = 0; k < kSetups; k++) {
    clients.clear();
    const uint64_t start = NowNs();
    hfad::Status s = wl->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "%s set-up failed: %s\n", args.workload.c_str(), s.ToString().c_str());
      return 1;
    }
    for (int c = 0; c < wl->clients(); c++) {
      clients.push_back(std::make_unique<Client>(c, args.seed));
    }
    RunOps(wl.get(), &clients, wl->warmup_ops());
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    for (const auto& c : clients) {
      if (c->failed() != 0) {
        std::fprintf(stderr, "%s warm-up failed: %s\n", args.workload.c_str(),
                     c->errors().front().c_str());
        return 1;
      }
      c->ResetMeasurements();
    }
  }

  const int slices = std::max(2, static_cast<int>(std::lround(args.seconds)));
  const WindowResult window = RunWindow(wl.get(), &clients, args.seconds, args.trace, slices);

  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (const auto& c : clients) {
    attempted += c->ops(kUntraced) + c->ops(kTraced);
    failed += c->failed();
    mismatches += c->mismatches();
    problems.insert(problems.end(), c->errors().begin(), c->errors().end());
  }

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(wl.get(), clients, window, setup_s);
    std::printf("latency over the whole window (tail = highest percentile <= 99 with >= 10 "
                "samples beyond it):\n");
    for (uint32_t k = 0; k < wl->op_names().size(); k++) {
      PrintLatency(wl->op_names()[k], Summarize(SamplesOf(clients, {k})));
    }
    PrintLatency("op (all)", Summarize(SamplesOf(clients, AllKinds(wl.get()))));
    for (const Workload::Group& g : wl->latency_groups()) {
      const LatencySummary l = Summarize(SamplesOf(clients, g.kinds));
      std::printf("%s_p50_us = %.2f us, %s_p99_us = %.2f us (p%.3g of n=%zu)\n", g.name.c_str(),
                  l.p50_us, g.name.c_str(), l.tail_us, l.tail_pct, l.n);
    }
  } else {
    std::vector<const ClientTrace*> traces;
    for (const auto& c : clients) {
      traces.push_back(&c->trace());
    }
    const SelfTimeSummary self = ComputeSelfTime(traces);
    if (self.inconsistent != 0) {
      problems.push_back(std::to_string(self.inconsistent) +
                         " traced ops whose device spans do not nest in the op span");
    }
    std::printf("traced ops %llu: span %.3f s = self %.3f s + device %.3f s\n",
                static_cast<unsigned long long>(self.ops), self.span_ns / 1e9,
                self.self_ns / 1e9, self.device_ns / 1e9);
    metrics = PerLayer(wl.get(), clients, window, self);
    if (!args.spans.empty()) {
      const std::vector<Span> background = TakeBackgroundSpans();
      if (!WriteChromeTrace(args.spans, traces, background, wl->op_names(), 5000, 50000)) {
        std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
      } else {
        std::printf("spans written to %s\n", args.spans.c_str());
      }
    }
  }

  // Run-end oracles last: ingest_sync replaces the volume with its crash reopen.
  const size_t before = problems.size();
  hfad::Status vs = wl->Verify(&problems);
  if (!vs.ok()) {
    problems.push_back("run-end check could not run: " + vs.ToString());
  }
  const bool run_end_ok = problems.size() == before;

  std::printf("failed_frac = %.6f ratio (%llu of %llu ops; %llu wrong results)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(mismatches));
  std::printf("run-end checks: %s\n", run_end_ok ? "clean" : "FAILED");
  constexpr size_t kProblemsShown = 20;
  for (size_t i = 0; i < std::min(problems.size(), kProblemsShown); i++) {
    std::printf("problem: %s\n", problems[i].c_str());
  }
  if (problems.size() > kProblemsShown) {
    std::printf("problem: ... and %zu more\n", problems.size() - kProblemsShown);
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = problems.empty() && failed == 0 && attempted > 0;
  PrintJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n");
    return 2;
  }
  // Threads inherit timer slack from their creator; with 1 ns the modelled 100 us sync
  // sleeps 100 us rather than up to 50 us more.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return perfbench::Run(args);
}
