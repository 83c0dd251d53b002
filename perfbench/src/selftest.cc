// Self-tests for the benchmark's own pieces: the device model's charges, counts and
// durable image; the percentile rule; span self-time accounting; and every oracle
// catching a planted wrong result. Prints one line per check; exits non-zero on any
// failure. perfbench/run.py runs it after every build.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/device.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/summary.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  g_failures += ok ? 0 : 1;
}

template <typename Fn>
uint64_t TimeNs(Fn fn) {
  const uint64_t start = NowNs();
  fn();
  return NowNs() - start;
}

void TestDeviceChargesAndCounts() {
  ModelDevice dev(1 * kMiB, DeviceModel{}, std::make_shared<PowerDomain>());
  ClientTrace trace;
  ClientContext ctx;
  ctx.trace = &trace;
  ctx.op_id = 7;
  ctx.traced = true;
  CurrentClient() = &ctx;
  std::string out;
  const uint64_t read_ns = TimeNs([&] { (void)dev.Read(4096, 4096, &out); });
  Check(read_ns >= 25000, "client read is charged 25 us");
  (void)dev.Write(0, "abc");
  (void)dev.WriteBatch({{8192, "de"}, {8194, "fgh"}});
  CurrentClient() = nullptr;
  const uint64_t sync_ns = TimeNs([&] { (void)dev.Sync(); });
  Check(sync_ns >= 100000, "background sync is charged 100 us");

  const DeviceTotals fg = dev.Totals(kClientThread);
  const DeviceTotals bg = dev.Totals(kBackgroundThread);
  Check(fg.reads == 1 && fg.read_bytes == 4096 && fg.read_ns >= 25000, "client read counted");
  Check(fg.writes == 2 && fg.write_bytes == 8, "client writes counted, a batch as one call");
  Check(bg.syncs == 1 && bg.sync_ns >= 100000 && fg.syncs == 0, "sync counted as background");
  Check(trace.device.size() == 3 && trace.device[0].op_id == 7 &&
            trace.device[0].kind == static_cast<uint32_t>(DeviceCall::kRead),
        "traced client calls become child spans of the op");

  dev.set_charging(false);
  Check(TimeNs([&] { (void)dev.Read(0, 8, &out); }) < 25000, "charging off serves at RAM speed");
}

void TestDurableImage() {
  auto power = std::make_shared<PowerDomain>();
  const DeviceModel free_model{std::chrono::nanoseconds(0), std::chrono::nanoseconds(0)};
  ModelDevice dev(64 * kKiB, free_model, power);
  ModelDevice other(64 * kKiB, free_model, power);
  (void)dev.Write(100, "abc");
  Check(dev.DurableImage().substr(100, 3) == std::string(3, '\0'),
        "a write is not durable before Sync");
  (void)dev.Sync();
  Check(dev.DurableImage().substr(100, 3) == "abc", "Sync makes earlier writes durable");
  (void)dev.Write(100, "x");
  (void)dev.Write(101, "yz");
  (void)other.Write(0, "o");
  power->Cut();
  (void)dev.Sync();
  (void)other.Sync();
  std::string live;
  (void)dev.Read(100, 3, &live);
  Check(dev.DurableImage().substr(100, 3) == "abc" && live == "xyz" &&
            other.DurableImage()[0] == '\0',
        "after the cut no sync on any device of the domain reaches its durable image");
  ModelDevice reopened(dev.DurableImage(), DeviceModel{});
  (void)reopened.Read(100, 3, &live);
  Check(live == "abc", "a device rebuilt from the image serves the durable bytes");
}

void TestPercentileRule() {
  Check(TailIndex(100000) == 98999, "p99 of 100000 samples has 1000 beyond it");
  Check(TailIndex(1100) == 1088, "p99 of 1100 samples has 11 beyond it");
  Check(TailIndex(1000) == 989, "p99 of 1000 samples has exactly 10 beyond it");
  Check(TailIndex(500) == 489, "500 samples fall back to p98 to keep 10 beyond");
  Check(TailIndex(11) == 0, "11 samples keep 10 beyond the minimum");
  bool rule = true;
  for (size_t n = 11; n <= 5000; n++) {
    const size_t idx = TailIndex(n);
    rule = rule && n - 1 - idx >= kTailSamplesBeyond &&
           (idx + 1 >= (99 * n + 99) / 100 || n - 1 - (idx + 1) < kTailSamplesBeyond);
  }
  Check(rule, "every n in [11, 5000] keeps >= 10 beyond and is the highest such rank <= p99");
  std::vector<uint32_t> samples;
  for (uint32_t v = 1000; v >= 1; v--) {
    samples.push_back(v * 1000);
  }
  const LatencySummary s = Summarize(samples);
  Check(s.n == 1000 && s.p50_us == 500 && s.tail_us == 990 && s.tail_pct == 99,
        "summary of 1..1000 us: p50 500, p99 990");
  Check(!Summarize(std::vector<uint32_t>(10, 5)).tail_ok, "10 samples support no tail");
}

void TestSelfTime() {
  ClientTrace t;
  t.ops.push_back({1, 0, 100, 0});
  t.device.push_back({1, 10, 20, 0});
  t.device.push_back({1, 30, 50, 2});
  t.ops.push_back({2, 200, 260, 0});
  SelfTimeSummary s = ComputeSelfTime({&t});
  Check(s.ops == 2 && s.span_ns == 160 && s.device_ns == 30 && s.self_ns == 130 &&
            s.inconsistent == 0,
        "self time is the op span minus its device children");
  t.device.push_back({2, 250, 270, 0});  // Ends after its op.
  s = ComputeSelfTime({&t});
  Check(s.inconsistent == 1, "a child outside its op span is caught");
}

void TestPageAndByteOracles() {
  std::vector<ObjectId> candidates;
  for (ObjectId id = 1; id <= 200; id++) {
    candidates.push_back(id);
  }
  auto even = [](ObjectId id) { return id % 2 == 0; };
  const hfad::query::FindPage want = ExpectedPage(candidates, 10, 64, even);
  Check(want.ids.size() == 64 && want.ids.front() == 12 && want.has_more &&
            want.next_after == want.ids.back(),
        "expected page starts after the anchor and pages at 64");
  Check(ComparePages(want, want).empty(), "identical pages compare equal");
  hfad::query::FindPage planted = want;
  planted.ids[5]++;
  Check(!ComparePages(want, planted).empty(), "a planted wrong id is caught");
  planted = want;
  planted.ids.pop_back();
  Check(!ComparePages(want, planted).empty(), "a planted missing id is caught");
  planted = want;
  planted.has_more = false;
  Check(!ComparePages(want, planted).empty(), "a planted has_more flip is caught");
  Check(CompareBytes("abcdef", "abcdef").empty(), "identical bytes compare equal");
  Check(!CompareBytes("abcdef", "abcxef").empty() && !CompareBytes("abcdef", "abcde").empty(),
        "a planted byte flip or short read is caught");
}

std::vector<std::unique_ptr<Client>> MakeClients(Workload* wl, uint64_t seed) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < wl->clients(); c++) {
    clients.push_back(std::make_unique<Client>(c, seed));
  }
  return clients;
}

uint64_t Mismatches(const std::vector<std::unique_ptr<Client>>& clients) {
  uint64_t n = 0;
  for (const auto& c : clients) {
    n += c->mismatches();
  }
  return n;
}

uint64_t Failures(const std::vector<std::unique_ptr<Client>>& clients) {
  uint64_t n = 0;
  for (const auto& c : clients) {
    n += c->failed();
  }
  return n;
}

void TestIngestCrashOracle() {
  for (const bool cut_early : {false, true}) {
    std::unique_ptr<Workload> wl = MakeIngestSync(3);
    hfad::Status s = wl->Setup();
    auto clients = MakeClients(wl.get(), 3);
    RunOps(wl.get(), &clients, 40);
    if (cut_early) {
      // Acknowledged from here on, but never durable.
      s = CutIngestPower(wl.get());
      RunOps(wl.get(), &clients, 10);
    }
    std::vector<std::string> problems;
    if (s.ok()) {
      s = wl->Verify(&problems);
    }
    if (!cut_early) {
      Check(s.ok() && problems.empty() && Failures(clients) == 0,
            "ingest_sync: every acknowledged op survives the power cut and reopen" +
                (problems.empty() ? std::string() : " (" + problems.front() + ")") +
                (s.ok() ? std::string() : " (" + s.ToString() + ")"));
    } else {
      Check(s.ok() && !problems.empty(),
            "ingest_sync: acknowledged ops lost to an early cut are caught (" +
                std::to_string(problems.size()) + " problems" +
                (s.ok() ? std::string() : "; " + s.ToString()) + ")");
    }
  }
}

// Visit every object id on the volume.
std::vector<ObjectId> AllObjects(hfad::core::FileSystem* fs) {
  std::vector<ObjectId> ids;
  (void)fs->cluster()->ScanObjects([&](ObjectId oid, const hfad::osd::ObjectMeta&) {
    ids.push_back(oid);
    return true;
  });
  return ids;
}

void TestQueryColdOracles() {
  // Just over 8x the 4 MiB cache, about the smallest volume query_cold accepts.
  std::unique_ptr<Workload> wl = MakeQueryCold(5, 3000);
  hfad::Status s = wl->Setup();
  Check(s.ok(), "query_cold: small volume sets up (" + s.ToString() + ")");
  if (!s.ok()) {
    return;
  }
  auto clients = MakeClients(wl.get(), 5);
  RunOps(wl.get(), &clients, 100);
  Check(Failures(clients) == 0, "query_cold: untampered volume passes every oracle");

  // Names the model does not know: Find pages driven by app0 now differ.
  for (ObjectId oid : AllObjects(wl->fs())) {
    (void)wl->fs()->AddTag(oid, {"APP", "app0"});
  }
  clients = MakeClients(wl.get(), 6);
  RunOps(wl.get(), &clients, 100);
  Check(Mismatches(clients) > 0, "query_cold: planted names are caught by the Find oracle (" +
                                     std::to_string(Mismatches(clients)) + ")");

  // Bytes the model does not know: every Read now differs.
  for (ObjectId oid : AllObjects(wl->fs())) {
    (void)wl->fs()->Write(oid, 0, "planted");
  }
  clients = MakeClients(wl.get(), 7);
  for (auto& c : clients) {
    CurrentClient() = c->context();
    for (int i = 0; i < 40; i++) {
      wl->Step(*c);
    }
    CurrentClient() = nullptr;
  }
  uint64_t read_mismatches = 0;
  for (const auto& c : clients) {
    for (const std::string& e : c->errors()) {
      read_mismatches += e.find("wrong result: read") != std::string::npos ? 1 : 0;
    }
  }
  Check(read_mismatches > 0, "query_cold: planted bytes are caught by the Read oracle");
}

void TestEditMixedOracles() {
  std::unique_ptr<Workload> wl = MakeEditMixed(9);
  hfad::Status s = wl->Setup();
  auto clients = MakeClients(wl.get(), 9);
  RunOps(wl.get(), &clients, 200);
  std::vector<std::string> problems;
  s = wl->Verify(&problems);
  Check(s.ok() && problems.empty() && Failures(clients) == 0,
        "edit_mixed: byte models, strict finds and fsck agree with the volume");

  auto own = wl->fs()->Lookup({{"USER", "c0"}});
  for (ObjectId oid : *own) {
    for (int a = 0; a < 32; a++) {
      (void)wl->fs()->AddTag(oid, {"UDEF", "alb" + std::to_string(a)});
    }
  }
  (void)wl->fs()->Write(own->front(), 0, "planted");
  clients = MakeClients(wl.get(), 10);
  RunOps(wl.get(), &clients, 100);
  Check(Mismatches(clients) > 0, "edit_mixed: planted names are caught by the strict Find oracle");
  problems.clear();
  s = wl->Verify(&problems);
  Check(s.ok() && !problems.empty(), "edit_mixed: planted bytes are caught by the whole compare");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestDeviceChargesAndCounts();
  perfbench::TestDurableImage();
  perfbench::TestPercentileRule();
  perfbench::TestSelfTime();
  perfbench::TestPageAndByteOracles();
  perfbench::TestIngestCrashOracle();
  perfbench::TestQueryColdOracles();
  perfbench::TestEditMixedOracles();
  std::printf("%s: %d failed\n", perfbench::g_failures == 0 ? "PASS" : "FAIL",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
