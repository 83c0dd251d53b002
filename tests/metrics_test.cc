// Observability: histogram bucketing and percentiles, concurrent recording, the trace
// ring (nesting, sampling, wraparound, concurrent readers), query EXPLAIN annotation,
// and DumpMetrics JSON emitted during a live multi-threaded tag storm and on one and four
// shards.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/core/filesystem.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace {

using core::FileSystem;
using core::FileSystemOptions;
using core::SearchCursor;
using index::ObjectId;
using index::TagValue;

constexpr uint64_t kDev = 64 * 1024 * 1024;

// ---------------------------------------------------------------- histograms

TEST(MetricsBuckets, RoundTripAndMonotonic) {
  int prev_idx = -1;
  const std::vector<uint64_t> samples = {0,    1,    2,     3,          4,
                                         5,    7,    8,     100,        1000,
                                         4096, 65535, 1u << 20, (uint64_t{1} << 40) + 12345,
                                         ~uint64_t{0} >> 1};
  for (uint64_t v : samples) {
    int idx = metrics::BucketIndex(v);
    ASSERT_GE(idx, prev_idx) << v;
    prev_idx = idx;
    ASSERT_LT(idx, metrics::kNumBuckets) << v;
    EXPECT_LE(metrics::BucketLowerBound(idx), v) << v;
    if (idx + 1 < metrics::kNumBuckets) {
      EXPECT_GT(metrics::BucketLowerBound(idx + 1), v) << v;
    }
  }
}

TEST(MetricsHistogram, RecordsCountSumMaxAndPercentiles) {
  metrics::ResetAll();
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; v++) {
    metrics::Record(metrics::Hist::kFind, v);
    sum += v;
  }
  metrics::HistSnapshot snap = metrics::HistSnapshot::Take(metrics::Hist::kFind);
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.Mean(), sum / 1000);
  // Percentiles carry the log-linear bucketing's bounded relative error.
  uint64_t p50 = snap.Percentile(0.5);
  uint64_t p99 = snap.Percentile(0.99);
  EXPECT_GE(p50, 400u);
  EXPECT_LE(p50, 625u);
  EXPECT_GE(p99, 850u);
  EXPECT_LE(p99, 1000u);
  EXPECT_LE(snap.Percentile(1.0), snap.max);
}

TEST(MetricsHistogram, DisableStopsRecordingAndClockReads) {
  metrics::ResetAll();
  metrics::SetEnabled(false);
  metrics::Record(metrics::Hist::kCreate, 123);
  {
    metrics::ScopedLatency latency(metrics::Hist::kCreate);
  }
  metrics::SetEnabled(true);
  EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kCreate).count, 0u);
  metrics::Record(metrics::Hist::kCreate, 123);
  EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kCreate).count, 1u);
}

TEST(MetricsHistogram, ConcurrentRecordingLosesNothing) {
  metrics::ResetAll();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; i++) {
        metrics::Record(metrics::Hist::kAddTag, static_cast<uint64_t>(i % 1024) + 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  metrics::HistSnapshot snap = metrics::HistSnapshot::Take(metrics::Hist::kAddTag);
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t per_thread_sum = 0;
  for (int i = 0; i < kPerThread; i++) {
    per_thread_sum += static_cast<uint64_t>(i % 1024) + 1;
  }
  EXPECT_EQ(snap.sum, per_thread_sum * kThreads);
  EXPECT_EQ(snap.max, 1024u);
}

// Each tag entry point records its own histogram, once: AddTag and RemoveTag do not
// pass through batch_commit, and Create(names), Remove and NamespaceBatch::Commit each
// record it once.
TEST(MetricsHistogram, TagEntryPointsRecordTheirOwnHistograms) {
  auto expect_counts = [](uint64_t create, uint64_t add_tag, uint64_t remove_tag,
                          uint64_t batch_commit) {
    EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kCreate).count, create);
    EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kAddTag).count, add_tag);
    EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kRemoveTag).count, remove_tag);
    EXPECT_EQ(metrics::HistSnapshot::Take(metrics::Hist::kBatchCommit).count, batch_commit);
  };
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "inline");
    FileSystemOptions options;
    options.lazy_tag_indexing = lazy;
    auto fs_or = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), options);
    ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
    std::unique_ptr<FileSystem> fs = std::move(fs_or).value();
    metrics::ResetAll();

    auto oid = fs->Create({{"UDEF", "created"}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    expect_counts(1, 0, 0, 1);
    ASSERT_TRUE(fs->AddTag(*oid, {"UDEF", "loose"}).ok());
    expect_counts(1, 1, 0, 1);
    ASSERT_TRUE(fs->RemoveTag(*oid, {"UDEF", "loose"}).ok());
    expect_counts(1, 1, 1, 1);
    core::NamespaceBatch batch = fs->NewBatch();
    ASSERT_TRUE(batch.AddTag(*oid, {"UDEF", "batched"}).ok());
    ASSERT_TRUE(batch.Commit().ok());
    expect_counts(1, 1, 1, 2);
    ASSERT_TRUE(fs->Remove(*oid).ok());
    expect_counts(1, 1, 1, 3);
  }
}

// FileSystem::Sync records one "sync" sample per call, its journal commit included.
TEST(MetricsHistogram, SyncRecordsOneSamplePerCall) {
  auto fs_or = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), FileSystemOptions{});
  ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
  std::unique_ptr<FileSystem> fs = std::move(fs_or).value();
  ASSERT_TRUE(fs->Create({{"UDEF", "synced"}}).ok());
  metrics::ResetAll();
  ASSERT_TRUE(fs->Sync().ok());
  metrics::HistSnapshot snap = metrics::HistSnapshot::Take(metrics::Hist::kSync);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GT(snap.sum, 0u);
  EXPECT_NE(fs->DumpMetrics().find("\"sync\""), std::string::npos);
}

// ---------------------------------------------------------------- trace ring

TEST(TraceRing, CapturesNestedSpansOfOneOperation) {
  trace::SetSampleEvery(1);
  trace::ResetRing();
  {
    trace::OpScope op("outer_op");
    EXPECT_TRUE(trace::Active());
    trace::SpanScope span("inner_span");
  }
  EXPECT_FALSE(trace::Active());
  std::vector<trace::SpanRecord> spans = trace::DumpRecent();
  ASSERT_EQ(spans.size(), 2u);
  // Newest first: the root publishes at scope exit, after its children.
  EXPECT_EQ(spans[0].name, "outer_op");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner_span");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[0].op_id, spans[1].op_id);
  EXPECT_LE(spans[1].duration_ns, spans[0].duration_ns);
  trace::SetSampleEvery(64);
}

TEST(TraceRing, SampleEveryZeroDisables) {
  trace::SetSampleEvery(0);
  trace::ResetRing();
  {
    trace::OpScope op("never_recorded");
    EXPECT_FALSE(trace::Active());
  }
  EXPECT_TRUE(trace::DumpRecent().empty());
  trace::SetSampleEvery(64);
}

TEST(TraceRing, WraparoundKeepsNewestSpans) {
  trace::SetSampleEvery(1);
  trace::ResetRing();
  const size_t total = trace::kRingSize + 100;
  for (size_t i = 0; i < total; i++) {
    trace::OpScope op("wrap_op");
  }
  std::vector<trace::SpanRecord> all = trace::DumpRecent();
  EXPECT_LE(all.size(), trace::kRingSize);
  EXPECT_GE(all.size(), trace::kRingSize / 2);  // Tolerate skipped torn slots.
  std::vector<trace::SpanRecord> ten = trace::DumpRecent(10);
  ASSERT_EQ(ten.size(), 10u);
  // Newest first means descending op ids for identical single-span ops.
  for (size_t i = 1; i < ten.size(); i++) {
    EXPECT_GT(ten[i - 1].op_id, ten[i].op_id);
  }
  trace::SetSampleEvery(64);
}

TEST(TraceRing, ConcurrentPublishAndDump) {
  trace::SetSampleEvery(1);
  trace::ResetRing();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; t++) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        trace::OpScope op("storm_op");
        trace::SpanScope span("storm_span");
      }
    });
  }
  for (int i = 0; i < 200; i++) {
    std::vector<trace::SpanRecord> spans = trace::DumpRecent(64);
    for (const trace::SpanRecord& s : spans) {
      // Names are always string literals from the fixed instrumentation set.
      EXPECT_TRUE(s.name == "storm_op" || s.name == "storm_span");
    }
  }
  stop.store(true);
  for (auto& th : writers) {
    th.join();
  }
  trace::SetSampleEvery(64);
}

// ---------------------------------------------------------------- EXPLAIN

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FileSystemOptions options;
    options.osd.journaling = false;
    auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), options);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    // Skewed cardinalities: huge on all 300, mid on 30, rare on 3.
    for (int i = 0; i < 300; i++) {
      auto oid = fs_->Create({{"UDEF", "huge"}});
      ASSERT_TRUE(oid.ok());
      if (i % 10 == 0) {
        ASSERT_TRUE(fs_->AddTag(*oid, {"UDEF", "mid"}).ok());
      }
      if (i % 100 == 0) {
        ASSERT_TRUE(fs_->AddTag(*oid, {"UDEF", "rare"}).ok());
      }
    }
  }

  std::unique_ptr<FileSystem> fs_;
};

TEST_F(ExplainTest, ThreeTermConjunctionReportsOrderEstimatesAndActuals) {
  query::Explain explain;
  query::PlanStats stats;
  query::FindOptions options;
  options.explain = &explain;
  options.stats = &stats;
  auto page = fs_->Find("UDEF:huge AND UDEF:mid AND UDEF:rare", options);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->ids.size(), 3u);

  const query::PlanNode& root = explain.root;
  EXPECT_TRUE(explain.planner_optimized);
  EXPECT_EQ(root.op, "and");
  ASSERT_EQ(root.children.size(), 3u);

  // Children mirror textual order; planner_order records execution order.
  const query::PlanNode& huge = root.children[0];
  const query::PlanNode& mid = root.children[1];
  const query::PlanNode& rare = root.children[2];
  EXPECT_EQ(huge.detail, "UDEF=huge");
  EXPECT_EQ(mid.detail, "UDEF=mid");
  EXPECT_EQ(rare.detail, "UDEF=rare");

  // Estimates come from the cardinality caches (exact here); actuals are measured.
  EXPECT_EQ(huge.estimate, 300u);
  EXPECT_EQ(mid.estimate, 30u);
  EXPECT_EQ(rare.estimate, 3u);
  EXPECT_EQ(huge.actual, 300u);
  EXPECT_EQ(mid.actual, 30u);
  EXPECT_EQ(rare.actual, 3u);

  // Cheapest drives; the 100x conjunct degrades to membership probes.
  EXPECT_EQ(rare.planner_order, 0);
  EXPECT_EQ(mid.planner_order, 1);
  EXPECT_EQ(huge.planner_order, 2);
  EXPECT_TRUE(huge.degraded_to_probe);
  EXPECT_FALSE(rare.degraded_to_probe);

  // Root carries the whole-plan execution stats and counter deltas.
  EXPECT_GT(root.stats.index_lookups, 0u);
  EXPECT_GT(root.stats.membership_probes, 0u);
  EXPECT_EQ(root.stats.index_lookups, stats.index_lookups);

  const std::string text = explain.ToString();
  EXPECT_NE(text.find("order=0 (driver)"), std::string::npos) << text;
  EXPECT_NE(text.find("UDEF=rare"), std::string::npos) << text;
  EXPECT_NE(text.find("[probe]"), std::string::npos) << text;
  const std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"planner_optimized\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"planner_order\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"estimate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"actual\""), std::string::npos) << json;
}

TEST_F(ExplainTest, NotAndOrShapesAnnotate) {
  query::Explain explain;
  query::FindOptions options;
  options.explain = &explain;
  auto page = fs_->Find("(UDEF:mid OR UDEF:rare) AND NOT UDEF:missing", options);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(explain.root.op, "and");
  ASSERT_EQ(explain.root.children.size(), 2u);
  EXPECT_EQ(explain.root.children[0].op, "or");
  EXPECT_EQ(explain.root.children[1].op, "not");
  ASSERT_EQ(explain.root.children[1].children.size(), 1u);
  EXPECT_EQ(explain.root.children[1].children[0].detail, "UDEF=missing");
  EXPECT_EQ(explain.root.children[1].children[0].actual, 0u);
}

// ---------------------------------------------------------------- DumpMetrics

void ExpectBalancedJson(const std::string& doc) {
  long depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < doc.size(); i++) {
    char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(DumpMetricsTest, JsonDuringLiveTagStorm) {
  FileSystemOptions options;
  options.lazy_tag_indexing = true;
  auto fs_or = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), options);
  ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
  std::unique_ptr<FileSystem> fs = std::move(fs_or).value();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&fs, &failures, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        auto oid = fs->Create({{"UDEF", "storm"}});
        if (!oid.ok()) {
          failures++;
          continue;
        }
        if (!fs->AddTag(*oid, {"USER", "t" + std::to_string(t)}).ok()) {
          failures++;
        }
      }
    });
  }
  // Dump (and read) continuously while the storm runs: the JSON emitter and every
  // gauge/lock accessor it calls must be safe against live mutation.
  for (int i = 0; i < 40; i++) {
    std::string doc = fs->DumpMetrics();
    ExpectBalancedJson(doc);
    std::string osd_doc = fs->volume()->DumpMetrics();
    ExpectBalancedJson(osd_doc);
    query::FindOptions relaxed;
    relaxed.visibility = query::Visibility::kRelaxed;
    relaxed.limit = 8;
    (void)fs->Find("UDEF:storm", relaxed);
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());

  const std::string doc = fs->DumpMetrics();
  ExpectBalancedJson(doc);
  for (const char* key :
       {"\"schema_version\"", "\"scope\"", "\"filesystem\"", "\"counters\"",
        "\"histograms\"", "\"create\"", "\"add_tag\"", "\"find\"", "\"search_text\"",
        "\"journal_commit\"", "\"page_read\"", "\"gauges\"", "\"journal_occupancy_pct\"",
        "\"journal_reserved_pct\"", "\"pager_resident_pages\"", "\"pager_dirty_pages\"", "\"indexer_queue_depth\"",
        "\"checkpointer_state\"", "\"retained_records\"", "\"locks\"", "\"tag_shards\"",
        "\"pager_stripes\"", "\"top_contended\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key << " in " << doc;
  }
  // One shard retains nothing: its records and their effects share a checkpoint.
  EXPECT_NE(doc.find("\"retained_records\":0,"), std::string::npos) << doc;
  const std::string osd_doc = fs->volume()->DumpMetrics();
  EXPECT_NE(osd_doc.find("\"scope\":\"osd\""), std::string::npos) << osd_doc;
  EXPECT_NE(osd_doc.find("\"object_mutex\""), std::string::npos) << osd_doc;
  EXPECT_NE(osd_doc.find("\"journal_reserved_pct\""), std::string::npos) << osd_doc;
}

// Every key path of a JSON document ("gauges.shard_count", "shards[].shard"). Elements
// share their array's path, so documents whose arrays differ only in length agree.
std::set<std::string> KeyPaths(const std::string& doc) {
  std::set<std::string> paths;
  std::vector<std::pair<std::string, bool>> open;  // Path of each open container; array?
  std::string key_path;  // Path of the last key read in the innermost object.
  for (size_t i = 0; i < doc.size(); i++) {
    const char c = doc[i];
    if (c == '"') {
      std::string text;
      for (i++; i < doc.size() && doc[i] != '"'; i++) {
        if (doc[i] == '\\') {
          i++;
        }
        text.push_back(doc[i]);
      }
      if (i + 1 < doc.size() && doc[i + 1] == ':' && !open.empty() && !open.back().second) {
        key_path = open.back().first.empty() ? text : open.back().first + "." + text;
        paths.insert(key_path);
      }
    } else if (c == '{' || c == '[') {
      std::string path;
      if (!open.empty()) {
        path = open.back().second ? open.back().first + "[]" : key_path;
      }
      open.emplace_back(path, c == '[');
    } else if (c == '}' || c == ']') {
      open.pop_back();
    }
  }
  return paths;
}

// One shard and four shards emit the same document shape: the per-shard array is
// there on every shard count.
TEST(DumpMetricsTest, OneAndFourShardDocumentsHaveTheSameKeys) {
  auto dump = [](size_t shards) {
    std::vector<std::shared_ptr<BlockDevice>> devices;
    for (size_t k = 0; k < shards; k++) {
      devices.push_back(std::make_shared<MemoryBlockDevice>(kDev));
    }
    FileSystemOptions options;
    options.shard_count = shards;
    auto fs = FileSystem::Create(devices, options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    if (!fs.ok()) {
      return std::string();
    }
    for (int i = 0; i < 8; i++) {
      auto oid = (*fs)->Create({{"UDEF", "shape"}});
      EXPECT_TRUE(oid.ok());
      EXPECT_TRUE(oid.ok() && (*fs)->Write(*oid, 0, "bytes").ok());
    }
    EXPECT_TRUE((*fs)->Sync().ok());
    return (*fs)->DumpMetrics();
  };
  const std::string one = dump(1);
  const std::string four = dump(4);
  ExpectBalancedJson(one);
  ExpectBalancedJson(four);
  const std::set<std::string> one_keys = KeyPaths(one);
  EXPECT_EQ(one_keys, KeyPaths(four));
  EXPECT_EQ(one_keys.count("shards[].retained_records"), 1u) << one;
  EXPECT_NE(one.find("\"shards\":[{\"shard\":0,"), std::string::npos) << one;
  EXPECT_NE(four.find("{\"shard\":3,"), std::string::npos) << four;
}

// A small object's first read misses the extent-map cache and fills it, its second is a
// hit, and both counters are in the filesystem and the osd documents.
TEST(DumpMetricsTest, ExtentMapCountersInBothScopes) {
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  auto oid = (*fs)->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE((*fs)->Write(*oid, 0, "small object").ok());
  const stats::Snapshot before = stats::Snapshot::Take();
  std::string out;
  ASSERT_TRUE((*fs)->Read(*oid, 0, 64, &out).ok());
  ASSERT_TRUE((*fs)->Read(*oid, 0, 64, &out).ok());
  EXPECT_EQ(out, "small object");
  const stats::Snapshot d = stats::Snapshot::Take().Delta(before);
  EXPECT_EQ(d[stats::Counter::kExtentMapMisses], 1u);
  EXPECT_EQ(d[stats::Counter::kExtentMapHits], 1u);
  for (const std::string& doc : {(*fs)->DumpMetrics(), (*fs)->volume()->DumpMetrics()}) {
    EXPECT_NE(doc.find("\"extent_map_hits\":"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"extent_map_misses\":"), std::string::npos) << doc;
  }
}

// A body written into a fresh extent is stamped without a read-back; an in-place write
// over part of a page reads that page back once. The counter is in both documents.
TEST(DumpMetricsTest, RawWriteReadbacksCountOnlyInPlacePartialWrites) {
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  const uint64_t before = stats::Get(stats::Counter::kRawWriteReadbacks);
  auto oid = (*fs)->Create();
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE((*fs)->Write(*oid, 0, std::string(5000, 'b')).ok());
  ASSERT_TRUE((*fs)->Insert(*oid, 2500, "middle").ok());
  EXPECT_EQ(stats::Get(stats::Counter::kRawWriteReadbacks) - before, 0u);
  ASSERT_TRUE((*fs)->Write(*oid, 10, "in place").ok());
  EXPECT_EQ(stats::Get(stats::Counter::kRawWriteReadbacks) - before, 1u);
  for (const std::string& doc : {(*fs)->DumpMetrics(), (*fs)->volume()->DumpMetrics()}) {
    EXPECT_NE(doc.find("\"raw_write_readbacks\":"), std::string::npos) << doc;
  }
}

// A read of bytes a write just put in a fresh extent is served from the pages the write
// left resident; once the cache is dropped the same read goes to the device. Both
// counters are in the filesystem and the osd documents.
TEST(DumpMetricsTest, RawCacheCountersSplitResidentAndDeviceReads) {
  auto fs = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev));
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  auto oid = (*fs)->Create();
  ASSERT_TRUE(oid.ok());
  const std::string body(6000, 'r');
  ASSERT_TRUE((*fs)->Write(*oid, 0, body).ok());
  std::string out;
  stats::Snapshot before = stats::Snapshot::Take();
  ASSERT_TRUE((*fs)->Read(*oid, 0, body.size(), &out).ok());
  EXPECT_EQ(out, body);
  stats::Snapshot d = stats::Snapshot::Take().Delta(before);
  EXPECT_EQ(d[stats::Counter::kRawCacheHits], 1u);
  EXPECT_EQ(d[stats::Counter::kRawCacheMisses], 0u);

  ASSERT_TRUE((*fs)->volume()->pager()->DropCacheForTesting().ok());
  before = stats::Snapshot::Take();
  ASSERT_TRUE((*fs)->Read(*oid, 0, body.size(), &out).ok());
  EXPECT_EQ(out, body);
  d = stats::Snapshot::Take().Delta(before);
  EXPECT_EQ(d[stats::Counter::kRawCacheHits], 0u);
  EXPECT_EQ(d[stats::Counter::kRawCacheMisses], 1u);
  for (const std::string& doc : {(*fs)->DumpMetrics(), (*fs)->volume()->DumpMetrics()}) {
    EXPECT_NE(doc.find("\"raw_cache_hits\":"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"raw_cache_misses\":"), std::string::npos) << doc;
  }
}

// ---------------------------------------------------------------- visibility options

TEST(VisibilityOptions, SearchTextAndCursorExposeVisibility) {
  FileSystemOptions options;
  options.lazy_tag_indexing = true;
  auto fs_or = FileSystem::Create(std::make_shared<MemoryBlockDevice>(kDev), options);
  ASSERT_TRUE(fs_or.ok()) << fs_or.status().ToString();
  std::unique_ptr<FileSystem> fs = std::move(fs_or).value();

  auto oid = fs->Create({{"UDEF", "doc"}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(fs->Write(*oid, 0, Slice("tagged observability document")).ok());
  ASSERT_TRUE(fs->IndexContent(*oid).ok());
  ASSERT_TRUE(fs->WaitForTagIndexing().ok());

  FileSystem::SearchTextOptions search;
  search.limit = 4;
  search.visibility = query::Visibility::kRelaxed;
  auto hits = fs->SearchText({"observability"}, search);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].docid, *oid);

  SearchCursor cursor = fs->OpenCursor();
  cursor.set_visibility(query::Visibility::kRelaxed);
  EXPECT_EQ(cursor.visibility(), query::Visibility::kRelaxed);
  ASSERT_TRUE(cursor.Refine({"UDEF", "doc"}).ok());
  auto results = cursor.Results();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0], *oid);
}

}  // namespace
}  // namespace hfad
