#include "src/common/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/stats.h"

namespace hfad {
namespace metrics {

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

std::string_view HistName(Hist h) {
  switch (h) {
    case Hist::kCreate:
      return "create";
    case Hist::kAddTag:
      return "add_tag";
    case Hist::kRemoveTag:
      return "remove_tag";
    case Hist::kFind:
      return "find";
    case Hist::kSearchText:
      return "search_text";
    case Hist::kBatchCommit:
      return "batch_commit";
    case Hist::kJournalCommit:
      return "journal_commit";
    case Hist::kPageRead:
      return "page_read";
    case Hist::kCheckpoint:
      return "checkpoint";
    case Hist::kIndexerApply:
      return "indexer_apply";
    case Hist::kSync:
      return "sync";
    case Hist::kNumHists:
      break;
  }
  return "unknown";
}

HistSnapshot HistSnapshot::Take(Hist h) {
  const internal::HistData& d = internal::g_hists[static_cast<int>(h)];
  HistSnapshot s;
  // Bucket loads are relaxed and not atomic as a set: concurrent recorders can
  // make count briefly disagree with the bucket sum. Percentile() normalizes by
  // the bucket total, so the skew only dates the snapshot, never corrupts it.
  for (int i = 0; i < kNumBuckets; i++) {
    s.buckets[i] = d.buckets[i].load(std::memory_order_relaxed);
  }
  s.count = d.count.load(std::memory_order_relaxed);
  s.sum = d.sum.load(std::memory_order_relaxed);
  s.max = d.max.load(std::memory_order_relaxed);
  return s;
}

uint64_t HistSnapshot::Percentile(double q) const {
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    total += buckets[i];
  }
  if (total == 0) {
    return 0;
  }
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested quantile, 1-based; walk buckets until it is covered.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    seen += buckets[i];
    if (seen >= rank) {
      // Midpoint of the bucket, clamped to the observed max so p99 never
      // reports beyond a value that was actually recorded.
      uint64_t lo = BucketLowerBound(i);
      uint64_t hi = (i + 1 < kNumBuckets) ? BucketLowerBound(i + 1) : lo + 1;
      uint64_t mid = lo + (hi - lo) / 2;
      return (max != 0 && mid > max) ? max : mid;
    }
  }
  return max;
}

void ResetAll() {
  for (auto& d : internal::g_hists) {
    for (auto& b : d.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
    d.count.store(0, std::memory_order_relaxed);
    d.sum.store(0, std::memory_order_relaxed);
    d.max.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- JsonWriter

void JsonWriter::MaybeComma() {
  if (need_comma_) {
    out_ += ',';
  }
  need_comma_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view k) {
  MaybeComma();
  out_ += '"';
  for (char c : k) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
    }
    out_ += c;
  }
  out_ += "\":";
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  MaybeComma();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  MaybeComma();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  MaybeComma();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

// ------------------------------------------------- shared document fragments

void WriteCountersJson(JsonWriter* w) {
  w->Key("counters").BeginObject();
  stats::Snapshot snap = stats::Snapshot::Take();
  for (int i = 0; i < stats::kNumCounters; i++) {
    auto c = static_cast<stats::Counter>(i);
    w->Key(stats::CounterName(c)).Value(snap[c]);
  }
  w->EndObject();
}

void WriteHistogramsJson(JsonWriter* w) {
  w->Key("histograms").BeginObject();
  for (int i = 0; i < kNumHists; i++) {
    auto h = static_cast<Hist>(i);
    HistSnapshot s = HistSnapshot::Take(h);
    w->Key(HistName(h)).BeginObject();
    w->Key("count").Value(s.count);
    w->Key("sum_ns").Value(s.sum);
    w->Key("mean_ns").Value(s.Mean());
    w->Key("p50_ns").Value(s.Percentile(0.50));
    w->Key("p90_ns").Value(s.Percentile(0.90));
    w->Key("p99_ns").Value(s.Percentile(0.99));
    w->Key("max_ns").Value(s.max);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace metrics
}  // namespace hfad
