// Process-wide latency histograms: the second half of the paper's §2.3 instrumentation
// story. stats.h counts *what* the system did (traversals, page IOs, lock waits);
// these histograms record *how long* each operation class took, with enough
// resolution to read p50/p90/p99/max off a live process.
//
// Design mirrors stats.h: a fixed enum of histograms, constant-initialized arrays of
// relaxed atomics, no registration, no locks, cheap enough to stay on in Release.
// Buckets are log-linear (one octave of powers of two split into 4 linear
// sub-buckets), so relative error is bounded at ~12.5% across the full nanosecond-
// to-minutes range while a Record() is two fetch_adds and change.
#ifndef HFAD_SRC_COMMON_METRICS_H_
#define HFAD_SRC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace hfad {
namespace metrics {

enum class Hist : int {
  kCreate = 0,      // FileSystem::Create (validated single-object create).
  kAddTag,          // FileSystem::AddTag.
  kRemoveTag,       // FileSystem::RemoveTag.
  kFind,            // FileSystem::Find (parse excluded; plan + execute + paginate).
  kSearchText,      // FileSystem::SearchText full-text conjunctions.
  kBatchCommit,     // NamespaceBatch::Commit via FileSystem::CommitBatch.
  kJournalCommit,   // Journal commit-chain link, drain to retirement (in order).
  kPageRead,        // Pager miss servicing (device read + frame install).
  kCheckpoint,      // Osd::CheckpointLocked end-to-end.
  kIndexerApply,    // LazyTagIndexer background batch application.
  kSync,            // FileSystem::Sync end to end (every shard's journal commit).
  kNumHists,        // Sentinel.
};

constexpr int kNumHists = static_cast<int>(Hist::kNumHists);

// Log-linear bucketing: values 0..3 map to buckets 0..3; larger values map to
// (octave-1)*4 + sub where octave = floor(log2(v)) and sub is the next two bits.
// 64-bit values need at most (63-1)*4 + 3 + 1 = 252 buckets.
constexpr int kSubBuckets = 4;
constexpr int kNumBuckets = 252;

inline int BucketIndex(uint64_t v) {
  if (v < kSubBuckets) {
    return static_cast<int>(v);
  }
  int octave = 63 - __builtin_clzll(v);
  int sub = static_cast<int>((v >> (octave - 2)) & (kSubBuckets - 1));
  return (octave - 1) * kSubBuckets + sub;
}

// Inclusive lower bound of a bucket (inverse of BucketIndex).
inline uint64_t BucketLowerBound(int idx) {
  if (idx < kSubBuckets) {
    return static_cast<uint64_t>(idx);
  }
  int octave = idx / kSubBuckets + 1;
  uint64_t sub = static_cast<uint64_t>(idx % kSubBuckets);
  return (uint64_t{1} << octave) + (sub << (octave - 2));
}

namespace internal {

struct HistData {
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> max{0};
};

// Constant-initialized like stats::internal::g_counters: no magic-static guard on
// the hot path.
inline std::array<HistData, kNumHists> g_hists{};

// Kill switch so the overhead benchmark has a true "instrumentation off" baseline.
inline std::atomic<bool> g_enabled{true};

}  // namespace internal

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }

// Enable/disable all histogram recording (default on). Benchmark-only knob.
void SetEnabled(bool on);

// Record one sample (nanoseconds) into histogram h.
inline void Record(Hist h, uint64_t nanos) {
  if (!Enabled()) {
    return;
  }
  internal::HistData& d = internal::g_hists[static_cast<int>(h)];
  d.buckets[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  d.count.fetch_add(1, std::memory_order_relaxed);
  d.sum.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t prev = d.max.load(std::memory_order_relaxed);
  while (nanos > prev &&
         !d.max.compare_exchange_weak(prev, nanos, std::memory_order_relaxed)) {
  }
}

// RAII latency sample: start at construction, Record() at destruction. When
// recording is disabled the clock is never read.
class ScopedLatency {
 public:
  explicit ScopedLatency(Hist h) : hist_(h), armed_(Enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedLatency() {
    if (armed_) {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      Record(hist_, static_cast<uint64_t>(ns));
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Hist hist_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

// Human-readable name ("find", "journal_commit", ...).
std::string_view HistName(Hist h);

// Point-in-time copy of one histogram; percentiles are interpolated from the
// bucket midpoints, so they carry the bucketing's ~12.5% relative error.
struct HistSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  static HistSnapshot Take(Hist h);
  // Value (ns) at quantile q in [0,1]; 0 when the histogram is empty.
  uint64_t Percentile(double q) const;
  uint64_t Mean() const { return count == 0 ? 0 : sum / count; }
};

// Reset every histogram to zero (benchmark setup).
void ResetAll();

// ---------------------------------------------------------------------------
// Minimal JSON emitter shared by DumpMetrics() implementations. Emits compact,
// deterministic JSON (insertion order preserved, keys escaped, doubles with
// fixed precision) — enough for the documented schema, no parser needed.
// ---------------------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view k);
  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  std::string out_;
  bool need_comma_ = false;
};

// Append the standard "counters" and "histograms" JSON objects (used by both
// Osd::DumpMetrics and FileSystem::DumpMetrics so the two documents agree).
void WriteCountersJson(JsonWriter* w);
void WriteHistogramsJson(JsonWriter* w);

}  // namespace metrics
}  // namespace hfad

#endif  // HFAD_SRC_COMMON_METRICS_H_
