// Global instrumentation counters behind the paper's Section 2.3 experiment.
//
// The paper's central quantitative claim is a count: "at a minimum, we encountered four index
// traversals" between a search term and a data block in a hierarchical system. These counters
// let the benchmarks report *index traversals*, *page IOs*, and *lock acquisitions* directly
// instead of inferring them from wall-clock time.
//
// Counters are process-global, thread-safe (relaxed atomics), and cheap enough to stay enabled
// in release builds. Benchmarks snapshot-and-subtract around a measured region.
#ifndef HFAD_SRC_COMMON_STATS_H_
#define HFAD_SRC_COMMON_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace hfad {
namespace stats {

enum class Counter : int {
  kIndexTraversals = 0,  // One complete descent of any index structure (btree, dir, postings).
  kBtreeNodeVisits,      // Individual btree node inspections.
  kPageReads,            // Pager cache misses that hit the device.
  kPageWrites,           // Dirty page write-backs.
  kPagerHits,            // Pager cache hits.
  kLockAcquisitions,     // Directory/structure lock acquisitions.
  kLockContentions,      // Lock acquisitions that had to wait.
  kDirComponentsWalked,  // Path components resolved by hierarchical lookup.
  kExtentsAllocated,
  kExtentsFreed,
  kJournalRecords,
  kJournalBytes,
  kJournalCommits,       // Group-commit batches made durable (one Write+Sync each).
  kDeviceWriteBatches,   // WriteBatch calls served.
  kDeviceBatchRuns,      // Coalesced device writes those batches decomposed into.
  kOsdCloseErrors,       // Osd destructors whose final checkpoint failed.
  kFulltextDocsIndexed,
  kFulltextTermsPosted,
  kChecksumVerifies,       // Page checksum comparisons performed (read path + scrub).
  kChecksumFailures,       // Comparisons that mismatched: latent corruption detected.
  kIoRetries,              // Transient device errors retried by a RetryPolicy.
  kPagerWritebackErrors,   // Eviction write-back batches that failed.
  kScrubPagesScanned,      // Pages a scrub pass verified against the device.
  kScrubErrorsFound,       // Scrub-detected checksum mismatches.
  kScrubPagesRepaired,     // Mismatched pages rewritten from a clean cached copy.
  kScrubPagesQuarantined,  // Mismatched pages with no clean source; reads now fail loudly.
  kCheckpointsInline,      // Checkpoints run on an op's own thread (journal-space backstop,
                           // ops too large to journal) rather than the checkpointer's.
  kCheckpointEpilogueOverflows,  // Checkpoints whose epilogue did not fit the journal: a
                                 // journal-credit accounting bug, never appended.
  kExtentMapHits,    // Osd reads served from a cached small-object extent map.
  kExtentMapMisses,  // Osd reads that looked the map up and went to the object table.
  kRawWriteReadbacks,  // Device reads Pager::WriteRaw made to stamp a partly written page.
  kRawCacheHits,       // Pager::ReadRaw calls copied from resident pages.
  kRawCacheMisses,     // Pager::ReadRaw calls that read the device.
  kNumCounters,  // Sentinel.
};

constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);

namespace internal {
// Constant-initialized (no magic-static guard), so the hot-path Add() inlines to a
// single relaxed fetch_add.
inline std::array<std::atomic<uint64_t>, kNumCounters> g_counters{};
}  // namespace internal

// Increment a counter by delta.
inline void Add(Counter c, uint64_t delta = 1) {
  internal::g_counters[static_cast<int>(c)].fetch_add(delta, std::memory_order_relaxed);
}

// Current value.
inline uint64_t Get(Counter c) {
  return internal::g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

// Reset every counter to zero (benchmark setup).
void ResetAll();

// Human-readable name ("index_traversals", ...).
std::string_view CounterName(Counter c);

// A point-in-time copy of all counters; Delta() gives per-region costs.
struct Snapshot {
  uint64_t values[kNumCounters] = {};

  static Snapshot Take();
  // this - earlier, element-wise.
  Snapshot Delta(const Snapshot& earlier) const;
  uint64_t operator[](Counter c) const { return values[static_cast<int>(c)]; }
  std::string ToString() const;
};

}  // namespace stats
}  // namespace hfad

#endif  // HFAD_SRC_COMMON_STATS_H_
