#include "src/common/stats.h"

namespace hfad {
namespace stats {

void ResetAll() {
  for (auto& a : internal::g_counters) {
    a.store(0, std::memory_order_relaxed);
  }
}

std::string_view CounterName(Counter c) {
  switch (c) {
    case Counter::kIndexTraversals:
      return "index_traversals";
    case Counter::kBtreeNodeVisits:
      return "btree_node_visits";
    case Counter::kPageReads:
      return "page_reads";
    case Counter::kPageWrites:
      return "page_writes";
    case Counter::kPagerHits:
      return "pager_hits";
    case Counter::kLockAcquisitions:
      return "lock_acquisitions";
    case Counter::kLockContentions:
      return "lock_contentions";
    case Counter::kDirComponentsWalked:
      return "dir_components_walked";
    case Counter::kExtentsAllocated:
      return "extents_allocated";
    case Counter::kExtentsFreed:
      return "extents_freed";
    case Counter::kJournalRecords:
      return "journal_records";
    case Counter::kJournalBytes:
      return "journal_bytes";
    case Counter::kJournalCommits:
      return "journal_commits";
    case Counter::kDeviceWriteBatches:
      return "device_write_batches";
    case Counter::kDeviceBatchRuns:
      return "device_batch_runs";
    case Counter::kOsdCloseErrors:
      return "osd_close_errors";
    case Counter::kFulltextDocsIndexed:
      return "fulltext_docs_indexed";
    case Counter::kFulltextTermsPosted:
      return "fulltext_terms_posted";
    case Counter::kChecksumVerifies:
      return "checksum_verifies";
    case Counter::kChecksumFailures:
      return "checksum_failures";
    case Counter::kIoRetries:
      return "io_retries";
    case Counter::kPagerWritebackErrors:
      return "pager_writeback_errors";
    case Counter::kScrubPagesScanned:
      return "scrub_pages_scanned";
    case Counter::kScrubErrorsFound:
      return "scrub_errors_found";
    case Counter::kScrubPagesRepaired:
      return "scrub_pages_repaired";
    case Counter::kScrubPagesQuarantined:
      return "scrub_pages_quarantined";
    case Counter::kCheckpointsInline:
      return "checkpoints_inline";
    case Counter::kCheckpointEpilogueOverflows:
      return "checkpoint_epilogue_overflows";
    case Counter::kExtentMapHits:
      return "extent_map_hits";
    case Counter::kExtentMapMisses:
      return "extent_map_misses";
    case Counter::kRawWriteReadbacks:
      return "raw_write_readbacks";
    case Counter::kRawCacheHits:
      return "raw_cache_hits";
    case Counter::kRawCacheMisses:
      return "raw_cache_misses";
    case Counter::kNumCounters:
      break;
  }
  return "unknown";
}

Snapshot Snapshot::Take() {
  Snapshot s;
  for (int i = 0; i < kNumCounters; i++) {
    s.values[i] = internal::g_counters[i].load(std::memory_order_relaxed);
  }
  return s;
}

Snapshot Snapshot::Delta(const Snapshot& earlier) const {
  Snapshot d;
  for (int i = 0; i < kNumCounters; i++) {
    d.values[i] = values[i] - earlier.values[i];
  }
  return d;
}

std::string Snapshot::ToString() const {
  std::string out;
  for (int i = 0; i < kNumCounters; i++) {
    if (values[i] == 0) {
      continue;
    }
    if (!out.empty()) {
      out += " ";
    }
    out += CounterName(static_cast<Counter>(i));
    out += "=";
    out += std::to_string(values[i]);
  }
  return out.empty() ? "(all zero)" : out;
}

}  // namespace stats
}  // namespace hfad
