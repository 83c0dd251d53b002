// Online scrub: walk every checksummed page of the volume against live traffic,
// verify device content against the per-page CRC table, and repair or quarantine
// what mismatches.
//
// Repair never copies page bytes itself — that would race content mutators
// (btree writers own their pages' content locks, which the scrubber cannot
// take). Instead, when a corrupt device page still has a cached copy, the
// scrubber marks that page dirty: the next checkpoint rewrites the device from
// the cache under full exclusion and restamps the CRC. Under the no-steal
// discipline a cached clean page IS the last checkpoint's content, so this
// restores exactly the bytes the journal expects to replay onto. A corrupt page
// with no cached copy has no clean source (the device copy was the only one);
// it is quarantined — every subsequent read fails loudly with Corruption until
// a rewrite restamps it — and reported through fsck.
//
// Pacing: a background pass verifies 256 pages at a time, holding the pager's shared
// mutation hold per page (flush_mu_ shared -> stripe lock, the established order; see
// docs/CONCURRENCY.md), then sleeps 500 us, so it bounds its drag on checkpoints and
// foreground IO.
#ifndef HFAD_SRC_OSD_SCRUBBER_H_
#define HFAD_SRC_OSD_SCRUBBER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/storage/block_device.h"
#include "src/storage/checksums.h"
#include "src/storage/pager.h"
#include "src/storage/volume_health.h"

namespace hfad {
namespace osd {

struct ScrubReport {
  uint64_t pages_scanned = 0;      // Checksummed pages read and verified.
  uint64_t errors_found = 0;       // CRC mismatches confirmed by a second read.
  uint64_t pages_repaired = 0;     // Re-dirtied from a cached copy (rewritten by
                                   // the next checkpoint).
  uint64_t pages_quarantined = 0;  // No clean source; reads now fail loudly.
  uint64_t io_errors = 0;          // Device reads that failed past the retry policy.
};

class Scrubber {
 public:
  struct Options {
    uint64_t device_size = 0;
    uint64_t interval_ms = 0;        // 0: no background thread.
    RetryPolicy retry;               // For the device reads.
  };

  Scrubber(BlockDevice* device, Pager* pager, PageChecksums* checksums,
           VolumeHealth* health, Options options);
  ~Scrubber();  // Stops the background thread.

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // Called after a pass that repaired pages, outside all scrubber locks. The
  // OSD wires this to RequestCheckpoint so repairs reach the device promptly.
  void SetRepairKick(std::function<void()> kick);

  // Start the background thread (no-op when interval_ms == 0).
  void Start();
  // Stop and join the background thread. Idempotent.
  void Stop();

  // One full synchronous pass, unpaced. Safe concurrently with live traffic
  // and with the background thread (passes are serialized by pass_mu_).
  Status ScrubPass(ScrubReport* report);

  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  ScrubReport last_report() const;

 private:
  Status RunPass(ScrubReport* report, bool paced);
  // Verify one page; counts into *report. Never fails the pass — read faults
  // and corruption are recorded, escalated, and the walk continues.
  void ScrubPage(uint64_t offset, ScrubReport* report);
  void BackgroundMain();

  BlockDevice* const device_;
  Pager* const pager_;
  PageChecksums* const checksums_;
  VolumeHealth* const health_;
  const Options options_;

  std::function<void()> repair_kick_;

  std::mutex pass_mu_;  // Serializes passes (manual vs. background).
  std::atomic<uint64_t> passes_{0};
  mutable std::mutex report_mu_;
  ScrubReport last_report_;

  std::thread thread_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_shutdown_ = false;
  bool bg_started_ = false;
};

}  // namespace osd
}  // namespace hfad

#endif  // HFAD_SRC_OSD_SCRUBBER_H_
