#include "src/osd/scrubber.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/common/stats.h"

namespace hfad {
namespace osd {

namespace {

// Background-pass pacing against live traffic: verify this many pages, then sleep.
constexpr size_t kPagesPerBatch = 256;
constexpr auto kBatchPause = std::chrono::microseconds(500);

}  // namespace

Scrubber::Scrubber(BlockDevice* device, Pager* pager, PageChecksums* checksums,
                   VolumeHealth* health, Options options)
    : device_(device),
      pager_(pager),
      checksums_(checksums),
      health_(health),
      options_(std::move(options)) {}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::SetRepairKick(std::function<void()> kick) {
  std::lock_guard<std::mutex> lock(pass_mu_);
  repair_kick_ = std::move(kick);
}

void Scrubber::Start() {
  if (options_.interval_ms == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (bg_started_) {
    return;
  }
  bg_started_ = true;
  bg_shutdown_ = false;
  thread_ = std::thread([this] { BackgroundMain(); });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_started_) {
      return;
    }
    bg_shutdown_ = true;
  }
  bg_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> lock(bg_mu_);
  bg_started_ = false;
}

Status Scrubber::ScrubPass(ScrubReport* report) { return RunPass(report, /*paced=*/false); }

Status Scrubber::RunPass(ScrubReport* report, bool paced) {
  ScrubReport local;
  bool repaired_any = false;
  std::function<void()> kick;
  {
    std::lock_guard<std::mutex> lock(pass_mu_);
    kick = repair_kick_;
    size_t in_batch = 0;
    for (uint64_t offset = 0; offset + kPageSize <= options_.device_size;
         offset += kPageSize) {
      if (!health_->readable()) {
        break;  // Volume failed underneath us; nothing left to protect.
      }
      if (paced) {
        std::lock_guard<std::mutex> bg(bg_mu_);
        if (bg_shutdown_) {
          break;
        }
      }
      if (!checksums_->HasChecksum(offset)) {
        continue;  // Unstamped or quarantined: nothing to verify.
      }
      ScrubPage(offset, &local);
      if (paced && ++in_batch >= kPagesPerBatch) {
        in_batch = 0;
        std::this_thread::sleep_for(kBatchPause);
      }
    }
    repaired_any = local.pages_repaired > 0;
    passes_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = local;
  }
  if (report != nullptr) {
    *report = local;
  }
  if (repaired_any && kick) {
    kick();  // Outside pass_mu_: the kick may wake a checkpoint synchronously.
  }
  return Status::Ok();
}

void Scrubber::ScrubPage(uint64_t offset, ScrubReport* report) {
  // flush_mu_ shared for the whole page: a concurrent Flush cannot be mid-way
  // between writing new content and stamping its CRC while we read the device.
  auto hold = pager_->SharedMutationHold();
  std::string buf;
  Status rs = options_.retry.RunWithRetry(
      [&] { return device_->Read(offset, kPageSize, &buf); });
  if (!rs.ok()) {
    report->io_errors++;
    if (options_.retry.IsTransient(rs)) {
      health_->Escalate(HealthState::kDegraded,
                        "scrub: persistent read failure at " + std::to_string(offset));
    }
    return;
  }
  report->pages_scanned++;
  stats::Add(stats::Counter::kScrubPagesScanned);
  if (checksums_->Verify(offset, Slice(buf)).ok()) {
    return;
  }
  // Confirm with a second read before acting: a transient controller misread
  // must not quarantine a healthy page.
  std::string again;
  Status rs2 = options_.retry.RunWithRetry(
      [&] { return device_->Read(offset, kPageSize, &again); });
  if (rs2.ok() && checksums_->Verify(offset, Slice(again)).ok()) {
    return;
  }
  report->errors_found++;
  stats::Add(stats::Counter::kScrubErrorsFound);
  if (PageRef page = pager_->Peek(offset)) {
    // A cached copy exists. A metadata page's is, under no-steal, the last
    // checkpoint's content (or newer, if dirty); a data page's is what the last raw
    // write put on the device (Pager::WriteFresh leaves it resident). Re-dirty it so
    // the next checkpoint rewrites the device from the cache and restamps — no
    // content bytes are read here, so this cannot race the structure that owns the
    // page.
    page->MarkDirty();
    report->pages_repaired++;
    stats::Add(stats::Counter::kScrubPagesRepaired);
    health_->Escalate(HealthState::kDegraded,
                      "scrub: corrupt device page at " + std::to_string(offset) +
                          " (repairing from cache)");
    return;
  }
  checksums_->Quarantine(offset);
  report->pages_quarantined++;
  stats::Add(stats::Counter::kScrubPagesQuarantined);
  health_->Escalate(HealthState::kDegraded,
                    "scrub: unrepairable corrupt page at " + std::to_string(offset));
}

void Scrubber::BackgroundMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [&] { return bg_shutdown_; });
      if (bg_shutdown_) {
        return;
      }
    }
    RunPass(nullptr, /*paced=*/true);
  }
}

}  // namespace osd
}  // namespace hfad
