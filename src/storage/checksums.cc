#include "src/storage/checksums.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/coding.h"
#include "src/common/crc32.h"
#include "src/common/stats.h"

namespace hfad {

namespace {
constexpr uint32_t kChecksumMagic = 0x484b5343;  // "HKSC"
// Version 2 added covered lengths; version 1 tables still load (see checksums.h).
constexpr uint32_t kChecksumVersion = 2;
constexpr uint32_t kChecksumVersionNoCoveredLength = 1;
// magic + version + generation + page_count.
constexpr uint64_t kHeaderSize = 4 + 4 + 8 + 8;
}  // namespace

PageChecksums::PageChecksums(uint64_t device_size, uint64_t page_size)
    : page_size_(page_size),
      entries_((device_size + page_size - 1) / page_size) {
  assert(page_size > 0 && page_size - 1 <= kCoveredMask);
}

void PageChecksums::Stamp(uint64_t offset, Slice data) {
  uint64_t idx = offset / page_size_;
  if (idx >= entries_.size()) {
    return;
  }
  if (data.empty()) {
    entries_[idx].store(0, std::memory_order_release);
    return;
  }
  const size_t n = static_cast<size_t>(std::min<uint64_t>(data.size(), page_size_));
  const uint64_t covered = n < page_size_ ? n : 0;
  uint64_t entry = kValidBit | (covered << kCoveredShift) | Crc32c(Slice(data.data(), n));
  entries_[idx].store(entry, std::memory_order_release);
}

Status PageChecksums::Verify(uint64_t offset, Slice data) const {
  uint64_t idx = offset / page_size_;
  if (idx >= entries_.size() || !verify_enabled()) {
    return Status::Ok();
  }
  uint64_t entry = entries_[idx].load(std::memory_order_acquire);
  if (entry & kQuarantineBit) {
    stats::Add(stats::Counter::kChecksumFailures);
    return Status::Corruption("page at offset " + std::to_string(offset) +
                              " is quarantined (scrub-confirmed corruption)");
  }
  if (!(entry & kValidBit)) {
    return Status::Ok();
  }
  stats::Add(stats::Counter::kChecksumVerifies);
  const uint64_t covered = (entry >> kCoveredShift) & kCoveredMask;
  const uint64_t n = covered != 0 ? covered : page_size_;
  uint32_t expect = static_cast<uint32_t>(entry);
  if (n > data.size() || Crc32c(Slice(data.data(), static_cast<size_t>(n))) != expect) {
    stats::Add(stats::Counter::kChecksumFailures);
    return Status::Corruption("page checksum mismatch at offset " + std::to_string(offset));
  }
  return Status::Ok();
}

bool PageChecksums::HasChecksum(uint64_t offset) const {
  uint64_t idx = offset / page_size_;
  return idx < entries_.size() &&
         (entries_[idx].load(std::memory_order_acquire) & kValidBit) != 0;
}

size_t PageChecksums::CoveredLength(uint64_t offset) const {
  uint64_t idx = offset / page_size_;
  if (idx >= entries_.size()) {
    return 0;
  }
  uint64_t entry = entries_[idx].load(std::memory_order_acquire);
  if (!(entry & kValidBit)) {
    return 0;
  }
  const uint64_t covered = (entry >> kCoveredShift) & kCoveredMask;
  return static_cast<size_t>(covered != 0 ? covered : page_size_);
}

void PageChecksums::Invalidate(uint64_t offset) {
  uint64_t idx = offset / page_size_;
  if (idx < entries_.size()) {
    entries_[idx].store(0, std::memory_order_release);
  }
}

void PageChecksums::InvalidateRange(uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  uint64_t first = offset / page_size_;
  uint64_t last = (offset + len - 1) / page_size_;
  for (uint64_t idx = first; idx <= last && idx < entries_.size(); idx++) {
    entries_[idx].store(0, std::memory_order_release);
  }
}

void PageChecksums::Quarantine(uint64_t offset) {
  uint64_t idx = offset / page_size_;
  if (idx < entries_.size()) {
    entries_[idx].store(kQuarantineBit, std::memory_order_release);
  }
}

bool PageChecksums::IsQuarantined(uint64_t offset) const {
  uint64_t idx = offset / page_size_;
  return idx < entries_.size() &&
         (entries_[idx].load(std::memory_order_acquire) & kQuarantineBit) != 0;
}

std::vector<uint64_t> PageChecksums::QuarantinedPages() const {
  std::vector<uint64_t> out;
  for (uint64_t idx = 0; idx < entries_.size(); idx++) {
    if (entries_[idx].load(std::memory_order_acquire) & kQuarantineBit) {
      out.push_back(idx * page_size_);
    }
  }
  return out;
}

std::string PageChecksums::Serialize(uint64_t generation) const {
  std::string out;
  out.reserve(kHeaderSize + entries_.size() * 8 + 4);
  PutFixed32(&out, kChecksumMagic);
  PutFixed32(&out, kChecksumVersion);
  PutFixed64(&out, generation);
  PutFixed64(&out, entries_.size());
  for (const auto& e : entries_) {
    // Quarantine is runtime state rediscovered by the next scrub; persist the
    // page as plain-invalid so a rewrite after restart starts clean.
    uint64_t v = e.load(std::memory_order_acquire);
    PutFixed64(&out, (v & kQuarantineBit) ? 0 : v);
  }
  PutFixed32(&out, MaskCrc(Crc32c(Slice(out))));
  return out;
}

uint64_t PageChecksums::SerializedSize(uint64_t device_size, uint64_t page_size) {
  uint64_t pages = (device_size + page_size - 1) / page_size;
  return kHeaderSize + pages * 8 + 4;
}

Status PageChecksums::Deserialize(Slice in, uint64_t expected_generation) {
  if (in.size() < kHeaderSize + 4) {
    return Status::Corruption("checksum region truncated");
  }
  Slice body(in.data(), in.size() - 4);
  uint32_t stored_crc =
      UnmaskCrc(DecodeFixed32(reinterpret_cast<const uint8_t*>(in.data() + in.size() - 4)));
  if (Crc32c(body) != stored_crc) {
    return Status::Corruption("checksum region CRC mismatch");
  }
  Slice cursor = body;
  uint32_t magic, version;
  uint64_t generation, page_count;
  if (!GetFixed32(&cursor, &magic) || !GetFixed32(&cursor, &version) ||
      !GetFixed64(&cursor, &generation) || !GetFixed64(&cursor, &page_count)) {
    return Status::Corruption("checksum region header truncated");
  }
  if (magic != kChecksumMagic ||
      (version != kChecksumVersion && version != kChecksumVersionNoCoveredLength)) {
    return Status::Corruption("checksum region bad magic/version");
  }
  if (generation != expected_generation) {
    return Status::InvalidArgument("checksum region generation " + std::to_string(generation) +
                                   " != superblock generation " +
                                   std::to_string(expected_generation));
  }
  if (page_count != entries_.size() || cursor.size() != page_count * 8) {
    return Status::Corruption("checksum region page count mismatch");
  }
  auto entry_at = [&](uint64_t i) {
    return DecodeFixed64(reinterpret_cast<const uint8_t*>(cursor.data() + i * 8));
  };
  if (version == kChecksumVersion) {
    // Only bits 0..46 are defined, and a covered length names a proper prefix.
    constexpr uint64_t kDefinedBits = ((kCoveredMask + 1) << kCoveredShift) - 1;
    for (uint64_t i = 0; i < page_count; i++) {
      const uint64_t e = entry_at(i);
      if ((e & ~kDefinedBits) != 0 || ((e >> kCoveredShift) & kCoveredMask) >= page_size_) {
        return Status::Corruption("checksum region entry " + std::to_string(i) +
                                  " is malformed");
      }
    }
  }
  for (uint64_t i = 0; i < page_count; i++) {
    entries_[i].store(entry_at(i), std::memory_order_release);
  }
  return Status::Ok();
}

}  // namespace hfad
