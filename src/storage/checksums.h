// Per-page CRC32C table: the volume's first line of defense against latent
// media corruption (bit rot, misdirected writes, torn sectors that slipped
// past the journal).
//
// Rather than a per-page trailer (which would shrink the usable page payload
// and touch every btree/extent layout), checksums live in a dedicated
// checksum region of the volume: one 64-bit entry per kPageSize page of the
// whole device. The in-memory table is an array of atomics so the pager's
// write-back completion threads can stamp entries while reader threads
// verify, without any lock.
//
// Entry encoding (in memory and on disk):
//   bits  0..31  CRC32C of the page's bytes
//   bit   32     valid — a checksum has been stamped since the last invalidate
//   bit   33     quarantined — scrub confirmed corruption with no clean source;
//                reads must fail loudly until the page is rewritten
//   0            absent — page never stamped (fresh volume, or invalidated by a
//                recovery redo); Verify passes it.
//
// Crash consistency: the table is serialized into the checksum region during
// checkpoint, *before* the superblock commit, and its validity is gated by a
// generation number stored in the (dual-slot, CRC'd) superblock. A crash
// between region write and superblock write leaves a stale generation, the
// table is dropped at Open, and every page degrades to "absent" — unverified
// but never falsely rejected. Journal recovery additionally invalidates the
// entry of every page image it redoes, since those device writes bypass the
// pager's stamping path.
#ifndef HFAD_SRC_STORAGE_CHECKSUMS_H_
#define HFAD_SRC_STORAGE_CHECKSUMS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace hfad {

class PageChecksums {
 public:
  // Covers a device of device_size bytes at page_size granularity.
  PageChecksums(uint64_t device_size, uint64_t page_size);

  uint64_t page_size() const { return page_size_; }
  uint64_t page_count() const { return entries_.size(); }

  // Record the CRC of the page at `offset` (page-aligned) whose full content is
  // `data` (exactly page_size bytes). Clears any quarantine.
  void Stamp(uint64_t offset, Slice data);

  // Gate verification while journal replay rewrites pages whose entries are
  // legitimately stale: a raw overwrite after the last checkpoint changed device
  // bytes under a still-persisted CRC, and its (force-synced) record has not been
  // re-executed yet. Stamping stays active throughout, so by the time replay
  // finishes the table is consistent and verification turns back on.
  void set_verify_enabled(bool on) { verify_enabled_.store(on, std::memory_order_release); }
  bool verify_enabled() const { return verify_enabled_.load(std::memory_order_acquire); }

  // Verify `data` (the full page at page-aligned `offset`) against the stamped
  // CRC. Ok when no checksum is present; Corruption (and kChecksumFailures)
  // on mismatch or when the page is quarantined.
  Status Verify(uint64_t offset, Slice data) const;

  // True iff a checksum is stamped for the page at `offset`.
  bool HasChecksum(uint64_t offset) const;

  // Drop the entry for one page / every page overlapping [offset, offset+len).
  // Used when raw writes partially touch a page and when recovery redoes page
  // images outside the pager.
  void Invalidate(uint64_t offset);
  void InvalidateRange(uint64_t offset, uint64_t len);

  // Mark the page at `offset` as confirmed-corrupt with no clean source.
  void Quarantine(uint64_t offset);
  bool IsQuarantined(uint64_t offset) const;
  // Page-aligned offsets of all quarantined pages (for fsck reporting).
  std::vector<uint64_t> QuarantinedPages() const;

  // Serialize the whole table: header {magic, version, generation, page_count}
  // + entries + trailing masked CRC32C of everything before it.
  std::string Serialize(uint64_t generation) const;
  // Byte size Serialize() produces for a device of device_size bytes.
  static uint64_t SerializedSize(uint64_t device_size, uint64_t page_size);

  // Load a table previously produced by Serialize(). Fails with Corruption on
  // bad magic/CRC and with InvalidArgument when expected_generation does not
  // match the stored one (stale region after a crash mid-checkpoint).
  Status Deserialize(Slice in, uint64_t expected_generation);

 private:
  static constexpr uint64_t kValidBit = 1ull << 32;
  static constexpr uint64_t kQuarantineBit = 1ull << 33;

  uint64_t page_size_;
  std::atomic<bool> verify_enabled_{true};
  std::vector<std::atomic<uint64_t>> entries_;
};

}  // namespace hfad

#endif  // HFAD_SRC_STORAGE_CHECKSUMS_H_
