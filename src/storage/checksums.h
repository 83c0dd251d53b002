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
//   bits  0..31  CRC32C of the covered bytes
//   bit   32     valid — a checksum has been stamped since the last invalidate
//   bit   33     quarantined — scrub confirmed corruption with no clean source;
//                reads must fail loudly until the page is rewritten
//   bits 34..46  covered length: how many leading bytes of the page the CRC covers,
//                1..page_size-1; 0 means the whole page. A raw write into a freshly
//                allocated block stamps its partly written last page over the written
//                prefix only (Pager::WriteFresh), so the bytes past it, which no extent
//                owns, are neither read back nor verified.
//   bits 47..63  zero
//   0            absent — page never stamped (fresh volume, or invalidated by a
//                recovery redo); Verify passes it.
//
// On-disk versions: version 2 tables may hold covered lengths; version 1 tables (which
// never set bits 34..46) load unchanged, every entry covering its whole page. A binary
// that knows only version 1 rejects a version-2 table as it rejects any unreadable
// region: it drops the table, and every page reads as absent until its next stamp.
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

  // Record the CRC of the page at `offset` (page-aligned) whose leading bytes are
  // `data`: a whole page (page_size bytes) or a prefix of 1..page_size-1 bytes, of which
  // the entry records the length. Clears any quarantine. An empty `data` leaves the page
  // absent.
  void Stamp(uint64_t offset, Slice data);

  // Gate verification while journal replay rewrites pages whose entries are
  // legitimately stale: a raw overwrite after the last checkpoint changed device
  // bytes under a still-persisted CRC, and its (force-synced) record has not been
  // re-executed yet. Stamping stays active throughout, so by the time replay
  // finishes the table is consistent and verification turns back on.
  void set_verify_enabled(bool on) { verify_enabled_.store(on, std::memory_order_release); }
  bool verify_enabled() const { return verify_enabled_.load(std::memory_order_acquire); }

  // Verify `data` (the full page at page-aligned `offset`) against the stamped
  // CRC, over exactly the bytes the stamp covers: the whole page, or its stamped
  // prefix. Ok when no checksum is present; Corruption (and kChecksumFailures)
  // on mismatch or when the page is quarantined.
  Status Verify(uint64_t offset, Slice data) const;

  // True iff a checksum is stamped for the page at `offset`.
  bool HasChecksum(uint64_t offset) const;

  // How many leading bytes of the page at `offset` its checksum covers: page_size() for
  // a whole-page stamp, 0 when none is stamped (absent or quarantined).
  size_t CoveredLength(uint64_t offset) const;

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

  // Load a table previously produced by Serialize(), of version 1 or 2. Fails with
  // Corruption on bad magic/version/CRC or a malformed entry, and with InvalidArgument
  // when expected_generation does not match the stored one (stale region after a crash
  // mid-checkpoint). A failed load leaves the table as it was.
  Status Deserialize(Slice in, uint64_t expected_generation);

 private:
  static constexpr uint64_t kValidBit = 1ull << 32;
  static constexpr uint64_t kQuarantineBit = 1ull << 33;
  static constexpr int kCoveredShift = 34;
  static constexpr uint64_t kCoveredMask = (1ull << 13) - 1;  // Bits 34..46.

  uint64_t page_size_;
  std::atomic<bool> verify_enabled_{true};
  std::vector<std::atomic<uint64_t>> entries_;
};

}  // namespace hfad

#endif  // HFAD_SRC_STORAGE_CHECKSUMS_H_
