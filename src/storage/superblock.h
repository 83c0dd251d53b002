// On-disk volume layout and the superblock that anchors it.
//
// Layout of an hFAD volume on a BlockDevice:
//
//   [0, 4K)                superblock (CRC-protected, written on every Flush)
//   [4K, 4K + alloc_area)  allocator snapshot area (length in superblock)
//   [.., .. + journal)     journal region (fixed size ring)
//   [heap_start, end)      buddy-allocated heap: btree pages, extents, postings
//
// The superblock stores the geometry plus the root pointers of the volume's top-level
// structures (object table, index directory). It is the single source of truth on open.
// The 4 KiB region holds TWO identical CRC-protected 2 KiB slots: a crash can tear the
// superblock write anywhere and still leave one slot intact (fully new or fully old —
// either is recoverable, because the journal's checkpoint epilogue carries the roots).
#ifndef HFAD_SRC_STORAGE_SUPERBLOCK_H_
#define HFAD_SRC_STORAGE_SUPERBLOCK_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace hfad {

struct Superblock {
  static constexpr uint32_t kMagic = 0x68464144;  // "hFAD"
  static constexpr uint32_t kVersion = 3;         // The only version Decode accepts.
  static constexpr uint64_t kSuperblockSize = 4096;
  static constexpr uint64_t kSlotSize = kSuperblockSize / 2;

  uint64_t device_size = 0;
  uint64_t alloc_area_offset = 0;  // Where the allocator snapshot lives.
  uint64_t alloc_area_size = 0;
  uint64_t alloc_snapshot_size = 0;  // Live bytes within the snapshot area.
  uint64_t journal_offset = 0;
  uint64_t journal_size = 0;
  uint64_t heap_offset = 0;   // Buddy region start.
  uint64_t heap_size = 0;     // Buddy region size (power of two).
  uint64_t object_table_root = 0;  // Btree root page offset (0 = empty).
  uint64_t index_dir_root = 0;     // Index-store directory btree root (0 = empty).
  uint64_t next_oid = 1;           // Next unallocated object id.
  uint64_t journal_sequence = 0;   // First journal sequence not yet checkpointed.
  // Checksum region: per-page CRC table persisted at checkpoint. All three fields are
  // 0 on volumes created with page checksums off, which runs them unchecked.
  uint64_t cksum_offset = 0;       // Checksum region start (0 = no region).
  uint64_t cksum_size = 0;         // Checksum region byte size.
  uint64_t cksum_generation = 0;   // Generation the region must carry to be trusted.

  // Serialize to exactly kSuperblockSize bytes with trailing CRC.
  std::string Encode() const;
  // Validate magic/version/CRC and decode, falling back to the replica slot. buf must
  // be kSuperblockSize bytes; any other version, including the retired single-slot v1
  // and checksum-less v2 layouts, is Corruption.
  static Result<Superblock> Decode(const std::string& buf);
};

}  // namespace hfad

#endif  // HFAD_SRC_STORAGE_SUPERBLOCK_H_
