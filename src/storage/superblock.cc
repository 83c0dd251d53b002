#include "src/storage/superblock.h"

#include "src/common/coding.h"
#include "src/common/crc32.h"

namespace hfad {

namespace {

// Serialize one CRC-protected slot of kSlotSize bytes.
std::string EncodeSlot(const Superblock& sb) {
  std::string out;
  out.reserve(Superblock::kSlotSize);
  PutFixed32(&out, Superblock::kMagic);
  PutFixed32(&out, Superblock::kVersion);
  PutFixed64(&out, sb.device_size);
  PutFixed64(&out, sb.alloc_area_offset);
  PutFixed64(&out, sb.alloc_area_size);
  PutFixed64(&out, sb.alloc_snapshot_size);
  PutFixed64(&out, sb.journal_offset);
  PutFixed64(&out, sb.journal_size);
  PutFixed64(&out, sb.heap_offset);
  PutFixed64(&out, sb.heap_size);
  PutFixed64(&out, sb.object_table_root);
  PutFixed64(&out, sb.index_dir_root);
  PutFixed64(&out, sb.next_oid);
  PutFixed64(&out, sb.journal_sequence);
  PutFixed64(&out, sb.cksum_offset);
  PutFixed64(&out, sb.cksum_size);
  PutFixed64(&out, sb.cksum_generation);
  out.resize(Superblock::kSlotSize - 4, 0);
  uint32_t crc = MaskCrc(Crc32c(Slice(out)));
  PutFixed32(&out, crc);
  return out;
}

Result<Superblock> DecodeSlot(const char* data) {
  uint32_t stored_crc = DecodeFixed32(
      reinterpret_cast<const uint8_t*>(data + Superblock::kSlotSize - 4));
  uint32_t actual = Crc32c(Slice(data, Superblock::kSlotSize - 4));
  if (UnmaskCrc(stored_crc) != actual) {
    return Status::Corruption("superblock: CRC mismatch");
  }
  Slice in(data, Superblock::kSlotSize);
  Superblock sb;
  uint32_t magic, version;
  if (!GetFixed32(&in, &magic) || magic != Superblock::kMagic) {
    return Status::Corruption("superblock: bad magic");
  }
  if (!GetFixed32(&in, &version) || version != Superblock::kVersion) {
    return Status::Corruption("superblock: unsupported version");
  }
  bool ok = GetFixed64(&in, &sb.device_size) && GetFixed64(&in, &sb.alloc_area_offset) &&
            GetFixed64(&in, &sb.alloc_area_size) && GetFixed64(&in, &sb.alloc_snapshot_size) &&
            GetFixed64(&in, &sb.journal_offset) && GetFixed64(&in, &sb.journal_size) &&
            GetFixed64(&in, &sb.heap_offset) && GetFixed64(&in, &sb.heap_size) &&
            GetFixed64(&in, &sb.object_table_root) && GetFixed64(&in, &sb.index_dir_root) &&
            GetFixed64(&in, &sb.next_oid) && GetFixed64(&in, &sb.journal_sequence) &&
            GetFixed64(&in, &sb.cksum_offset) && GetFixed64(&in, &sb.cksum_size) &&
            GetFixed64(&in, &sb.cksum_generation);
  if (!ok) {
    return Status::Corruption("superblock: truncated");
  }
  return sb;
}

}  // namespace

std::string Superblock::Encode() const {
  // Two identical slots. A torn superblock write persists a prefix: whatever the tear
  // position, at least one slot is either fully new or fully old, and either one
  // describes a volume the journal can recover.
  std::string slot = EncodeSlot(*this);
  std::string out = slot;
  out += slot;
  return out;
}

Result<Superblock> Superblock::Decode(const std::string& buf) {
  if (buf.size() != kSuperblockSize) {
    return Status::Corruption("superblock: wrong size " + std::to_string(buf.size()));
  }
  auto primary = DecodeSlot(buf.data());
  if (primary.ok()) {
    return primary;
  }
  auto replica = DecodeSlot(buf.data() + kSlotSize);
  if (replica.ok()) {
    return replica;
  }
  return primary.status();  // Report the primary slot's failure.
}

}  // namespace hfad
