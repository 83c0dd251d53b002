#include "src/extent/extent_tree.h"

#include <cassert>
#include <cstring>
#include <optional>
#include <vector>

#include "src/common/coding.h"
#include "src/common/stats.h"

namespace hfad {
namespace extent {
namespace {

// Page layout (shared by leaf and interior pages):
//   [0]      u8  page type (kExtentLeaf / kExtentInterior)
//   [1..23]  unused header space (count at [2..3])
//   [24..]   entries, 16 bytes each:
//              leaf:     u64 device offset | u64 byte length
//              interior: u64 child page    | u64 subtree byte total
//
// There are deliberately no sibling links: ranges are resolved by recursive descent, so
// freeing a drained middle leaf can never leave a dangling chain pointer.
constexpr uint8_t kExtentLeaf = 3;
constexpr uint8_t kExtentInterior = 4;
constexpr size_t kHdrSize = 24;
constexpr size_t kEntrySize = 16;
constexpr int kMaxEntries = static_cast<int>((kPageSize - kHdrSize) / kEntrySize);  // 254

struct Entry {
  uint64_t a = 0;  // Leaf: device offset.  Interior: child page.
  uint64_t b = 0;  // Leaf: byte length.    Interior: subtree byte total.
};

uint8_t PageType(const Page& p) { return p.data()[0]; }
void SetPageType(Page& p, uint8_t t) { p.data()[0] = t; }
uint16_t Count(const Page& p) { return DecodeFixed16(p.data() + 2); }
void SetCount(Page& p, uint16_t n) { EncodeFixed16(p.data() + 2, n); }

Entry GetEntry(const Page& p, int i) {
  Entry e;
  e.a = DecodeFixed64(p.data() + kHdrSize + kEntrySize * i);
  e.b = DecodeFixed64(p.data() + kHdrSize + kEntrySize * i + 8);
  return e;
}

void SetEntry(Page& p, int i, const Entry& e) {
  EncodeFixed64(p.data() + kHdrSize + kEntrySize * i, e.a);
  EncodeFixed64(p.data() + kHdrSize + kEntrySize * i + 8, e.b);
  p.MarkDirty();
}

// Insert entry at index i, shifting [i, n) right. Caller checks capacity.
void InsertEntryAt(Page& p, int i, const Entry& e) {
  uint16_t n = Count(p);
  memmove(p.data() + kHdrSize + kEntrySize * (i + 1), p.data() + kHdrSize + kEntrySize * i,
          kEntrySize * (n - i));
  SetEntry(p, i, e);
  SetCount(p, n + 1);
  p.MarkDirty();
}

void RemoveEntryAt(Page& p, int i) {
  uint16_t n = Count(p);
  memmove(p.data() + kHdrSize + kEntrySize * i, p.data() + kHdrSize + kEntrySize * (i + 1),
          kEntrySize * (n - i - 1));
  SetCount(p, n - 1);
  p.MarkDirty();
}

// Sum of entry byte totals (leaf lengths or interior subtree sizes).
uint64_t SumBytes(const Page& p) {
  uint64_t total = 0;
  uint16_t n = Count(p);
  for (int i = 0; i < n; i++) {
    total += GetEntry(p, i).b;
  }
  return total;
}

void InitPage(Page& p, uint8_t type) {
  memset(p.data(), 0, kPageSize);
  SetPageType(p, type);
  p.MarkDirty();
}

// The length of a read of up to n bytes at offset from an object of `size` bytes: short
// at the end, OutOfRange past it.
Result<uint64_t> ReadLength(uint64_t offset, size_t n, uint64_t size) {
  if (offset > size) {
    return Status::OutOfRange("read at " + std::to_string(offset) + " beyond size " +
                              std::to_string(size));
  }
  return std::min<uint64_t>(n, size - offset);
}

// Append the bytes of `pieces`, in order, one raw read each.
Status ReadPieces(const Pager* pager, const std::vector<Extent>& pieces, std::string* out) {
  std::string buf;
  for (const Extent& piece : pieces) {
    HFAD_RETURN_IF_ERROR(
        pager->ReadRaw(piece.device_offset, static_cast<size_t>(piece.length), &buf));
    out->append(buf);
  }
  return Status::Ok();
}

}  // namespace

Status ReadMapped(const Pager* pager, const Extent* map, size_t count, uint64_t offset,
                  size_t n, std::string* out) {
  out->clear();
  uint64_t size = 0;
  for (size_t i = 0; i < count; i++) {
    size += map[i].length;
  }
  HFAD_ASSIGN_OR_RETURN(uint64_t want, ReadLength(offset, n, size));
  std::vector<Extent> pieces;
  uint64_t lo = 0;  // Logical offset of map[i].
  for (size_t i = 0; i < count && want > 0; i++) {
    const uint64_t hi = lo + map[i].length;
    if (hi > offset) {
      const uint64_t skip = offset - lo;  // 0 past the first piece.
      const uint64_t len = std::min(map[i].length - skip, want);
      pieces.push_back(Extent{map[i].device_offset + skip, len});
      offset += len;
      want -= len;
    }
    lo = hi;
  }
  return ReadPieces(pager, pieces, out);
}

class ExtentTree::Impl {
 public:
  Impl(Pager* pager, BuddyAllocator* alloc, uint64_t root)
      : pager_(pager), alloc_(alloc), root_(root) {
    if (root_ != 0) {
      auto page = pager_->Get(root_);
      if (page.ok()) {
        size_ = SumBytes(**page);
      } else {
        // An unreadable root (IO fault, checksum rejection) must not masquerade
        // as an empty tree: size_ = 0 would turn every read into a silent
        // zero-byte success. Park the error and surface it from every op.
        root_status_ = page.status();
      }
    }
  }

  uint64_t root() const { return root_; }
  uint64_t Size() const { return size_; }

  Status Read(uint64_t offset, size_t n, std::string* out) const {
    HFAD_RETURN_IF_ERROR(root_status_);
    out->clear();
    HFAD_ASSIGN_OR_RETURN(uint64_t want, ReadLength(offset, n, size_));
    if (want == 0) {
      return Status::Ok();
    }
    stats::Add(stats::Counter::kIndexTraversals);
    std::vector<Extent> pieces;
    HFAD_RETURN_IF_ERROR(CollectPieces(root_, offset, want, &pieces));
    return ReadPieces(pager_, pieces, out);
  }

  Status Write(uint64_t offset, Slice data) {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (offset > size_) {
      return Status::OutOfRange("write at " + std::to_string(offset) + " beyond size " +
                                std::to_string(size_));
    }
    if (data.empty()) {
      return Status::Ok();
    }
    // Overwrite the covered part in place, then append whatever extends past the end.
    uint64_t covered = std::min<uint64_t>(data.size(), size_ - offset);
    if (covered > 0) {
      std::vector<Extent> pieces;
      HFAD_RETURN_IF_ERROR(CollectPieces(root_, offset, covered, &pieces));
      uint64_t done = 0;
      for (const Extent& piece : pieces) {
        HFAD_RETURN_IF_ERROR(pager_->WriteRaw(
            piece.device_offset, Slice(data.data() + done, piece.length)));
        done += piece.length;
      }
    }
    if (covered < data.size()) {
      HFAD_RETURN_IF_ERROR(
          Insert(size_, Slice(data.data() + covered, data.size() - covered)));
    }
    return Status::Ok();
  }

  Status Insert(uint64_t offset, Slice data) {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (offset > size_) {
      return Status::OutOfRange("insert at " + std::to_string(offset) + " beyond size " +
                                std::to_string(size_));
    }
    if (data.empty()) {
      return Status::Ok();
    }
    stats::Add(stats::Counter::kIndexTraversals);
    const bool was_empty = root_ == 0;
    if (was_empty) {
      HFAD_ASSIGN_OR_RETURN(root_, NewPage(kExtentLeaf));
    }
    Status s = SpliceIn(offset, data);
    if (!s.ok() && was_empty && size_ == 0) {
      // Nothing was spliced in, and the failed op stores no record that could reference
      // the fresh root: give it back with the extents.
      (void)FreePage(root_);
      root_ = 0;
    }
    return s;
  }

  Status RemoveRange(uint64_t offset, uint64_t length) {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (offset > size_ || length > size_ - offset) {
      return Status::OutOfRange("remove [" + std::to_string(offset) + ", +" +
                                std::to_string(length) + ") beyond size " +
                                std::to_string(size_));
    }
    if (length == 0) {
      return Status::Ok();
    }
    stats::Add(stats::Counter::kIndexTraversals);
    // Split only at the end: the surviving tail moves to a fresh extent. The extent
    // holding `offset` is then cut in place, and the whole extents after it up to the
    // end boundary are dropped, so no removed byte is read or written.
    HFAD_RETURN_IF_ERROR(SpliceIn(offset + length, Slice()));
    uint64_t whole = length;
    if (offset > 0) {
      HFAD_ASSIGN_OR_RETURN(LeafSlot slot, FindLeafEntry(offset));
      if (slot.rel > 0) {
        whole -= ShrinkInPlace(slot);
      }
    }
    if (whole > 0) {
      uint64_t removed = 0;
      HFAD_RETURN_IF_ERROR(RemoveRec(root_, offset, whole, &removed));
      if (removed != whole) {
        return Status::Internal("removed " + std::to_string(removed) + " of " +
                                std::to_string(whole) + " whole-extent bytes");
      }
      size_ -= whole;
    }
    // Collapse a root with a single child (or free an empty root).
    for (;;) {
      if (root_ == 0) {
        return Status::Ok();
      }
      HFAD_ASSIGN_OR_RETURN(PageRef rootp, pager_->Get(root_));
      uint16_t n = Count(*rootp);
      if (PageType(*rootp) == kExtentLeaf) {
        if (n == 0) {
          HFAD_RETURN_IF_ERROR(FreePage(root_));
          root_ = 0;
        }
        return Status::Ok();
      }
      if (n == 0) {
        HFAD_RETURN_IF_ERROR(FreePage(root_));
        root_ = 0;
        return Status::Ok();
      }
      if (n == 1) {
        uint64_t child = GetEntry(*rootp, 0).a;
        HFAD_RETURN_IF_ERROR(FreePage(root_));
        root_ = child;
        continue;
      }
      return Status::Ok();
    }
  }

  Status Clear() {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (root_ != 0) {
      HFAD_RETURN_IF_ERROR(FreeSubtree(root_));
      root_ = 0;
    }
    size_ = 0;
    return Status::Ok();
  }

  Result<uint64_t> CountExtents() const {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (root_ == 0) {
      return uint64_t{0};
    }
    return CountExtentsRec(root_);
  }

  Result<bool> SmallMap(size_t max_extents, std::vector<Extent>* out) const {
    HFAD_RETURN_IF_ERROR(root_status_);
    out->clear();
    if (root_ == 0) {
      return true;
    }
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(root_));
    const uint16_t n = Count(*page);
    if (PageType(*page) != kExtentLeaf || n > max_extents) {
      return false;
    }
    for (int i = 0; i < n; i++) {
      const Entry e = GetEntry(*page, i);
      out->push_back(Extent{e.a, e.b});
    }
    return true;
  }

  Result<int> Height() const {
    HFAD_RETURN_IF_ERROR(root_status_);
    int h = 0;
    for (uint64_t off = root_; off != 0;) {
      HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
      h++;
      if (PageType(*page) == kExtentLeaf) {
        break;
      }
      if (Count(*page) == 0) {
        return Status::Corruption("empty extent interior page " + std::to_string(off));
      }
      off = GetEntry(*page, 0).a;
    }
    pager_->NoteTreeHeight(h);
    return h;
  }

  Status CheckInvariants() const {
    HFAD_RETURN_IF_ERROR(root_status_);
    if (root_ == 0) {
      return size_ == 0 ? Status::Ok() : Status::Corruption("empty tree with nonzero size");
    }
    uint64_t total = 0;
    HFAD_RETURN_IF_ERROR(CheckRec(root_, &total));
    if (total != size_) {
      return Status::Corruption("tree total " + std::to_string(total) +
                                " != cached size " + std::to_string(size_));
    }
    return Status::Ok();
  }

 private:
  Result<uint64_t> NewPage(uint8_t type) {
    HFAD_ASSIGN_OR_RETURN(BuddyAllocator::Extent ext, alloc_->Allocate(kPageSize));
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->GetZeroed(ext.offset));
    InitPage(*page, type);
    return ext.offset;
  }

  Status FreePage(uint64_t off) {
    pager_->Invalidate(off);
    return alloc_->Free(off);
  }

  // Give an extent's block back. Its resident pages go first: they all lie inside the
  // extent (a shrink drops those past its new end), and once the block is free another
  // owner may be handed it.
  Status FreeExtent(const Entry& e) {
    pager_->InvalidateRange(e.a, e.b);
    return alloc_->Free(e.a);
  }

  // Resolve logical [rel, rel+len) within the subtree at page_off into device pieces.
  Status CollectPieces(uint64_t page_off, uint64_t rel, uint64_t len,
                       std::vector<Extent>* out) const {
    if (len == 0) {
      return Status::Ok();
    }
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(page_off));
    stats::Add(stats::Counter::kBtreeNodeVisits);
    uint16_t cnt = Count(*page);
    uint64_t acc = 0;
    for (int i = 0; i < cnt && len > 0; i++) {
      Entry e = GetEntry(*page, i);
      uint64_t lo = acc;
      uint64_t hi = acc + e.b;
      if (hi <= rel) {
        acc = hi;
        continue;
      }
      if (lo >= rel + len) {
        break;
      }
      uint64_t in_lo = std::max(rel, lo) - lo;
      uint64_t in_len = std::min(rel + len, hi) - std::max(rel, lo);
      if (PageType(*page) == kExtentLeaf) {
        out->push_back(Extent{e.a + in_lo, in_len});
      } else {
        HFAD_RETURN_IF_ERROR(CollectPieces(e.a, in_lo, in_len, out));
      }
      acc = hi;
    }
    return Status::Ok();
  }

  // Where a logical offset k (0 < k < size_) falls: the leaf entry holding byte k, k's
  // position inside that extent, and the interior entries above it (root first), so a
  // shrink can fix their totals without a second descent.
  struct LeafSlot {
    std::vector<std::pair<PageRef, int>> path;
    PageRef leaf;
    int idx = 0;
    uint64_t rel = 0;  // 0: k is the extent's first byte, i.e. already a boundary.
  };

  Result<LeafSlot> FindLeafEntry(uint64_t k) const {
    LeafSlot slot;
    uint64_t page_off = root_;
    uint64_t rel = k;
    for (;;) {
      HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(page_off));
      const int cnt = Count(*page);
      const bool leaf = PageType(*page) == kExtentLeaf;
      // Interior descents take the last child for anything past the earlier ones.
      const int last = leaf ? cnt : cnt - 1;
      int i = 0;
      while (i < last && rel >= GetEntry(*page, i).b) {
        rel -= GetEntry(*page, i).b;
        i++;
      }
      if (i >= cnt) {
        return Status::Corruption("extent offset " + std::to_string(k) +
                                  " lies past its page's entries");
      }
      if (leaf) {
        slot.leaf = std::move(page);
        slot.idx = i;
        slot.rel = rel;
        return slot;
      }
      page_off = GetEntry(*page, i).a;
      slot.path.emplace_back(std::move(page), i);
    }
  }

  // Shrink the slot's extent in place to its first slot.rel bytes; the device bytes past
  // that stay inside its allocation, unreferenced, and the pages wholly past it leave
  // the cache. Returns the number of bytes cut.
  uint64_t ShrinkInPlace(const LeafSlot& slot) {
    Entry e = GetEntry(*slot.leaf, slot.idx);
    uint64_t cut = e.b - slot.rel;
    const uint64_t kept_end = (e.a + slot.rel + kPageSize - 1) / kPageSize * kPageSize;
    if (kept_end < e.a + e.b) {
      pager_->InvalidateRange(kept_end, e.a + e.b - kept_end);
    }
    SetEntry(*slot.leaf, slot.idx, Entry{e.a, slot.rel});
    for (const auto& [page, i] : slot.path) {
      Entry pe = GetEntry(*page, i);
      SetEntry(*page, i, Entry{pe.a, pe.b - cut});
    }
    size_ -= cut;
    return cut;
  }

  // Insert `data` so that it begins at logical offset k (0 <= k <= size_). When k falls
  // strictly inside an extent, that extent's tail is carried: data + tail are written as
  // fresh extents in one raw write per kMaxExtentSize chunk, then the old extent is
  // shrunk in place to end at k. With empty data this just makes k an extent boundary.
  // Every fresh extent is allocated and written before the tree changes, so a NoSpace from
  // the allocator or an IO error from a raw read or write leaves the object's bytes and
  // size exactly as they were.
  Status SpliceIn(uint64_t k, Slice data) {
    std::optional<LeafSlot> inside;
    std::string carried;
    if (k > 0 && k < size_) {
      HFAD_ASSIGN_OR_RETURN(LeafSlot slot, FindLeafEntry(k));
      if (slot.rel > 0) {
        Entry e = GetEntry(*slot.leaf, slot.idx);
        std::string tail;
        HFAD_RETURN_IF_ERROR(
            pager_->ReadRaw(e.a + slot.rel, static_cast<size_t>(e.b - slot.rel), &tail));
        carried.assign(data.data(), data.size());
        carried += tail;
        data = Slice(carried);
        inside = std::move(slot);
      }
    }
    std::vector<Entry> fresh;
    HFAD_RETURN_IF_ERROR(WriteFreshExtents(data, &fresh));
    if (inside) {
      ShrinkInPlace(*inside);
    }
    uint64_t at = k;
    for (const Entry& e : fresh) {
      HFAD_RETURN_IF_ERROR(InsertExtentAt(at, e));
      size_ += e.b;
      at += e.b;
    }
    return Status::Ok();
  }

  // Allocate and write `data` as fresh extents of at most kMaxExtentSize bytes each. On
  // failure every extent allocated here is freed again and *out is left empty.
  Status WriteFreshExtents(Slice data, std::vector<Entry>* out) {
    for (size_t done = 0; done < data.size();) {
      size_t chunk = std::min<size_t>(kMaxExtentSize, data.size() - done);
      Result<BuddyAllocator::Extent> ext = alloc_->Allocate(chunk);
      Status s = ext.status();
      if (s.ok()) {
        out->push_back(Entry{ext->offset, chunk});
        s = pager_->WriteFresh(ext->offset, Slice(data.data() + done, chunk));
      }
      if (!s.ok()) {
        for (const Entry& e : *out) {
          (void)FreeExtent(e);
        }
        out->clear();
        return s;
      }
      done += chunk;
    }
    return Status::Ok();
  }

  struct SplitOut {
    bool did_split = false;
    Entry right;  // (new page, its byte total)
  };

  // Insert extent `e` so that it begins at logical offset `at` (which must be an existing
  // boundary, or the end of the object). Handles page splits up to the root.
  Status InsertExtentAt(uint64_t at, Entry e) {
    SplitOut out;
    HFAD_RETURN_IF_ERROR(InsertRec(root_, at, e, &out));
    if (out.did_split) {
      HFAD_ASSIGN_OR_RETURN(uint64_t new_root, NewPage(kExtentInterior));
      HFAD_ASSIGN_OR_RETURN(PageRef rp, pager_->Get(new_root));
      HFAD_ASSIGN_OR_RETURN(PageRef old, pager_->Get(root_));
      InsertEntryAt(*rp, 0, Entry{root_, SumBytes(*old)});
      InsertEntryAt(*rp, 1, out.right);
      root_ = new_root;
    }
    return Status::Ok();
  }

  Status InsertRec(uint64_t page_off, uint64_t rel, Entry e, SplitOut* out) {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(page_off));
    stats::Add(stats::Counter::kBtreeNodeVisits);
    uint16_t cnt = Count(*page);
    if (PageType(*page) == kExtentLeaf) {
      int idx = 0;
      uint64_t acc = 0;
      while (idx < cnt && acc < rel) {
        acc += GetEntry(*page, idx).b;
        idx++;
      }
      if (acc != rel) {
        return Status::Internal("insert offset is not an extent boundary");
      }
      if (cnt < kMaxEntries) {
        InsertEntryAt(*page, idx, e);
        return Status::Ok();
      }
      // Split the leaf: upper half moves to a new right page.
      HFAD_ASSIGN_OR_RETURN(uint64_t right_off, NewPage(kExtentLeaf));
      HFAD_ASSIGN_OR_RETURN(PageRef right, pager_->Get(right_off));
      int mid = cnt / 2;
      for (int i = mid; i < cnt; i++) {
        InsertEntryAt(*right, i - mid, GetEntry(*page, i));
      }
      SetCount(*page, static_cast<uint16_t>(mid));
      page->MarkDirty();
      if (idx <= mid) {
        int i2 = 0;
        uint64_t a2 = 0;
        while (i2 < Count(*page) && a2 < rel) {
          a2 += GetEntry(*page, i2).b;
          i2++;
        }
        InsertEntryAt(*page, i2, e);
      } else {
        uint64_t left_bytes = SumBytes(*page);
        uint64_t r = rel - left_bytes;
        int i2 = 0;
        uint64_t a2 = 0;
        while (i2 < Count(*right) && a2 < r) {
          a2 += GetEntry(*right, i2).b;
          i2++;
        }
        InsertEntryAt(*right, i2, e);
      }
      out->did_split = true;
      out->right = Entry{right_off, SumBytes(*right)};
      return Status::Ok();
    }
    // Interior: pick the first child with rel <= its cumulative end; boundary offsets go
    // to the earlier child so appends recurse into the last child naturally.
    int idx = -1;
    uint64_t child_rel = rel;
    for (int i = 0; i < cnt; i++) {
      Entry ce = GetEntry(*page, i);
      if (child_rel <= ce.b) {
        idx = i;
        break;
      }
      child_rel -= ce.b;
    }
    if (idx < 0) {
      return Status::Internal("insert offset beyond interior coverage");
    }
    Entry child_entry = GetEntry(*page, idx);
    SplitOut child_out;
    HFAD_RETURN_IF_ERROR(InsertRec(child_entry.a, child_rel, e, &child_out));
    uint64_t new_child_bytes = child_entry.b + e.b;
    if (child_out.did_split) {
      new_child_bytes -= child_out.right.b;
    }
    SetEntry(*page, idx, Entry{child_entry.a, new_child_bytes});
    if (!child_out.did_split) {
      return Status::Ok();
    }
    if (cnt < kMaxEntries) {
      InsertEntryAt(*page, idx + 1, child_out.right);
      return Status::Ok();
    }
    // Split this interior page, then place the new child entry in the proper half.
    HFAD_ASSIGN_OR_RETURN(uint64_t right_off, NewPage(kExtentInterior));
    HFAD_ASSIGN_OR_RETURN(PageRef right, pager_->Get(right_off));
    int mid = cnt / 2;
    for (int i = mid; i < cnt; i++) {
      InsertEntryAt(*right, i - mid, GetEntry(*page, i));
    }
    SetCount(*page, static_cast<uint16_t>(mid));
    page->MarkDirty();
    if (idx + 1 < mid) {
      InsertEntryAt(*page, idx + 1, child_out.right);
    } else {
      InsertEntryAt(*right, idx + 1 - mid, child_out.right);
    }
    out->did_split = true;
    out->right = Entry{right_off, SumBytes(*right)};
    return Status::Ok();
  }

  // Remove logical [rel, rel+len) from the subtree at page_off. Both ends are extent
  // boundaries (RemoveRange split or cut there first). Accumulates bytes removed into
  // *removed. Offsets are evaluated against the subtree's *original* layout.
  Status RemoveRec(uint64_t page_off, uint64_t rel, uint64_t len, uint64_t* removed) {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(page_off));
    uint16_t cnt = Count(*page);
    if (PageType(*page) == kExtentLeaf) {
      uint64_t acc = 0;
      int i = 0;
      // Advance to the first entry at or past rel, tracking original offsets.
      while (i < cnt) {
        Entry e = GetEntry(*page, i);
        if (acc >= rel) {
          break;
        }
        if (acc + e.b > rel) {
          return Status::Internal("remove start is not an extent boundary");
        }
        acc += e.b;
        i++;
      }
      // Remove whole entries while they fall inside [rel, rel+len).
      while (i < Count(*page) && acc < rel + len) {
        Entry e = GetEntry(*page, i);
        if (acc + e.b > rel + len) {
          return Status::Internal("remove end is not an extent boundary");
        }
        HFAD_RETURN_IF_ERROR(FreeExtent(e));
        *removed += e.b;
        acc += e.b;
        RemoveEntryAt(*page, i);  // Entry i disappears; successor shifts into i.
      }
      return Status::Ok();
    }
    // Interior: remove the overlap from each child, evaluated against original layout.
    uint64_t acc = 0;
    int i = 0;
    while (i < Count(*page)) {
      Entry ce = GetEntry(*page, i);
      uint64_t lo = acc;
      uint64_t hi = acc + ce.b;
      if (hi <= rel) {
        acc = hi;
        i++;
        continue;
      }
      if (lo >= rel + len) {
        break;
      }
      uint64_t in_lo = std::max(rel, lo) - lo;
      uint64_t in_len = std::min(rel + len, hi) - std::max(rel, lo);
      uint64_t before = *removed;
      HFAD_RETURN_IF_ERROR(RemoveRec(ce.a, in_lo, in_len, removed));
      uint64_t got = *removed - before;
      if (got != in_len) {
        return Status::Internal("child removed unexpected byte count");
      }
      uint64_t new_bytes = ce.b - got;
      if (new_bytes == 0) {
        HFAD_RETURN_IF_ERROR(FreeDrainedSubtree(ce.a));
        RemoveEntryAt(*page, i);
      } else {
        SetEntry(*page, i, Entry{ce.a, new_bytes});
        i++;
      }
      acc = hi;  // Original layout position.
    }
    return Status::Ok();
  }

  // Free a subtree whose byte total has reached zero (all leaf entries already removed).
  Status FreeDrainedSubtree(uint64_t off) {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    if (PageType(*page) == kExtentInterior) {
      uint16_t n = Count(*page);
      for (int i = 0; i < n; i++) {
        HFAD_RETURN_IF_ERROR(FreeDrainedSubtree(GetEntry(*page, i).a));
      }
    }
    return FreePage(off);
  }

  Status FreeSubtree(uint64_t off) {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    uint16_t n = Count(*page);
    if (PageType(*page) == kExtentInterior) {
      for (int i = 0; i < n; i++) {
        HFAD_RETURN_IF_ERROR(FreeSubtree(GetEntry(*page, i).a));
      }
    } else {
      for (int i = 0; i < n; i++) {
        HFAD_RETURN_IF_ERROR(FreeExtent(GetEntry(*page, i)));
      }
    }
    return FreePage(off);
  }

  Result<uint64_t> CountExtentsRec(uint64_t off) const {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    uint16_t n = Count(*page);
    if (PageType(*page) == kExtentLeaf) {
      return static_cast<uint64_t>(n);
    }
    uint64_t total = 0;
    for (int i = 0; i < n; i++) {
      HFAD_ASSIGN_OR_RETURN(uint64_t sub, CountExtentsRec(GetEntry(*page, i).a));
      total += sub;
    }
    return total;
  }

  Status CheckRec(uint64_t off, uint64_t* total) const {
    HFAD_ASSIGN_OR_RETURN(PageRef page, pager_->Get(off));
    uint16_t n = Count(*page);
    if (PageType(*page) == kExtentLeaf) {
      for (int i = 0; i < n; i++) {
        Entry e = GetEntry(*page, i);
        if (e.b == 0) {
          return Status::Corruption("zero-length extent");
        }
        *total += e.b;
      }
      return Status::Ok();
    }
    if (PageType(*page) != kExtentInterior) {
      return Status::Corruption("bad extent page type");
    }
    for (int i = 0; i < n; i++) {
      Entry e = GetEntry(*page, i);
      uint64_t child_total = 0;
      HFAD_RETURN_IF_ERROR(CheckRec(e.a, &child_total));
      if (child_total != e.b) {
        return Status::Corruption("interior byte total mismatch: entry says " +
                                  std::to_string(e.b) + ", children sum to " +
                                  std::to_string(child_total));
      }
      *total += e.b;
    }
    return Status::Ok();
  }

  Pager* const pager_;
  BuddyAllocator* const alloc_;
  uint64_t root_;
  uint64_t size_ = 0;
  // Set when the constructor could not load the root page; every op fails with
  // it rather than treating the tree as empty.
  Status root_status_;
};

ExtentTree::ExtentTree(Pager* pager, BuddyAllocator* allocator, uint64_t root_offset)
    : impl_(std::make_unique<Impl>(pager, allocator, root_offset)) {}
ExtentTree::~ExtentTree() = default;

uint64_t ExtentTree::root() const { return impl_->root(); }
uint64_t ExtentTree::Size() const { return impl_->Size(); }
Status ExtentTree::Read(uint64_t offset, size_t n, std::string* out) const {
  return impl_->Read(offset, n, out);
}
Status ExtentTree::Write(uint64_t offset, Slice data) { return impl_->Write(offset, data); }
Status ExtentTree::Insert(uint64_t offset, Slice data) { return impl_->Insert(offset, data); }
Status ExtentTree::RemoveRange(uint64_t offset, uint64_t length) {
  return impl_->RemoveRange(offset, length);
}
Status ExtentTree::Clear() { return impl_->Clear(); }
Result<uint64_t> ExtentTree::CountExtents() const { return impl_->CountExtents(); }
Result<bool> ExtentTree::SmallMap(size_t max_extents, std::vector<Extent>* out) const {
  return impl_->SmallMap(max_extents, out);
}
Result<int> ExtentTree::Height() const { return impl_->Height(); }
Status ExtentTree::CheckInvariants() const { return impl_->CheckInvariants(); }

}  // namespace extent
}  // namespace hfad
