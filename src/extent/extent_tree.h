// Counted extent tree: the per-object data map that makes hFAD objects *fully*
// byte-accessible (§3.1.2) — reads and overwrites like POSIX, plus Insert of bytes into the
// middle and RemoveRange (the paper's two-off_t truncate) from anywhere.
//
// The paper stores object data in a Berkeley DB btree keyed by file offset. A plain
// offset-keyed tree makes middle insertion O(n): every subsequent key must be re-keyed. We
// instead key *implicitly by cumulative byte count* (an order-statistic / counted B+tree):
//   * leaf pages hold an ordered array of extents (device offset, byte length);
//   * interior pages hold (child page, subtree byte total) pairs.
// An offset is resolved by walking prefix sums, so inserting or removing bytes anywhere is
// O(log n) — only ancestor totals change. bench_btree ablates this against re-keying.
//
// Each extent owns exactly one buddy allocation (its device offset is the allocation
// offset), so an extent can shrink in place from its end but never from its start. An
// Insert strictly inside an extent carries the extent's tail: data + tail are written as
// fresh extents (one raw write per kMaxExtentSize chunk) before the old extent shrinks in
// place to end at the insert offset. RemoveRange copies only the bytes after the range
// (when its end falls inside an extent), cuts the extent holding its start in place, and
// drops the whole extents between, so removed bytes are never read or written. Copy cost
// stays bounded by kMaxExtentSize. Payload IO is the pager's raw IO, cached write-through:
// the pages a fresh extent writes stay resident, so carrying a tail or reading bytes a
// recent edit wrote costs no device read. A cut drops the pages wholly past the new end,
// and a freed extent drops all of its pages before its block goes back to the allocator.
//
// Not thread-safe: the OSD serializes access per object.
#ifndef HFAD_SRC_EXTENT_EXTENT_TREE_H_
#define HFAD_SRC_EXTENT_EXTENT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace hfad {
namespace extent {

// Largest single extent; larger writes are chunked. Bounds tail-copy cost on splits.
constexpr uint64_t kMaxExtentSize = 64 * 1024;

// A contiguous run of device bytes: one leaf entry of an extent map, or the part of one
// that a read covers.
struct Extent {
  uint64_t device_offset = 0;
  uint64_t length = 0;

  bool operator==(const Extent& o) const {
    return device_offset == o.device_offset && length == o.length;
  }
};

// Read up to n bytes at offset of an object whose whole extent map, in logical order, is
// map[0, count): ExtentTree::Read's contract and its raw-read loop, with no tree page.
// The caller keeps the map current (the OSD's cached maps of small objects).
Status ReadMapped(const Pager* pager, const Extent* map, size_t count, uint64_t offset,
                  size_t n, std::string* out);

class ExtentTree {
 public:
  // root_offset == 0 opens an empty (zero-byte) object.
  ExtentTree(Pager* pager, BuddyAllocator* allocator, uint64_t root_offset);
  ~ExtentTree();

  ExtentTree(const ExtentTree&) = delete;
  ExtentTree& operator=(const ExtentTree&) = delete;

  // Current root page (0 when empty). Persist to reopen.
  uint64_t root() const;

  // Logical object size in bytes.
  uint64_t Size() const;

  // Read up to n bytes at offset; short reads happen at end-of-object. Reading at
  // offset == Size() yields an empty result; offset > Size() is OutOfRange.
  Status Read(uint64_t offset, size_t n, std::string* out) const;

  // Overwrite bytes at offset (POSIX pwrite semantics). Writing past the end extends the
  // object; offset > Size() is OutOfRange (no implicit holes — callers zero-fill).
  Status Write(uint64_t offset, Slice data);

  // Insert data at offset, shifting everything at and after offset up by data.size().
  // offset == Size() appends. This is the hFAD `insert` call. A NoSpace from the
  // allocator or an IO error from a payload write leaves the object's bytes unchanged.
  Status Insert(uint64_t offset, Slice data);

  // Remove `length` bytes starting at offset, shifting the tail down. This is the hFAD
  // two-argument truncate. The range must lie within the object.
  Status RemoveRange(uint64_t offset, uint64_t length);

  // Free all extents and pages; size becomes 0 and root() becomes 0.
  Status Clear();

  // Number of extents in the map (test/bench support).
  Result<uint64_t> CountExtents() const;

  // The whole extent map, when the tree is empty or one leaf of at most `max_extents`
  // entries: true with *out holding it in logical order; false (and *out empty) for a
  // larger tree. Reads only the root page.
  Result<bool> SmallMap(size_t max_extents, std::vector<Extent>* out) const;

  // Tree height (0 for empty, 1 for a single leaf), by one descent of the leftmost path;
  // also reported to the pager (Pager::NoteTreeHeight). The OSD asks before it splices
  // into the tree, so the journal credit it holds covers the tree's path.
  Result<int> Height() const;

  // Verify interior byte totals match children, entry sanity, and type bytes. Expensive.
  Status CheckInvariants() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace extent
}  // namespace hfad

#endif  // HFAD_SRC_EXTENT_EXTENT_TREE_H_
