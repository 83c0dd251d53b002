// Seeded input generation shared by the workloads: Zipf ranks, reproducible object
// bytes, tag arithmetic and volume sizing.
#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/index/index_store.h"

namespace perfbench {

using hfad::index::ObjectId;
using hfad::index::TagValue;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;

// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(hfad::Random& rng) const;

 private:
  std::vector<double> cdf_;
};

// Mixes several integers into one generator key.
uint64_t Key(uint64_t a, uint64_t b, uint64_t c = 0);

// n pseudo-random bytes, a pure function of key.
std::string SeededBytes(uint64_t key, size_t n);

// Name plus value bytes of a tag set: what the user asked the store to remember.
uint64_t TagBytes(const std::vector<TagValue>& names);

std::vector<TagValue> SortedNames(std::vector<TagValue> names);

// Device bytes for a volume whose heap is `heap` (a power of two) with an explicit
// journal region: the heap plus journal, allocator snapshot, checksum table and
// superblock.
uint64_t VolumeBytes(uint64_t heap, uint64_t journal);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
