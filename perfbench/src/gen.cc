#include "perfbench/src/gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (size_t r = 0; r < n; r++) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

size_t Zipf::Sample(hfad::Random& rng) const {
  const double u = rng.NextDouble();
  size_t r = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

uint64_t Key(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint64_t v : {a, b, c}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
  }
  return h;
}

std::string SeededBytes(uint64_t key, size_t n) {
  hfad::Random rng(key);
  std::string out(n, '\0');
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(&out[i], &v, std::min<size_t>(8, n - i));
  }
  return out;
}

uint64_t TagBytes(const std::vector<TagValue>& names) {
  uint64_t n = 0;
  for (const TagValue& t : names) {
    n += t.tag.size() + t.value.size();
  }
  return n;
}

std::vector<TagValue> SortedNames(std::vector<TagValue> names) {
  std::sort(names.begin(), names.end(), [](const TagValue& a, const TagValue& b) {
    return a.tag != b.tag ? a.tag < b.tag : a.value < b.value;
  });
  return names;
}

uint64_t VolumeBytes(uint64_t heap, uint64_t journal) {
  return heap + journal + heap / 64 + 1 * kMiB;
}

}  // namespace perfbench
