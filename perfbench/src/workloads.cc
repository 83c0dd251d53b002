#include "perfbench/src/workloads.h"

namespace perfbench {

// query_cold's preload: about 72 MiB of heap, 18x its 4 MiB cache, in about 6 s of
// full-text indexing per set-up.
constexpr size_t kQueryColdObjects = 5000;

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "ingest_sync") {
    return MakeIngestSync(seed);
  }
  if (name == "query_cold") {
    return MakeQueryCold(seed, kQueryColdObjects);
  }
  if (name == "edit_mixed") {
    return MakeEditMixed(seed);
  }
  return nullptr;
}

std::string ComparePages(const hfad::query::FindPage& want, const hfad::query::FindPage& got) {
  for (size_t i = 0; i < std::min(want.ids.size(), got.ids.size()); i++) {
    if (want.ids[i] != got.ids[i]) {
      return "id " + std::to_string(i) + " is " + std::to_string(got.ids[i]) + ", want " +
             std::to_string(want.ids[i]);
    }
  }
  if (want.ids.size() != got.ids.size()) {
    return std::to_string(got.ids.size()) + " ids, want " + std::to_string(want.ids.size());
  }
  if (want.has_more != got.has_more) {
    return std::string("has_more is ") + (got.has_more ? "true" : "false");
  }
  return "";
}

std::string CompareBytes(const std::string& want, const std::string& got) {
  const size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; i++) {
    if (want[i] != got[i]) {
      return "byte " + std::to_string(i) + " differs";
    }
  }
  if (want.size() != got.size()) {
    return std::to_string(got.size()) + " bytes, want " + std::to_string(want.size());
  }
  return "";
}

}  // namespace perfbench
