// The three workloads (see perfbench/README.md for why each exists).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/gen.h"
#include "perfbench/src/harness.h"
#include "src/query/query.h"

namespace perfbench {

std::unique_ptr<Workload> MakeIngestSync(uint64_t seed);
std::unique_ptr<Workload> MakeQueryCold(uint64_t seed, size_t objects);
std::unique_ptr<Workload> MakeEditMixed(uint64_t seed);

// Self-test hook: checkpoint an ingest_sync volume and cut its power, so every later op
// is acknowledged to the client model but missing from the durable images.
hfad::Status CutIngestPower(Workload* ingest);

// ---- Oracles, shared by the workloads and the self-test ----

// Expected page-64 Find result computed from exact membership: `candidates` lists candidate
// ids in ascending order, `match` decides membership for one id.
template <typename Match>
hfad::query::FindPage ExpectedPage(const std::vector<ObjectId>& candidates, ObjectId after,
                                   size_t limit, Match match) {
  hfad::query::FindPage page;
  auto it = std::upper_bound(candidates.begin(), candidates.end(), after);
  for (; it != candidates.end(); ++it) {
    if (!match(*it)) {
      continue;
    }
    if (page.ids.size() == limit) {
      page.has_more = true;
      page.next_after = page.ids.back();
      break;
    }
    page.ids.push_back(*it);
  }
  return page;
}

// Empty when `got` equals `want`; otherwise a description of the first difference.
std::string ComparePages(const hfad::query::FindPage& want, const hfad::query::FindPage& got);

// Empty when `got` holds exactly `want`; otherwise where they first differ.
std::string CompareBytes(const std::string& want, const std::string& got);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
