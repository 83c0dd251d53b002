// C3 (§3.1.2): byte-level insert and range-removal in the middle of an object are cheap
// because object data lives in a (counted) btree of extents.
//
// hFAD: ExtentTree::Insert is O(log n) regardless of object size.
// POSIX/hierfs: the only way to grow the middle of a file is read-shift-rewrite —
// O(size - offset) bytes of IO. The crossover and growth curves are the experiment.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "src/core/filesystem.h"
#include "src/hierfs/hierfs.h"
#include "src/storage/block_device.h"

namespace {

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::FileSystemOptions;

constexpr uint64_t kInsertSize = 4096;

void BM_InsertMiddle_Hfad(benchmark::State& state) {
  const uint64_t object_size = static_cast<uint64_t>(state.range(0));
  FileSystemOptions options;
  options.osd.journaling = false;  // Match hierfs.
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                         options))
                .value();
  auto oid = fs->Create();
  std::string chunk(1 << 20, 'b');
  for (uint64_t written = 0; written < object_size; written += chunk.size()) {
    (void)fs->Write(*oid, written, chunk);
  }
  std::string piece(kInsertSize, 'i');
  for (auto _ : state) {
    auto size = fs->Size(*oid);
    (void)fs->Insert(*oid, *size / 2, piece);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInsertSize);
  state.SetLabel(std::to_string(object_size >> 20) + " MiB object");
}
BENCHMARK(BM_InsertMiddle_Hfad)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_InsertMiddle_PosixRewrite(benchmark::State& state) {
  const uint64_t object_size = static_cast<uint64_t>(state.range(0));
  auto fs = std::move(hfad::hierfs::HierFs::Create(
                          std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  auto ino = fs->CreateFile("/victim");
  std::string chunk(1 << 20, 'b');
  for (uint64_t written = 0; written < object_size; written += chunk.size()) {
    (void)fs->Write(*ino, written, chunk);
  }
  std::string piece(kInsertSize, 'i');
  for (auto _ : state) {
    auto st = fs->StatIno(*ino);
    (void)fs->InsertViaRewrite(*ino, st->size / 2, piece);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInsertSize);
  state.SetLabel(std::to_string(object_size >> 20) + " MiB file");
}
BENCHMARK(BM_InsertMiddle_PosixRewrite)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20)
    ->Unit(benchmark::kMicrosecond);

// The matching removal: hFAD's two-off_t truncate vs POSIX read-shift-rewrite.
void BM_RemoveMiddle_Hfad(benchmark::State& state) {
  const uint64_t object_size = static_cast<uint64_t>(state.range(0));
  FileSystemOptions options;
  options.osd.journaling = false;
  auto fs = std::move(FileSystem::Create(std::make_shared<MemoryBlockDevice>(1ull << 30),
                                         options))
                .value();
  auto oid = fs->Create();
  std::string chunk(1 << 20, 'b');
  for (uint64_t written = 0; written < object_size; written += chunk.size()) {
    (void)fs->Write(*oid, written, chunk);
  }
  for (auto _ : state) {
    auto size = fs->Size(*oid);
    if (*size < 2 * kInsertSize) {
      state.PauseTiming();
      for (uint64_t w = *size; w < object_size; w += chunk.size()) {
        (void)fs->Write(*oid, w, chunk);
      }
      state.ResumeTiming();
    }
    (void)fs->Truncate(*oid, *size / 2, kInsertSize);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInsertSize);
  state.SetLabel(std::to_string(object_size >> 20) + " MiB object");
}
BENCHMARK(BM_RemoveMiddle_Hfad)
    ->Arg(1 << 20)
    ->Arg(64 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_RemoveMiddle_PosixRewrite(benchmark::State& state) {
  const uint64_t object_size = static_cast<uint64_t>(state.range(0));
  auto fs = std::move(hfad::hierfs::HierFs::Create(
                          std::make_shared<MemoryBlockDevice>(1ull << 30)))
                .value();
  auto ino = fs->CreateFile("/victim");
  std::string chunk(1 << 20, 'b');
  for (uint64_t written = 0; written < object_size; written += chunk.size()) {
    (void)fs->Write(*ino, written, chunk);
  }
  for (auto _ : state) {
    auto st = fs->StatIno(*ino);
    uint64_t size = st->size;
    if (size < 2 * kInsertSize) {
      state.PauseTiming();
      for (uint64_t w = size; w < object_size; w += chunk.size()) {
        (void)fs->Write(*ino, w, chunk);
      }
      size = object_size;
      state.ResumeTiming();
    }
    // POSIX removal from the middle: read tail past the hole, write it back shifted,
    // truncate the end.
    uint64_t hole = size / 2;
    std::string tail;
    (void)fs->Read(*ino, hole + kInsertSize, size - hole - kInsertSize, &tail);
    (void)fs->Write(*ino, hole, tail);
    (void)fs->Truncate(*ino, size - kInsertSize);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInsertSize);
  state.SetLabel(std::to_string(object_size >> 20) + " MiB file");
}
BENCHMARK(BM_RemoveMiddle_PosixRewrite)
    ->Arg(1 << 20)
    ->Arg(64 << 20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
