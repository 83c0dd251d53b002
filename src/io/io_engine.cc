#include "src/io/io_engine.h"

namespace hfad {
namespace io {

std::unique_ptr<IoEngine> CreateIoEngine(BlockDevice* device,
                                         const IoEngineOptions& options) {
  int threads = options.threads > 0 ? options.threads : 1;
  if (options.backend == IoBackend::kAuto) {
    // The uring factory itself checks HFAD_WITH_URING, the device's native fd,
    // and whether io_uring_setup works in this process (seccomp filters commonly
    // deny it); null means "use the fallback".
    if (auto uring = CreateUringEngine(device, threads)) return uring;
  }
  return CreateThreadPoolEngine(device, threads);
}

}  // namespace io
}  // namespace hfad
