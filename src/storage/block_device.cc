#include "src/storage/block_device.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#ifndef IOV_MAX
#define IOV_MAX 1024
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/stats.h"

namespace hfad {

namespace {

Status RangeCheck(uint64_t offset, size_t size, uint64_t capacity) {
  if (offset > capacity || size > capacity - offset) {
    return Status::OutOfRange("device access [" + std::to_string(offset) + ", +" +
                              std::to_string(size) + ") beyond capacity " +
                              std::to_string(capacity));
  }
  return Status::Ok();
}

// One coalesced run: parts are offset-adjacent in order, covering [offset, offset+size).
struct WriteRun {
  uint64_t offset = 0;
  uint64_t size = 0;
  std::vector<Slice> parts;
};

// Sort extents by offset, drop empties, and merge adjacent ranges into runs. Counts the
// batch into hfad::stats (kDeviceWriteBatches / kDeviceBatchRuns).
std::vector<WriteRun> CoalesceExtents(std::vector<WriteExtent>* extents) {
  std::sort(extents->begin(), extents->end(),
            [](const WriteExtent& a, const WriteExtent& b) { return a.offset < b.offset; });
  std::vector<WriteRun> runs;
  for (const WriteExtent& e : *extents) {
    if (e.data.empty()) {
      continue;
    }
    if (!runs.empty() && runs.back().offset + runs.back().size == e.offset) {
      runs.back().parts.push_back(e.data);
      runs.back().size += e.data.size();
      continue;
    }
    WriteRun run;
    run.offset = e.offset;
    run.size = e.data.size();
    run.parts.push_back(e.data);
    runs.push_back(std::move(run));
  }
  stats::Add(stats::Counter::kDeviceWriteBatches);
  stats::Add(stats::Counter::kDeviceBatchRuns, runs.size());
  return runs;
}

}  // namespace

Status BlockDevice::WriteBatch(std::vector<WriteExtent> extents) {
  std::vector<WriteRun> runs = CoalesceExtents(&extents);
  std::string scratch;
  for (const auto& run : runs) {
    if (run.parts.size() == 1) {
      HFAD_RETURN_IF_ERROR(Write(run.offset, run.parts[0]));
      continue;
    }
    scratch.clear();
    scratch.reserve(run.size);
    for (const Slice& part : run.parts) {
      scratch.append(part.data(), part.size());
    }
    HFAD_RETURN_IF_ERROR(Write(run.offset, Slice(scratch)));
  }
  return Status::Ok();
}

MemoryBlockDevice::MemoryBlockDevice(uint64_t size_bytes) : data_(size_bytes, 0) {}

Status MemoryBlockDevice::Read(uint64_t offset, size_t size, std::string* out) const {
  HFAD_RETURN_IF_ERROR(RangeCheck(offset, size, data_.size()));
  out->assign(data_.data() + offset, size);
  return Status::Ok();
}

Status MemoryBlockDevice::Write(uint64_t offset, Slice data) {
  HFAD_RETURN_IF_ERROR(RangeCheck(offset, data.size(), data_.size()));
  memcpy(data_.data() + offset, data.data(), data.size());
  return Status::Ok();
}

Status MemoryBlockDevice::WriteBatch(std::vector<WriteExtent> extents) {
  std::vector<WriteRun> runs = CoalesceExtents(&extents);
  for (const auto& run : runs) {
    HFAD_RETURN_IF_ERROR(RangeCheck(run.offset, run.size, data_.size()));
    uint64_t pos = run.offset;
    for (const Slice& part : run.parts) {
      memcpy(data_.data() + pos, part.data(), part.size());
      pos += part.size();
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(const std::string& path,
                                                               uint64_t size_bytes) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + strerror(errno));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size > size_bytes) {
    // Truncating would silently destroy the tail of a persisted volume.
    ::close(fd);
    return Status::InvalidArgument(path + " holds " + std::to_string(file_size) +
                                   " bytes, more than the requested capacity " +
                                   std::to_string(size_bytes));
  }
  if (file_size < size_bytes && ::ftruncate(fd, static_cast<off_t>(size_bytes)) != 0) {
    ::close(fd);
    return Status::IoError("ftruncate " + path + ": " + strerror(errno));
  }
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(fd, size_bytes));
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileBlockDevice::Read(uint64_t offset, size_t size, std::string* out) const {
  HFAD_RETURN_IF_ERROR(RangeCheck(offset, size, size_));
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, out->data() + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pread: ") + strerror(errno));
    }
    if (n == 0) {
      // Sparse tail of a fresh file: zero-fill, matching MemoryBlockDevice semantics.
      memset(out->data() + done, 0, size - done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockDevice::Write(uint64_t offset, Slice data) {
  HFAD_RETURN_IF_ERROR(RangeCheck(offset, data.size(), size_));
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pwrite: ") + strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockDevice::WriteBatch(std::vector<WriteExtent> extents) {
  std::vector<WriteRun> runs = CoalesceExtents(&extents);
  std::vector<struct iovec> iov;
  for (const auto& run : runs) {
    HFAD_RETURN_IF_ERROR(RangeCheck(run.offset, run.size, size_));
    // One pwritev per IOV_MAX-bounded window of the run's parts; `pos` tracks the
    // device offset of the next unwritten byte across windows and short writes.
    uint64_t pos = run.offset;
    size_t part = 0;
    while (part < run.parts.size()) {
      iov.clear();
      uint64_t window_bytes = 0;
      size_t window_end = std::min(run.parts.size(), part + static_cast<size_t>(IOV_MAX));
      for (size_t i = part; i < window_end; i++) {
        iov.push_back({const_cast<char*>(run.parts[i].data()), run.parts[i].size()});
        window_bytes += run.parts[i].size();
      }
      while (window_bytes > 0) {
        ssize_t n = ::pwritev(fd_, iov.data(), static_cast<int>(iov.size()),
                              static_cast<off_t>(pos));
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          return Status::IoError(std::string("pwritev: ") + strerror(errno));
        }
        pos += static_cast<uint64_t>(n);
        window_bytes -= static_cast<uint64_t>(n);
        if (window_bytes > 0) {
          // Short write: drop fully-written iovecs, trim the partially-written head.
          uint64_t skip = static_cast<uint64_t>(n);
          size_t drop = 0;
          for (; drop < iov.size() && skip >= iov[drop].iov_len; drop++) {
            skip -= iov[drop].iov_len;
          }
          iov.erase(iov.begin(), iov.begin() + static_cast<ptrdiff_t>(drop));
          if (!iov.empty() && skip > 0) {
            iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + skip;
            iov[0].iov_len -= skip;
          }
        }
      }
      part = window_end;
    }
  }
  return Status::Ok();
}

Status FileBlockDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("fdatasync: ") + strerror(errno));
  }
  return Status::Ok();
}

Status FaultyBlockDevice::Read(uint64_t offset, size_t size, std::string* out) const {
  reads_attempted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reads_until_fault_ == 0) {
      if (read_faults_left_ < 0) {
        return Status::IoError("injected persistent read fault");
      }
      if (read_faults_left_ > 0) {
        read_faults_left_--;
        if (read_faults_left_ == 0) {
          reads_until_fault_ = -1;  // Transient fault healed.
        }
        return Status::IoError("injected transient read fault");
      }
      reads_until_fault_ = -1;
    } else if (reads_until_fault_ > 0) {
      reads_until_fault_--;
    }
  }
  return base_->Read(offset, size, out);
}

void FaultyBlockDevice::SetReadFaults(int64_t after_reads, int64_t fail_count) {
  std::lock_guard<std::mutex> lock(mu_);
  reads_until_fault_ = after_reads;
  read_faults_left_ = fail_count;
}

Status FaultyBlockDevice::FlipBit(uint64_t offset, int bit) {
  std::string byte;
  HFAD_RETURN_IF_ERROR(base_->Read(offset, 1, &byte));
  byte[0] = static_cast<char>(byte[0] ^ (1 << (bit & 7)));
  return base_->Write(offset, Slice(byte));
}

Status FaultyBlockDevice::WriteLocked(uint64_t offset, Slice data) {
  writes_attempted_.fetch_add(1, std::memory_order_relaxed);
  if (write_budget_ < 0) {
    return base_->Write(offset, data);
  }
  if (write_budget_ == 0) {
    if (torn_writes_ && !data.empty()) {
      // Persist a deterministic partial prefix once, then fail everything.
      size_t torn = data.size() / 2;
      if (torn > 0) {
        (void)base_->Write(offset, Slice(data.data(), torn));
      }
      torn_writes_ = false;  // Only one torn write per crash.
    }
    return Status::IoError("write budget exhausted (injected crash)");
  }
  write_budget_--;
  return base_->Write(offset, data);
}

Status FaultyBlockDevice::Write(uint64_t offset, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteLocked(offset, data);
}

Status FaultyBlockDevice::WriteBatch(std::vector<WriteExtent> extents) {
  std::vector<WriteRun> runs = CoalesceExtents(&extents);
  std::lock_guard<std::mutex> lock(mu_);
  std::string scratch;
  for (const auto& run : runs) {
    // Each coalesced run consumes one unit of write budget, so a batch can crash between
    // runs (earlier runs durable, later ones lost) or tear inside one (torn_writes).
    scratch.clear();
    scratch.reserve(run.size);
    for (const Slice& part : run.parts) {
      scratch.append(part.data(), part.size());
    }
    HFAD_RETURN_IF_ERROR(WriteLocked(run.offset, Slice(scratch)));
  }
  return Status::Ok();
}

Status FaultyBlockDevice::Sync() {
  syncs_attempted_.fetch_add(1, std::memory_order_relaxed);
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = sync_hook_;
  }
  if (hook) {
    hook();  // Outside mu_: a parked sync must not block injected writes.
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (write_budget_ == 0) {
    return Status::IoError("sync after injected crash");
  }
  return base_->Sync();
}

void FaultyBlockDevice::SetWriteBudget(int64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  write_budget_ = budget;
}

void FaultyBlockDevice::SetSyncHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_hook_ = std::move(hook);
}

}  // namespace hfad
