#include "storage/disk_manager.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <string_view>

#include "common/fault_injector.h"
#include "storage/io_util.h"

namespace kwsdbg {

namespace {

Status CheckPageSize(size_t page_size) {
  if (page_size < DiskManager::kMinPageSize) {
    return Status::InvalidArgument("page size " + std::to_string(page_size) +
                                   " below minimum " +
                                   std::to_string(DiskManager::kMinPageSize));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<DiskManager>> DiskManager::Create(std::string path,
                                                           size_t page_size) {
  KWSDBG_RETURN_NOT_OK(CheckPageSize(page_size));
  KWSDBG_ASSIGN_OR_RETURN(
      int fd, OpenFd(path, O_RDWR | O_CREAT | O_TRUNC, 0644,
                     "DiskManager::Create"));
  return std::unique_ptr<DiskManager>(
      new DiskManager(std::move(path), fd, page_size));
}

StatusOr<std::unique_ptr<DiskManager>> DiskManager::CreateTemp(
    const std::string& dir, size_t page_size) {
  std::error_code ec;
  std::filesystem::path base =
      dir.empty() ? std::filesystem::temp_directory_path(ec)
                  : std::filesystem::path(dir);
  if (ec) base = ".";
  // Unique per process + per instance; two databases spilled by the same
  // process must not collide. The pid in the name is what lets a later
  // incarnation recognize (and sweep) files orphaned by a crash — see
  // SweepStaleSpillFiles.
  static std::atomic<unsigned> counter{0};
  std::string name = "kwsdbg_spill_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter.fetch_add(1)) + ".pages";
  return Create((base / name).string(), page_size);
}

DiskManager::~DiskManager() {
  CloseFd(&fd_, "DiskManager::~DiskManager");  // best effort in a dtor
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort: it is our temp file
}

StatusOr<uint64_t> DiskManager::AllocatePages(size_t count) {
  if (count == 0) return Status::InvalidArgument("allocating 0 pages");
  uint64_t first = num_pages_;
  num_pages_ += count;
  stats_.pages_allocated += count;
  return first;
}

Status DiskManager::ReadPages(uint64_t first, size_t count, char* buf) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("page file " + path_ + " is closed");
  }
  if (first + count > num_pages_) {
    return Status::OutOfRange("page read past end of file");
  }
  if (FaultPointFires("storage.disk.read")) {
    return Status::Unavailable("injected fault: storage.disk.read");
  }
  const size_t want = count * page_size_;
  size_t got = 0;
  KWSDBG_RETURN_NOT_OK(ReadFullAt(fd_, buf, want,
                                  static_cast<off_t>(first * page_size_),
                                  &got, "DiskManager::ReadPages"));
  if (got < want) {
    // Pages at the tail that were allocated but never written read back as
    // zeroes, matching what a sparse file would return.
    std::fill(buf + got, buf + want, '\0');
  }
  stats_.page_reads += count;
  return Status::OK();
}

Status DiskManager::WritePages(uint64_t first, size_t count,
                               const char* buf) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("page file " + path_ + " is closed");
  }
  if (first + count > num_pages_) {
    return Status::OutOfRange("page write past end of file");
  }
  if (FaultPointFires("storage.disk.write")) {
    return Status::Unavailable("injected fault: storage.disk.write");
  }
  KWSDBG_RETURN_NOT_OK(WriteFullAt(fd_, buf, count * page_size_,
                                   static_cast<off_t>(first * page_size_),
                                   "DiskManager::WritePages"));
  stats_.page_writes += count;
  return Status::OK();
}

Status DiskManager::Close() {
  if (fd_ < 0) return Status::OK();
  return CloseFd(&fd_, "DiskManager::Close");
}

StatusOr<size_t> SweepStaleSpillFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir.empty() ? "." : dir, ec);
  if (ec) return size_t{0};  // no directory -> nothing orphaned in it
  constexpr std::string_view kPrefix = "kwsdbg_spill_";
  constexpr std::string_view kSuffix = ".pages";
  const pid_t self = ::getpid();
  size_t removed = 0;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const size_t pid_end = name.find('_', kPrefix.size());
    if (pid_end == std::string::npos) continue;
    pid_t pid = 0;
    try {
      pid = static_cast<pid_t>(
          std::stol(name.substr(kPrefix.size(), pid_end - kPrefix.size())));
    } catch (...) {
      continue;  // not one of ours
    }
    if (pid == self) continue;
    // Signal 0 probes existence without delivering anything. EPERM means
    // the pid is alive but owned by someone else — leave its file alone.
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    if (fs::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace kwsdbg
