// Page-file disk manager for the out-of-core storage tier.
//
// A DiskManager owns one private spill file: a flat sequence of fixed-size
// pages addressed by page id, unlinked when the manager is destroyed, with
// no cross-process format to maintain. Spilled tables are written once and
// then only read, so allocation only appends contiguous runs of pages at
// the end of the file and nothing is ever freed.
//
// All I/O is fd-based with EINTR and short-transfer retries; close failures
// surface as typed statuses instead of vanishing (an EIO at close is the
// kernel reporting that an earlier buffered write was lost).
#ifndef KWSDBG_STORAGE_DISK_MANAGER_H_
#define KWSDBG_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace kwsdbg {

/// Cumulative I/O counters for one page file. `reads`/`writes` count pages,
/// not calls, so a 3-page extent read contributes 3.
struct DiskStats {
  size_t page_reads = 0;
  size_t page_writes = 0;
  size_t pages_allocated = 0;
};

class DiskManager {
 public:
  /// Default page size; override per-database with KWSDBG_PAGE_SIZE.
  static constexpr size_t kDefaultPageSize = 8192;
  /// Smallest page size we accept: the page header plus room for at least a
  /// handful of values. Guards against KWSDBG_PAGE_SIZE=1 footguns.
  static constexpr size_t kMinPageSize = 512;

  /// Creates (truncates) a page file at `path`. The file is removed again in
  /// the destructor.
  static StatusOr<std::unique_ptr<DiskManager>> Create(std::string path,
                                                       size_t page_size);

  /// Creates a page file with a unique name under `dir` (or the system temp
  /// directory when `dir` is empty).
  static StatusOr<std::unique_ptr<DiskManager>> CreateTemp(
      const std::string& dir, size_t page_size);

  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  size_t page_size() const { return page_size_; }
  const std::string& path() const { return path_; }
  uint64_t num_pages() const { return num_pages_; }
  const DiskStats& stats() const { return stats_; }

  /// Appends `count` contiguous pages at the end of the file and returns
  /// the first page id.
  StatusOr<uint64_t> AllocatePages(size_t count);

  /// Reads `count` pages starting at `first` into `buf` (must hold
  /// count * page_size() bytes). Pages allocated but never written read
  /// back as zeroes, matching what a sparse file would return.
  Status ReadPages(uint64_t first, size_t count, char* buf);

  /// Writes `count` pages starting at `first` from `buf`.
  Status WritePages(uint64_t first, size_t count, const char* buf);

  /// Explicitly closes the file, surfacing deferred write-back errors that
  /// the destructor could only swallow. Further I/O fails typed.
  Status Close();

 private:
  DiskManager(std::string path, int fd, size_t page_size)
      : path_(std::move(path)), fd_(fd), page_size_(page_size) {}

  std::string path_;
  int fd_ = -1;
  size_t page_size_;
  uint64_t num_pages_ = 0;
  DiskStats stats_;
};

/// Crash-leak janitor: deletes `kwsdbg_spill_<pid>_*.pages` files in `dir`
/// whose owning process is gone (a crash never runs the unlinking
/// destructor). Files of live processes — including this one — are left
/// alone. Returns the number of files removed; an absent `dir` counts as
/// zero, not an error.
StatusOr<size_t> SweepStaleSpillFiles(const std::string& dir);

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_DISK_MANAGER_H_
