// Fixed-capacity buffer pool over a DiskManager page file.
//
// A frame holds the raw image of one extent plus an offset directory that a
// single validating walk over the image builds on a miss. Rows are decoded
// lazily: the first Fetch of a row decodes it into that row's slot, and
// later fetches return the slot. A frame therefore costs its page image, the
// directory (one offset per row), and only the rows actually touched during
// the residency, instead of every row of the extent boxed into tuples. This
// keeps the resident `Table` API (`at()` returning `const Value&`) working
// when a table spills: a fetch returns a reference to a decoded row, and that
// reference stays valid until the frame is evicted — decoding other rows of
// the same frame never moves a slot.
//
// Frames are recycled, not reallocated: a miss that evicts reuses the
// victim's byte buffer, directory and row slots (a reused slot keeps its
// capacity, so re-decoding an integer row allocates nothing). LRU links are
// frame indices and the page -> frame lookup is an array, since DiskManager
// page ids are dense.
//
// Eviction is strict LRU over unpinned frames. This gives callers a simple
// reference-stability contract: a reference obtained from the most recent
// Fetch stays valid across at least `capacity() - 1` subsequent fetches of
// *other* extents (each fetch displaces at most one frame, and the newest
// frame is last in LRU order). The executor's probe loops touch at most two
// tables between taking a reference and using it, so the enforced minimum
// capacity of 16 frames keeps those references stable; the few call sites
// that interleave a reference with an unbounded index build copy the value
// instead (see Executor::RunJoin).
//
// Dirty frames are written back through the PageWriter that fetched them,
// which lets the owner re-encode rows and grow the extent if an updated
// string no longer fits (see Table::WriteBack). FetchMutable decodes every
// row of the frame before marking it dirty, so a write-back re-encodes the
// whole extent from decoded rows.
#ifndef KWSDBG_STORAGE_BUFFER_POOL_H_
#define KWSDBG_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/schema.h"

namespace kwsdbg {

/// Self-describing row codec used for spill pages. Each cell is a tag byte
/// (null / int64 / double / string) followed by its payload, so decoding
/// needs no schema. The encoded block starts with a uint32 row count and
/// per-row uint16 arities.
size_t EncodedRowsSize(const std::vector<Tuple>& rows);
size_t EncodedRowSize(const Tuple& row);
void EncodeRows(const std::vector<Tuple>& rows, std::string* out);
/// Decodes a whole block: the buffer pool's validating walk, then a decode
/// of every row. kParseError on a truncated or corrupt block; counts read
/// from the input are bounded by the bytes left before they size anything.
Status DecodeRows(const char* data, size_t size, std::vector<Tuple>* out);

/// Write-back sink for dirty frames; implemented by the page owner (Table).
class PageWriter {
 public:
  virtual ~PageWriter() = default;
  virtual Status WriteBack(uint64_t first_page,
                           const std::vector<Tuple>& rows) = 0;
};

struct BufferPoolStats {
  size_t page_hits = 0;        ///< Fetches served from a resident frame.
  size_t page_misses = 0;      ///< Fetches that had to read from disk.
  size_t page_evictions = 0;   ///< Frames displaced to make room.
  size_t write_backs = 0;      ///< Dirty frames flushed on eviction/flush.
};

class BufferPool {
 public:
  /// Callers relying on the reference-stability contract above need a floor;
  /// capacities below this are clamped up.
  static constexpr size_t kMinCapacity = 16;

  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t capacity() const { return capacity_; }
  size_t num_frames() const { return frames_.size() - free_frames_.size(); }
  const BufferPoolStats& stats() const { return stats_; }

  /// Returns row `row` of the extent starting at `first_page` (`num_pages`
  /// long), reading the extent if it is not resident and decoding the row
  /// on its first touch. The pointer is valid until the frame is evicted
  /// (see contract above). kParseError if the extent is corrupt, kOutOfRange
  /// if it holds no row `row`.
  StatusOr<const Tuple*> Fetch(uint64_t first_page, uint32_t num_pages,
                               size_t row, PageWriter* writer);

  /// Like Fetch but decodes every row of the frame and marks it dirty; it
  /// will be written back through `writer` when evicted or flushed.
  StatusOr<Tuple*> FetchMutable(uint64_t first_page, uint32_t num_pages,
                                size_t row, PageWriter* writer);

  /// Pins / unpins a resident frame. Pinned frames are never evicted; a pin
  /// on a non-resident extent is a no-op. Pins nest.
  void Pin(uint64_t first_page);
  void Unpin(uint64_t first_page);

  /// Writes back all dirty frames (frames stay resident).
  Status FlushAll();

  /// Drops every frame without write-back. Used when the backing extents
  /// were rewritten by the owner, or on shutdown after FlushAll.
  void DropAll();

 private:
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

  struct Frame {
    uint64_t first_page = 0;
    bool dirty = false;
    int pins = 0;
    PageWriter* writer = nullptr;
    std::string bytes;            ///< The extent's page image.
    std::vector<size_t> offsets;  ///< Row i starts at bytes[offsets[i]].
    std::vector<Tuple> rows;      ///< Row i's slot, valid once decoded[i].
    std::vector<uint8_t> decoded;
    uint32_t lru_prev = kNoFrame;  ///< Towards the least recently used.
    uint32_t lru_next = kNoFrame;  ///< Towards the most recently used.
  };

  /// The frame of the extent at `first_page`, read and walked on a miss;
  /// kOutOfRange if the extent has no row `row`.
  StatusOr<Frame*> FetchFrame(uint64_t first_page, uint32_t num_pages,
                              size_t row, PageWriter* writer);
  /// The resident frame of `first_page`, or kNoFrame.
  uint32_t FrameOf(uint64_t first_page) const {
    return first_page < page_frame_.size() ? page_frame_[first_page]
                                           : kNoFrame;
  }
  /// A frame to read a missed extent into: a never-used or dropped frame
  /// while the pool is below capacity, else the evicted LRU victim.
  StatusOr<uint32_t> TakeFrame();
  /// Decodes row `row` of `f` into its slot unless already decoded.
  Status DecodeRow(Frame* f, size_t row);
  void LinkMru(uint32_t idx);
  void Unlink(uint32_t idx);
  /// Takes a resident frame out of the LRU list and the page map.
  void Unmap(uint32_t idx);

  DiskManager* disk_;
  size_t capacity_;
  std::vector<Frame> frames_;           ///< Grows to at most capacity_.
  std::vector<uint32_t> free_frames_;   ///< Allocated frames not resident.
  std::vector<uint32_t> page_frame_;    ///< Page id -> resident frame.
  uint32_t lru_head_ = kNoFrame;        ///< Least recently used.
  uint32_t lru_tail_ = kNoFrame;        ///< Most recently used.
  BufferPoolStats stats_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_BUFFER_POOL_H_
