// Byte-budgeted, read-only buffer pool over a DiskManager page file.
//
// A frame holds the raw image of one extent, one uint32 per row, and slots
// for the rows decoded during this residency. A miss reads the image and
// makes one check-only walk over it that records where each row starts;
// the first Fetch of a row decodes it into a slot and later fetches return
// the slot. Slots live in fixed chunks that never move, so a reference to a
// decoded row stays put while other rows of the frame decode. An evicted
// frame frees its image, its row directory and its slots: nothing decoded
// in one residency is kept for the next extent. Spilled extents never
// change (spilled tables refuse writes, see table.h), so a frame is never
// dirty and eviction only frees it.
//
// Frames are charged by the bytes they hold, under Table::EstimateBytes'
// rule (allocated capacity, heap string payloads, no allocator overhead):
// the frame struct, the image, four bytes per row, each slot chunk, and
// each decoded row's cells. A DBLife relationship page of 8 KiB holds 282
// rows, so a frame costs 9.4 KB before it decodes a row; each decoded row
// of three int64 cells adds 120 bytes, and every 16th a 384-byte slot
// chunk. The pool holds as many frames as its byte budget pays for: a
// miss evicts least recently used frames until the incoming frame fits,
// but never below kMinFrames resident frames counting the incoming one. A
// hit or a first-touch decode never evicts, so decodes may take the pool
// past its budget until the next miss.
//
// Reference-stability contract: a reference obtained from a Fetch stays
// valid across at least 15 = kMinFrames - 1 subsequent fetches of *other*
// extents, however many frames each of them evicts. Its frame is the most
// recently used after the fetch, and a miss evicts it only when every
// older frame is gone and at least kMinFrames frames, itself included, are
// resident. The executor's probe loops touch at most two tables between
// taking a reference and using it; the few call sites that interleave a
// reference with an unbounded index build copy the value instead (see
// Executor::RunJoin).
#ifndef KWSDBG_STORAGE_BUFFER_POOL_H_
#define KWSDBG_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
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
/// Decodes a whole block: the buffer pool's check-only walk, then a decode
/// of every row. kParseError on a truncated or corrupt block; counts read
/// from the input are bounded by the bytes left before they size anything.
Status DecodeRows(const char* data, size_t size, std::vector<Tuple>* out);

struct BufferPoolStats {
  size_t page_hits = 0;        ///< Fetches served from a resident frame.
  size_t page_misses = 0;      ///< Fetches that had to read from disk.
  size_t page_evictions = 0;   ///< Frames displaced to make room.
};

class BufferPool {
 public:
  /// Floor on resident frames that the reference-stability contract above
  /// rests on: a miss never evicts below it, whatever the budget.
  static constexpr size_t kMinFrames = 16;

  /// A pool whose frames may hold `budget_bytes` between them (see the
  /// charge above); a budget smaller than kMinFrames frames keeps the pool
  /// at its floor.
  BufferPool(DiskManager* disk, size_t budget_bytes);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The most frames the budget holds: one-page frames with no row decoded,
  /// never fewer than kMinFrames.
  size_t capacity() const;
  size_t budget_bytes() const { return budget_bytes_; }
  /// Bytes the resident frames hold, charged as above.
  size_t charged_bytes() const { return charged_; }
  /// Resident frames.
  size_t num_frames() const { return resident_; }
  const BufferPoolStats& stats() const { return stats_; }

  /// charged_bytes() computed afresh from every resident frame, for tests
  /// of the running charge.
  size_t RecountBytes() const;

  /// Returns row `row` of the extent starting at `first_page` (`num_pages`
  /// long), reading the extent if it is not resident and decoding the row
  /// on its first touch. The pointer is valid until the frame is evicted
  /// (see contract above). kParseError if the extent is corrupt,
  /// kOutOfRange if it holds no row `row`.
  StatusOr<const Tuple*> Fetch(uint64_t first_page, uint32_t num_pages,
                               size_t row);

 private:
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;
  /// Set in Frame::row_at for a decoded row; the low bits are its slot.
  static constexpr uint32_t kDecoded = 0x80000000u;
  static constexpr size_t kSlotChunk = 16;  ///< Slots per chunk.

  struct Frame {
    uint64_t first_page = 0;
    std::unique_ptr<char[]> image;  ///< The extent's page image.
    size_t image_size = 0;
    /// Per row: its byte offset in `image` while undecoded, then
    /// kDecoded | its slot.
    std::vector<uint32_t> row_at;
    /// Slot s is slot_chunks[s / kSlotChunk][s % kSlotChunk]; chunks are
    /// only appended, so a slot never moves while the frame is resident.
    std::vector<std::unique_ptr<Tuple[]>> slot_chunks;
    uint32_t num_slots = 0;
    size_t decoded_bytes = 0;  ///< Heap bytes of the decoded rows.
    size_t charge = 0;         ///< What the frame adds to charged_.
    uint32_t lru_prev = kNoFrame;  ///< Towards the least recently used.
    uint32_t lru_next = kNoFrame;  ///< Towards the most recently used.
  };

  /// The resident frame of `first_page`, or kNoFrame.
  uint32_t FrameOf(uint64_t first_page) const {
    return first_page < page_frame_.size() ? page_frame_[first_page]
                                           : kNoFrame;
  }
  /// Evicts LRU frames until the charge, which includes a missed frame not
  /// linked yet, fits the budget or only kMinFrames - 1 frames are
  /// resident.
  void MakeRoom();
  /// Row `row`'s slot, decoded into it on the first call.
  const Tuple* DecodeRow(Frame* f, size_t row);
  static Tuple& Slot(const Frame& f, uint32_t slot) {
    return f.slot_chunks[slot / kSlotChunk][slot % kSlotChunk];
  }
  /// What `f` holds besides its decoded rows' cells: the struct, the image,
  /// the row directory and the slot chunks.
  static size_t ContainerBytes(const Frame& f);
  /// The decoded rows' cells, recounted.
  static size_t DecodedBytes(const Frame& f);
  /// Sets `f`'s charge to ContainerBytes + its running decoded_bytes.
  void Recharge(Frame* f);
  void LinkMru(uint32_t idx);
  void Unlink(uint32_t idx);
  /// Takes a resident frame out of the LRU list and the page map, then
  /// releases it.
  void Drop(uint32_t idx);
  /// Frees what a frame holds, takes its charge off charged_ and returns
  /// it to the free list.
  void Release(uint32_t idx);

  DiskManager* disk_;
  size_t budget_bytes_;
  std::vector<Frame> frames_;           ///< Resident and free frames.
  std::vector<uint32_t> free_frames_;   ///< Allocated frames not resident.
  std::vector<uint32_t> page_frame_;    ///< Page id -> resident frame.
  size_t resident_ = 0;
  size_t charged_ = 0;                  ///< Sum of the resident charges.
  uint32_t lru_head_ = kNoFrame;        ///< Least recently used.
  uint32_t lru_tail_ = kNoFrame;        ///< Most recently used.
  BufferPoolStats stats_;
};

}  // namespace kwsdbg

#endif  // KWSDBG_STORAGE_BUFFER_POOL_H_
