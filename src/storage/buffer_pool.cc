#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/logging.h"

namespace kwsdbg {

namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool GetPod(const char* data, size_t size, size_t* pos, T* out) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

Status ParseError(const std::string& what) {
  return Status::ParseError("spill page " + what);
}

// Reads the encoded row starting at *pos — its arity bound, tags and
// lengths — and advances *pos past it. With `out` non-null the cells are
// decoded into it (reusing its capacity); with null the row is only checked
// and skipped. Every decode goes through it, and it words every kParseError
// a row can give.
Status ParseRow(const char* data, size_t size, size_t* pos, Tuple* out) {
  uint16_t arity = 0;
  if (!GetPod(data, size, pos, &arity)) {
    return ParseError("truncated: missing arity");
  }
  // A cell needs at least its 1-byte tag.
  if (arity > size - *pos) {
    return ParseError("corrupt: " + std::to_string(arity) +
                      " cells cannot fit in " + std::to_string(size - *pos) +
                      " bytes");
  }
  if (out != nullptr) {
    out->clear();
    out->reserve(arity);
  }
  for (uint16_t c = 0; c < arity; ++c) {
    if (*pos >= size) return ParseError("truncated: missing tag");
    const uint8_t tag = static_cast<uint8_t>(data[(*pos)++]);
    switch (tag) {
      case kTagNull:
        if (out != nullptr) out->emplace_back();
        break;
      case kTagInt: {
        uint64_t bits = 0;
        if (!GetPod(data, size, pos, &bits)) {
          return ParseError("truncated: int payload");
        }
        if (out != nullptr) out->emplace_back(static_cast<int64_t>(bits));
        break;
      }
      case kTagDouble: {
        uint64_t bits = 0;
        if (!GetPod(data, size, pos, &bits)) {
          return ParseError("truncated: double payload");
        }
        if (out != nullptr) {
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          out->emplace_back(d);
        }
        break;
      }
      case kTagString: {
        uint32_t len = 0;
        if (!GetPod(data, size, pos, &len)) {
          return ParseError("truncated: string length");
        }
        if (len > size - *pos) return ParseError("truncated: string payload");
        if (out != nullptr) out->emplace_back(std::string(data + *pos, len));
        *pos += len;
        break;
      }
      default:
        return ParseError("corrupt: unknown value tag " +
                          std::to_string(tag));
    }
  }
  return Status::OK();
}

// The check-only scan: exactly ParseRow's checks, in its order (the arity
// bound, a tag present, the int/double payload, the string length and
// payload bounds, a known tag), with no Status and nothing allocated. True
// iff ParseRow would accept the row; advances *pos past it only then.
inline bool RowIsWellFormed(const char* data, size_t size, size_t* pos) {
  size_t p = *pos;
  if (size - p < sizeof(uint16_t)) return false;
  uint16_t arity;
  std::memcpy(&arity, data + p, sizeof(arity));
  p += sizeof(arity);
  if (arity > size - p) return false;
  for (uint16_t c = 0; c < arity; ++c) {
    if (p >= size) return false;
    const uint8_t tag = static_cast<uint8_t>(data[p++]);
    if (tag == kTagInt || tag == kTagDouble) {
      if (size - p < sizeof(uint64_t)) return false;
      p += sizeof(uint64_t);
    } else if (tag == kTagString) {
      if (size - p < sizeof(uint32_t)) return false;
      uint32_t len;
      std::memcpy(&len, data + p, sizeof(len));
      p += sizeof(len);
      if (len > size - p) return false;
      p += len;
    } else if (tag != kTagNull) {
      return false;
    }
  }
  *pos = p;
  return true;
}

// The validating walk: checks the whole block with the check-only scan and,
// with `offsets` non-null, records where each row starts (the caller keeps
// the block under 2^31 bytes then). Only a failing row goes through
// ParseRow, for its kParseError. Allocates only `offsets`.
Status WalkRows(const char* data, size_t size,
                std::vector<uint32_t>* offsets) {
  size_t pos = 0;
  uint32_t num_rows = 0;
  if (!GetPod(data, size, &pos, &num_rows)) {
    return ParseError("truncated: missing row count");
  }
  // Counts come from the input, so bound them by the bytes left before they
  // size an allocation: a row needs at least its 2-byte arity.
  if (num_rows > (size - pos) / sizeof(uint16_t)) {
    return ParseError("corrupt: " + std::to_string(num_rows) +
                      " rows cannot fit in " + std::to_string(size - pos) +
                      " bytes");
  }
  if (offsets != nullptr) {
    offsets->clear();
    offsets->reserve(num_rows);
  }
  for (uint32_t i = 0; i < num_rows; ++i) {
    const size_t start = pos;
    if (!RowIsWellFormed(data, size, &pos)) {
      Status st = ParseRow(data, size, &pos, nullptr);
      KWSDBG_CHECK(!st.ok()) << "check-only scan rejected a row ParseRow "
                                "accepts at byte "
                             << start;
      return st;
    }
    if (offsets != nullptr) offsets->push_back(static_cast<uint32_t>(start));
  }
  return Status::OK();
}

}  // namespace

size_t EncodedRowSize(const Tuple& row) {
  size_t bytes = sizeof(uint16_t);  // arity
  for (const Value& v : row) {
    bytes += 1;  // tag
    if (v.is_int() || v.is_double()) {
      bytes += 8;
    } else if (v.is_string()) {
      bytes += sizeof(uint32_t) + v.AsString().size();
    }
  }
  return bytes;
}

size_t EncodedRowsSize(const std::vector<Tuple>& rows) {
  size_t bytes = sizeof(uint32_t);  // row count
  for (const Tuple& r : rows) bytes += EncodedRowSize(r);
  return bytes;
}

void EncodeRows(const std::vector<Tuple>& rows, std::string* out) {
  PutU32(out, static_cast<uint32_t>(rows.size()));
  for (const Tuple& r : rows) {
    PutU16(out, static_cast<uint16_t>(r.size()));
    for (const Value& v : r) {
      if (v.is_null()) {
        out->push_back(static_cast<char>(kTagNull));
      } else if (v.is_int()) {
        out->push_back(static_cast<char>(kTagInt));
        PutU64(out, static_cast<uint64_t>(v.AsInt()));
      } else if (v.is_double()) {
        out->push_back(static_cast<char>(kTagDouble));
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(out, bits);
      } else {
        const std::string& s = v.AsString();
        out->push_back(static_cast<char>(kTagString));
        PutU32(out, static_cast<uint32_t>(s.size()));
        out->append(s);
      }
    }
  }
}

Status DecodeRows(const char* data, size_t size, std::vector<Tuple>* out) {
  KWSDBG_RETURN_NOT_OK(WalkRows(data, size, nullptr));
  uint32_t num_rows = 0;
  size_t pos = 0;
  GetPod(data, size, &pos, &num_rows);
  out->clear();
  out->resize(num_rows);
  for (Tuple& row : *out) {
    KWSDBG_RETURN_NOT_OK(ParseRow(data, size, &pos, &row));
  }
  return Status::OK();
}

BufferPool::BufferPool(DiskManager* disk, size_t budget_bytes)
    : disk_(disk), budget_bytes_(budget_bytes) {}

size_t BufferPool::capacity() const {
  return std::max(kMinFrames,
                  budget_bytes_ / (sizeof(Frame) + disk_->page_size()));
}

size_t BufferPool::ContainerBytes(const Frame& f) {
  return sizeof(Frame) + f.image_size +
         f.row_at.capacity() * sizeof(uint32_t) +
         f.slot_chunks.capacity() * sizeof(f.slot_chunks[0]) +
         f.slot_chunks.size() * kSlotChunk * sizeof(Tuple);
}

size_t BufferPool::DecodedBytes(const Frame& f) {
  size_t bytes = 0;
  for (uint32_t s = 0; s < f.num_slots; ++s) {
    bytes += EstimateTupleBytes(Slot(f, s));
  }
  return bytes;
}

size_t BufferPool::RecountBytes() const {
  size_t bytes = 0;
  for (uint32_t idx = lru_head_; idx != kNoFrame;
       idx = frames_[idx].lru_next) {
    bytes += ContainerBytes(frames_[idx]) + DecodedBytes(frames_[idx]);
  }
  return bytes;
}

void BufferPool::Recharge(Frame* f) {
  charged_ -= f->charge;
  f->charge = ContainerBytes(*f) + f->decoded_bytes;
  charged_ += f->charge;
}

void BufferPool::LinkMru(uint32_t idx) {
  Frame& f = frames_[idx];
  f.lru_prev = lru_tail_;
  f.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) {
    frames_[lru_tail_].lru_next = idx;
  } else {
    lru_head_ = idx;
  }
  lru_tail_ = idx;
}

void BufferPool::Unlink(uint32_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
}

void BufferPool::Release(uint32_t idx) {
  Frame& f = frames_[idx];
  f.image.reset();
  f.image_size = 0;
  std::vector<uint32_t>().swap(f.row_at);
  std::vector<std::unique_ptr<Tuple[]>>().swap(f.slot_chunks);
  f.num_slots = 0;
  f.decoded_bytes = 0;
  charged_ -= f.charge;
  f.charge = 0;
  free_frames_.push_back(idx);
}

void BufferPool::Drop(uint32_t idx) {
  Unlink(idx);
  Frame& f = frames_[idx];
  page_frame_[f.first_page] = kNoFrame;
  --resident_;
  Release(idx);
}

void BufferPool::MakeRoom() {
  while (charged_ > budget_bytes_ && resident_ >= kMinFrames) {
    Drop(lru_head_);
    ++stats_.page_evictions;
  }
}

const Tuple* BufferPool::DecodeRow(Frame* f, size_t row) {
  uint32_t& at = f->row_at[row];
  if (at & kDecoded) return &Slot(*f, at & ~kDecoded);
  const uint32_t slot = f->num_slots++;
  if (slot % kSlotChunk == 0) {
    f->slot_chunks.push_back(std::make_unique<Tuple[]>(kSlotChunk));
  }
  Tuple& out = Slot(*f, slot);
  size_t pos = at;
  // The walk checked every row of the image, so this parse cannot fail.
  Status st = ParseRow(f->image.get(), f->image_size, &pos, &out);
  KWSDBG_DCHECK(st.ok()) << st.ToString();
  at = kDecoded | slot;
  f->decoded_bytes += EstimateTupleBytes(out);
  Recharge(f);
  return &out;
}

StatusOr<const Tuple*> BufferPool::Fetch(uint64_t first_page,
                                         uint32_t num_pages, size_t row) {
  uint32_t idx = FrameOf(first_page);
  const bool miss = idx == kNoFrame;
  if (!miss) {
    Unlink(idx);  // move to the MRU position
    LinkMru(idx);
    ++stats_.page_hits;
  } else {
    ++stats_.page_misses;
    const size_t image_size =
        static_cast<size_t>(num_pages) * disk_->page_size();
    if (image_size >= kDecoded) {
      return Status::OutOfRange("extent at page " +
                                std::to_string(first_page) + " of " +
                                std::to_string(image_size) +
                                " bytes is too large for a frame");
    }
    if (free_frames_.empty()) {
      // Growing frames_ moves frames; their slots are behind pointers and
      // stay where they are.
      static_assert(std::is_nothrow_move_constructible_v<Frame>);
      free_frames_.push_back(static_cast<uint32_t>(frames_.size()));
      frames_.emplace_back();
    }
    idx = free_frames_.back();
    free_frames_.pop_back();
    Frame& f = frames_[idx];
    f.image.reset(new char[image_size]);
    f.image_size = image_size;
    Status read = disk_->ReadPages(first_page, num_pages, f.image.get());
    if (read.ok()) read = WalkRows(f.image.get(), image_size, &f.row_at);
    if (!read.ok()) {
      Release(idx);
      return read;
    }
    f.first_page = first_page;
    Recharge(&f);
  }
  Frame& f = frames_[idx];
  const Tuple* out = row < f.row_at.size() ? DecodeRow(&f, row) : nullptr;
  if (miss) {
    // After the decode, so the pool fits its budget once the miss is done.
    // The frame is charged but not linked, so it cannot be its own victim.
    MakeRoom();
    if (first_page >= page_frame_.size()) {
      page_frame_.resize(
          std::max<uint64_t>(first_page + 1, disk_->num_pages()), kNoFrame);
    }
    page_frame_[first_page] = idx;
    ++resident_;
    LinkMru(idx);
  }
  if (out == nullptr) {
    return Status::OutOfRange("row " + std::to_string(row) + " past the " +
                              std::to_string(f.row_at.size()) +
                              " rows of the extent at page " +
                              std::to_string(first_page));
  }
  return out;
}

}  // namespace kwsdbg
