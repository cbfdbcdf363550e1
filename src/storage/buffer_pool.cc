#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

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
// and skipped. This is the codec's one parser: the buffer pool's validating
// walk and every decode go through it.
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

// The validating walk: checks the whole block without decoding a cell and
// records where each row starts. Allocates only `offsets`, and a reused
// vector not even that.
Status IndexRows(const char* data, size_t size, std::vector<size_t>* offsets) {
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
  offsets->clear();
  offsets->reserve(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    offsets->push_back(pos);
    KWSDBG_RETURN_NOT_OK(ParseRow(data, size, &pos, nullptr));
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
  std::vector<size_t> offsets;
  KWSDBG_RETURN_NOT_OK(IndexRows(data, size, &offsets));
  out->clear();
  out->resize(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    KWSDBG_RETURN_NOT_OK(ParseRow(data, size, &offsets[i], &(*out)[i]));
  }
  return Status::OK();
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity < kMinCapacity ? kMinCapacity
                                                     : capacity) {}

BufferPool::~BufferPool() {
  // Dirty frames are intentionally not written back here: the pool dies with
  // its database, whose spill file is removed anyway.
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

void BufferPool::Unmap(uint32_t idx) {
  Unlink(idx);
  Frame& f = frames_[idx];
  page_frame_[f.first_page] = kNoFrame;
  f.dirty = false;
  f.pins = 0;
  f.writer = nullptr;
}

StatusOr<uint32_t> BufferPool::TakeFrame() {
  // Growing frames_ moves frames; a nothrow move keeps each frame's row
  // slots (and every reference into them) where they are.
  static_assert(std::is_nothrow_move_constructible_v<Frame>);
  if (num_frames() < capacity_) {
    if (free_frames_.empty()) {
      frames_.emplace_back();
      return static_cast<uint32_t>(frames_.size() - 1);
    }
    const uint32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  for (uint32_t idx = lru_head_; idx != kNoFrame;
       idx = frames_[idx].lru_next) {
    Frame& f = frames_[idx];
    if (f.pins > 0) continue;
    if (f.dirty) {
      KWSDBG_RETURN_NOT_OK(f.writer->WriteBack(f.first_page, f.rows));
      ++stats_.write_backs;
    }
    Unmap(idx);
    ++stats_.page_evictions;
    return idx;
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all " + std::to_string(capacity_) +
      " frames are pinned");
}

StatusOr<BufferPool::Frame*> BufferPool::FetchFrame(uint64_t first_page,
                                                    uint32_t num_pages,
                                                    size_t row,
                                                    PageWriter* writer) {
  uint32_t idx = FrameOf(first_page);
  if (idx != kNoFrame) {
    Unlink(idx);  // move to the MRU position
    LinkMru(idx);
    ++stats_.page_hits;
  } else {
    ++stats_.page_misses;
    KWSDBG_ASSIGN_OR_RETURN(idx, TakeFrame());
    Frame& f = frames_[idx];
    f.bytes.resize(static_cast<size_t>(num_pages) * disk_->page_size());
    Status read = disk_->ReadPages(first_page, num_pages, f.bytes.data());
    if (read.ok()) read = IndexRows(f.bytes.data(), f.bytes.size(), &f.offsets);
    if (!read.ok()) {
      free_frames_.push_back(idx);
      return read;
    }
    f.first_page = first_page;
    f.writer = writer;
    f.rows.resize(f.offsets.size());
    f.decoded.assign(f.offsets.size(), 0);
    if (first_page >= page_frame_.size()) {
      page_frame_.resize(
          std::max<uint64_t>(first_page + 1, disk_->num_pages()), kNoFrame);
    }
    page_frame_[first_page] = idx;
    LinkMru(idx);
  }
  Frame* f = &frames_[idx];
  if (row >= f->offsets.size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " past the " +
                              std::to_string(f->offsets.size()) +
                              " rows of the extent at page " +
                              std::to_string(first_page));
  }
  return f;
}

Status BufferPool::DecodeRow(Frame* f, size_t row) {
  if (f->decoded[row]) return Status::OK();
  size_t pos = f->offsets[row];
  KWSDBG_RETURN_NOT_OK(
      ParseRow(f->bytes.data(), f->bytes.size(), &pos, &f->rows[row]));
  f->decoded[row] = 1;
  return Status::OK();
}

StatusOr<const Tuple*> BufferPool::Fetch(uint64_t first_page,
                                         uint32_t num_pages, size_t row,
                                         PageWriter* writer) {
  KWSDBG_ASSIGN_OR_RETURN(Frame * f,
                          FetchFrame(first_page, num_pages, row, writer));
  KWSDBG_RETURN_NOT_OK(DecodeRow(f, row));
  return const_cast<const Tuple*>(&f->rows[row]);
}

StatusOr<Tuple*> BufferPool::FetchMutable(uint64_t first_page,
                                          uint32_t num_pages, size_t row,
                                          PageWriter* writer) {
  KWSDBG_ASSIGN_OR_RETURN(Frame * f,
                          FetchFrame(first_page, num_pages, row, writer));
  // Write-back re-encodes the whole extent from the slots.
  for (size_t i = 0; i < f->rows.size(); ++i) {
    KWSDBG_RETURN_NOT_OK(DecodeRow(f, i));
  }
  f->dirty = true;
  return &f->rows[row];
}

void BufferPool::Pin(uint64_t first_page) {
  const uint32_t idx = FrameOf(first_page);
  if (idx != kNoFrame) ++frames_[idx].pins;
}

void BufferPool::Unpin(uint64_t first_page) {
  const uint32_t idx = FrameOf(first_page);
  if (idx != kNoFrame && frames_[idx].pins > 0) --frames_[idx].pins;
}

Status BufferPool::FlushAll() {
  for (uint32_t idx = lru_head_; idx != kNoFrame;
       idx = frames_[idx].lru_next) {
    Frame& f = frames_[idx];
    if (!f.dirty) continue;
    KWSDBG_RETURN_NOT_OK(f.writer->WriteBack(f.first_page, f.rows));
    f.dirty = false;
    ++stats_.write_backs;
  }
  return Status::OK();
}

void BufferPool::DropAll() {
  while (lru_head_ != kNoFrame) {
    free_frames_.push_back(lru_head_);
    Unmap(lru_head_);
  }
}

}  // namespace kwsdbg
