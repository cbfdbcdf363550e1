#include "storage/buffer_pool.h"

#include <cstring>
#include <string>

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
  size_t pos = 0;
  uint32_t num_rows = 0;
  if (!GetPod(data, size, &pos, &num_rows)) {
    return Status::ParseError("spill page truncated: missing row count");
  }
  // Counts come from the input, so bound them by the bytes left before they
  // size an allocation: a row needs at least its 2-byte arity, a cell its
  // 1-byte tag.
  if (num_rows > (size - pos) / sizeof(uint16_t)) {
    return Status::ParseError("spill page corrupt: " +
                              std::to_string(num_rows) +
                              " rows cannot fit in " +
                              std::to_string(size - pos) + " bytes");
  }
  out->clear();
  out->reserve(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    uint16_t arity = 0;
    if (!GetPod(data, size, &pos, &arity)) {
      return Status::ParseError("spill page truncated: missing arity");
    }
    if (arity > size - pos) {
      return Status::ParseError("spill page corrupt: " +
                                std::to_string(arity) +
                                " cells cannot fit in " +
                                std::to_string(size - pos) + " bytes");
    }
    Tuple row;
    row.reserve(arity);
    for (uint16_t c = 0; c < arity; ++c) {
      if (pos >= size) {
        return Status::ParseError("spill page truncated: missing tag");
      }
      uint8_t tag = static_cast<uint8_t>(data[pos++]);
      switch (tag) {
        case kTagNull:
          row.push_back(Value::Null());
          break;
        case kTagInt: {
          uint64_t bits = 0;
          if (!GetPod(data, size, &pos, &bits)) {
            return Status::ParseError("spill page truncated: int payload");
          }
          row.emplace_back(static_cast<int64_t>(bits));
          break;
        }
        case kTagDouble: {
          uint64_t bits = 0;
          if (!GetPod(data, size, &pos, &bits)) {
            return Status::ParseError("spill page truncated: double payload");
          }
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          row.emplace_back(d);
          break;
        }
        case kTagString: {
          uint32_t len = 0;
          if (!GetPod(data, size, &pos, &len)) {
            return Status::ParseError("spill page truncated: string length");
          }
          if (pos + len > size) {
            return Status::ParseError("spill page truncated: string payload");
          }
          row.emplace_back(std::string(data + pos, len));
          pos += len;
          break;
        }
        default:
          return Status::ParseError("spill page corrupt: unknown value tag " +
                                    std::to_string(tag));
      }
    }
    out->push_back(std::move(row));
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

StatusOr<BufferPool::Frame*> BufferPool::FetchFrame(uint64_t first_page,
                                                    uint32_t num_pages,
                                                    PageWriter* writer) {
  auto it = frames_.find(first_page);
  if (it != frames_.end()) {
    Frame* f = it->second.get();
    lru_.splice(lru_.end(), lru_, f->lru_pos);  // move to MRU position
    ++stats_.page_hits;
    return f;
  }
  ++stats_.page_misses;
  while (frames_.size() >= capacity_) {
    KWSDBG_RETURN_NOT_OK(EvictOne());
  }
  io_buf_.resize(static_cast<size_t>(num_pages) * disk_->page_size());
  KWSDBG_RETURN_NOT_OK(disk_->ReadPages(first_page, num_pages, io_buf_.data()));
  auto frame = std::make_unique<Frame>();
  frame->first_page = first_page;
  frame->num_pages = num_pages;
  frame->writer = writer;
  KWSDBG_RETURN_NOT_OK(
      DecodeRows(io_buf_.data(), io_buf_.size(), &frame->rows));
  Frame* f = frame.get();
  lru_.push_back(first_page);
  f->lru_pos = std::prev(lru_.end());
  frames_.emplace(first_page, std::move(frame));
  return f;
}

Status BufferPool::EvictOne() {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Frame* f = frames_.at(*it).get();
    if (f->pins > 0) continue;
    if (f->dirty) {
      KWSDBG_RETURN_NOT_OK(f->writer->WriteBack(f->first_page, f->rows));
      ++stats_.write_backs;
    }
    frames_.erase(f->first_page);
    lru_.erase(it);
    ++stats_.page_evictions;
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all " + std::to_string(capacity_) +
      " frames are pinned");
}

StatusOr<const std::vector<Tuple>*> BufferPool::Fetch(uint64_t first_page,
                                                      uint32_t num_pages,
                                                      PageWriter* writer) {
  KWSDBG_ASSIGN_OR_RETURN(Frame * f,
                          FetchFrame(first_page, num_pages, writer));
  return const_cast<const std::vector<Tuple>*>(&f->rows);
}

StatusOr<std::vector<Tuple>*> BufferPool::FetchMutable(uint64_t first_page,
                                                       uint32_t num_pages,
                                                       PageWriter* writer) {
  KWSDBG_ASSIGN_OR_RETURN(Frame * f,
                          FetchFrame(first_page, num_pages, writer));
  f->dirty = true;
  return &f->rows;
}

void BufferPool::Pin(uint64_t first_page) {
  auto it = frames_.find(first_page);
  if (it != frames_.end()) ++it->second->pins;
}

void BufferPool::Unpin(uint64_t first_page) {
  auto it = frames_.find(first_page);
  if (it != frames_.end() && it->second->pins > 0) --it->second->pins;
}

Status BufferPool::FlushAll() {
  for (auto& [page, frame] : frames_) {
    if (!frame->dirty) continue;
    KWSDBG_RETURN_NOT_OK(frame->writer->WriteBack(frame->first_page,
                                                  frame->rows));
    frame->dirty = false;
    ++stats_.write_backs;
  }
  return Status::OK();
}

void BufferPool::DropAll() {
  frames_.clear();
  lru_.clear();
}

void BufferPool::Drop(uint64_t first_page) {
  auto it = frames_.find(first_page);
  if (it == frames_.end()) return;
  lru_.erase(it->second->lru_pos);
  frames_.erase(it);
}

}  // namespace kwsdbg
