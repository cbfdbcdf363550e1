#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "storage/buffer_pool.h"
#include "storage/io_util.h"

namespace kwsdbg {

namespace {

constexpr uint32_t kWalMagic = 0x4C41574Bu;  // 'KWAL'
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 16;      // magic + version + base_seq
constexpr size_t kFrameHeaderSize = 8;  // payload_len + checksum

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little cursor over a payload.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, 1); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  bool ReadString(std::string* v) {
    uint32_t len;
    if (!ReadU32(&len) || size_ - pos_ < len) return false;
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }
  const char* rest() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool ReadRaw(void* v, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

std::string EncodeHeader(uint64_t base_seq) {
  std::string out;
  PutU32(&out, kWalMagic);
  PutU32(&out, kWalVersion);
  PutU64(&out, base_seq);
  return out;
}

std::string EncodeCompactPayload(const std::string& table) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecord::Kind::kCompact));
  PutString(&out, table);
  return out;
}

Status DecodePayload(const char* data, size_t size, WalRecord* out) {
  Reader r(data, size);
  uint8_t kind_byte;
  if (!r.ReadU8(&kind_byte)) {
    return Status::DataLoss("WAL payload too short for record kind");
  }
  if (kind_byte == static_cast<uint8_t>(WalRecord::Kind::kCompact)) {
    out->kind = WalRecord::Kind::kCompact;
    if (!r.ReadString(&out->table)) {
      return Status::DataLoss("WAL compact record truncated");
    }
    return Status::OK();
  }
  if (kind_byte != static_cast<uint8_t>(WalRecord::Kind::kMutation)) {
    return Status::DataLoss("unknown WAL record kind " +
                            std::to_string(kind_byte));
  }
  out->kind = WalRecord::Kind::kMutation;
  uint8_t mkind;
  Mutation& m = out->mutation;
  if (!r.ReadU8(&mkind) || !r.ReadString(&m.table)) {
    return Status::DataLoss("WAL mutation record truncated");
  }
  m.kind = static_cast<Mutation::Kind>(mkind);
  switch (m.kind) {
    case Mutation::Kind::kInsert: {
      std::string rows;
      if (!r.ReadString(&rows)) {
        return Status::DataLoss("WAL insert record truncated");
      }
      std::vector<Tuple> decoded;
      KWSDBG_RETURN_NOT_OK(DecodeRows(rows.data(), rows.size(), &decoded));
      if (decoded.size() != 1) {
        return Status::DataLoss("WAL insert record holds " +
                                std::to_string(decoded.size()) + " rows");
      }
      m.row = std::move(decoded[0]);
      break;
    }
    case Mutation::Kind::kDelete: {
      uint64_t row_id;
      if (!r.ReadU64(&row_id)) {
        return Status::DataLoss("WAL delete record truncated");
      }
      m.row_id = row_id;
      break;
    }
    case Mutation::Kind::kUpdate: {
      uint64_t row_id, column;
      std::string cell;
      if (!r.ReadU64(&row_id) || !r.ReadU64(&column) || !r.ReadString(&cell)) {
        return Status::DataLoss("WAL update record truncated");
      }
      std::vector<Tuple> decoded;
      KWSDBG_RETURN_NOT_OK(DecodeRows(cell.data(), cell.size(), &decoded));
      if (decoded.size() != 1 || decoded[0].size() != 1) {
        return Status::DataLoss("WAL update record cell malformed");
      }
      m.row_id = row_id;
      m.column = column;
      m.value = std::move(decoded[0][0]);
      break;
    }
    default:
      return Status::DataLoss("unknown WAL mutation kind " +
                              std::to_string(mkind));
  }
  return Status::OK();
}

/// Checks whether a well-formed frame (length in range, checksum matches)
/// starts anywhere in [from, size). Used to tell a torn tail (no valid
/// frame follows the bad bytes) from mid-log corruption (one does).
bool HasValidFrameAfter(const char* data, size_t size, size_t from) {
  for (size_t off = from; off + kFrameHeaderSize <= size; ++off) {
    uint32_t len, checksum;
    std::memcpy(&len, data + off, 4);
    std::memcpy(&checksum, data + off + 4, 4);
    if (len == 0 || len > kWalMaxPayload) continue;
    if (off + kFrameHeaderSize + len > size) continue;
    if (Checksum32(data + off + kFrameHeaderSize, len) == checksum) {
      return true;
    }
  }
  return false;
}

struct ScanResult {
  uint64_t base_seq = 0;
  std::vector<WalRecord> records;
  size_t valid_end = 0;          ///< Byte offset past the last valid frame.
  uint64_t torn_tail_bytes = 0;  ///< Bytes after valid_end (dropped).
};

Status ScanWal(const std::string& bytes, const std::string& path,
               ScanResult* out) {
  if (bytes.size() < kHeaderSize) {
    // A file this short can only be a crash during creation: drop it all.
    out->valid_end = 0;
    out->torn_tail_bytes = bytes.size();
    return Status::OK();
  }
  Reader header(bytes.data(), kHeaderSize);
  uint32_t magic = 0, version = 0;
  header.ReadU32(&magic);
  header.ReadU32(&version);
  header.ReadU64(&out->base_seq);
  if (magic != kWalMagic) {
    return Status::DataLoss("WAL " + path + " has bad magic");
  }
  if (version != kWalVersion) {
    return Status::DataLoss("WAL " + path + " has unsupported version " +
                            std::to_string(version));
  }
  size_t pos = kHeaderSize;
  uint64_t seq = out->base_seq;
  while (pos < bytes.size()) {
    KWSDBG_FAULT_POINT("storage.wal.replay");
    bool frame_ok = false;
    uint32_t len = 0;
    if (bytes.size() - pos >= kFrameHeaderSize) {
      uint32_t checksum;
      std::memcpy(&len, bytes.data() + pos, 4);
      std::memcpy(&checksum, bytes.data() + pos + 4, 4);
      if (len > 0 && len <= kWalMaxPayload &&
          bytes.size() - pos - kFrameHeaderSize >= len &&
          Checksum32(bytes.data() + pos + kFrameHeaderSize, len) ==
              checksum) {
        frame_ok = true;
      }
    }
    if (!frame_ok) {
      if (HasValidFrameAfter(bytes.data(), bytes.size(), pos + 1)) {
        return Status::DataLoss(
            "WAL " + path + " corrupt at offset " + std::to_string(pos) +
            " with valid frames after it");
      }
      out->torn_tail_bytes = bytes.size() - pos;
      break;
    }
    WalRecord record;
    const Status st =
        DecodePayload(bytes.data() + pos + kFrameHeaderSize, len, &record);
    if (!st.ok()) {
      // The checksum matched, so these bytes were written as-is: a decode
      // failure is real corruption (or a version skew), never a torn tail.
      return Status::DataLoss("WAL " + path + " frame at offset " +
                              std::to_string(pos) +
                              " undecodable: " + st.message());
    }
    record.seq = ++seq;
    out->records.push_back(std::move(record));
    pos += kFrameHeaderSize + len;
  }
  out->valid_end = pos < bytes.size() ? pos : bytes.size();
  return Status::OK();
}

/// Crash-atomically (re)creates the log at `path` as a bare header with the
/// given base_seq: the file is staged at `<path>.tmp`, fsynced, renamed
/// over `path`, and the directory fsynced. Power loss at any instant
/// leaves either whatever `path` held before or the complete new log —
/// never a zero-length or half-written file, and never a new header with
/// stale frames behind it. Returns an fd positioned on the new log.
StatusOr<int> CreateFreshWal(const std::string& path, uint64_t base_seq,
                             const char* what) {
  const std::string tmp = path + ".tmp";
  KWSDBG_ASSIGN_OR_RETURN(int fd,
                          OpenFd(tmp, O_RDWR | O_CREAT | O_TRUNC, 0644, what));
  const std::string header = EncodeHeader(base_seq);
  Status st = WriteFullAt(fd, header.data(), header.size(), 0, what);
  if (st.ok()) st = SyncFd(fd, what);
  if (st.ok() && FaultInjector::Enabled()) {
    // The staged log is durable but the live one untouched: the crash wall
    // kills here to prove either complete log recovers.
    st = FaultInjector::Global().Hit("storage.wal.truncate");
  }
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal(std::string(what) + ": rename: " +
                          std::string(std::strerror(errno)));
  }
  if (st.ok()) st = SyncDir(DirnameOf(path), what);
  if (!st.ok()) {
    CloseFd(&fd, what);
    ::unlink(tmp.c_str());  // Best effort; a leftover stage is ignored.
    return st;
  }
  return fd;
}

}  // namespace

std::string EncodeWalMutation(const Mutation& m) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecord::Kind::kMutation));
  PutU8(&out, static_cast<uint8_t>(m.kind));
  PutString(&out, m.table);
  switch (m.kind) {
    case Mutation::Kind::kInsert: {
      std::string rows;
      EncodeRows({m.row}, &rows);
      PutString(&out, rows);
      break;
    }
    case Mutation::Kind::kDelete:
      PutU64(&out, m.row_id);
      break;
    case Mutation::Kind::kUpdate: {
      PutU64(&out, m.row_id);
      PutU64(&out, m.column);
      std::string cell;
      EncodeRows({Tuple{m.value}}, &cell);
      PutString(&out, cell);
      break;
    }
  }
  return out;
}

StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view s) {
  if (s == "every" || s == "every-record" || s == "always") {
    return FsyncPolicy::kEveryRecord;
  }
  if (s == "group" || s == "group-commit") return FsyncPolicy::kGroupCommit;
  if (s == "off" || s == "none") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" + std::string(s) +
                                 "' (want: every | group | off)");
}

const char* FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "every";
    case FsyncPolicy::kGroupCommit:
      return "group";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

StatusOr<WalReplayResult> ReadWal(const std::string& path) {
  auto bytes_or = ReadFileToString(path);
  if (!bytes_or.ok()) {
    if (bytes_or.status().code() == StatusCode::kNotFound) {
      return WalReplayResult{};
    }
    return bytes_or.status();
  }
  ScanResult scan;
  KWSDBG_RETURN_NOT_OK(ScanWal(*bytes_or, path, &scan));
  WalReplayResult out;
  out.exists = true;
  out.base_seq = scan.base_seq;
  out.records = std::move(scan.records);
  out.torn_tail_bytes = scan.torn_tail_bytes;
  return out;
}

WalWriter::WalWriter(std::string path, int fd, WalOptions options,
                     uint64_t base_seq, uint64_t record_count,
                     uint64_t file_end)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      base_seq_(base_seq),
      last_seq_(base_seq + record_count),
      durable_seq_(base_seq + record_count),
      flushed_seq_(base_seq + record_count),
      file_end_(file_end) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     WalOptions options,
                                                     uint64_t covered_seq) {
  auto existing = ReadFileToString(path);
  uint64_t base_seq = covered_seq;
  uint64_t record_count = 0;
  size_t valid_end = kHeaderSize;
  bool fresh = true;
  if (existing.ok()) {
    ScanResult scan;
    KWSDBG_RETURN_NOT_OK(ScanWal(*existing, path, &scan));
    if (scan.valid_end == 0) {
      // Crash during creation left a stub with no usable header: recreate.
      fresh = true;
    } else if (scan.base_seq > covered_seq) {
      return Status::DataLoss(
          "WAL " + path + " starts at seq " + std::to_string(scan.base_seq) +
          " but the checkpoint covers only " + std::to_string(covered_seq) +
          "; the covering checkpoint is gone");
    } else if (scan.base_seq + scan.records.size() < covered_seq) {
      // Every surviving frame is at or below the covered seq: the log is
      // wholly superseded by the snapshot (an unfsynced suffix the
      // checkpoint made durable vanished in a crash before truncation).
      // Restart at the covered boundary — adopting the short log as-is
      // would hand out seqs the next recovery skips as already covered.
      fresh = true;
    } else {
      fresh = false;
      base_seq = scan.base_seq;
      record_count = scan.records.size();
      valid_end = scan.valid_end;
    }
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }

  int fd = -1;
  if (fresh) {
    base_seq = covered_seq;
    record_count = 0;
    valid_end = kHeaderSize;
    KWSDBG_ASSIGN_OR_RETURN(
        fd, CreateFreshWal(path, covered_seq, "WalWriter::Open"));
  } else {
    KWSDBG_ASSIGN_OR_RETURN(fd, OpenFd(path, O_RDWR, 0644, "WalWriter::Open"));
    Status st = Status::OK();
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      // Chop any torn tail so new frames land on a frame boundary.
      st = Status::Internal("WalWriter::Open: ftruncate: " +
                            std::string(std::strerror(errno)));
    }
    if (st.ok()) st = SyncFd(fd, "WalWriter::Open");
    if (!st.ok()) {
      CloseFd(&fd, "WalWriter::Open");
      return st;
    }
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, options, base_seq, record_count, valid_end));
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    // Best-effort flush; a clean shutdown path calls Sync() explicitly.
    if (!buffer_.empty()) {
      WriteFullAt(fd_, buffer_.data(), buffer_.size(),
                  static_cast<off_t>(file_end_), "WalWriter::~WalWriter");
    }
    CloseFd(&fd_, "WalWriter::~WalWriter");
  }
}

Status WalWriter::AppendPayload(const std::string& payload,
                                uint64_t* seq_out) {
  KWSDBG_FAULT_POINT("storage.wal.append");
  if (payload.size() > kWalMaxPayload) {
    // Replay treats len > kWalMaxPayload as an invalid frame; writing one
    // would acknowledge a record that recovery drops or flags kDataLoss.
    return Status::InvalidArgument(
        "WAL payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kWalMaxPayload) +
        "-byte frame limit");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    return Status::FailedPrecondition("WAL writer is closed");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = Checksum32(payload.data(), payload.size());
  buffer_.append(reinterpret_cast<const char*>(&len), 4);
  buffer_.append(reinterpret_cast<const char*>(&checksum), 4);
  buffer_.append(payload);
  const uint64_t seq = ++last_seq_;
  stats_.records_appended++;
  stats_.bytes_appended += kFrameHeaderSize + payload.size();

  Status st = Status::OK();
  switch (options_.fsync_policy) {
    case FsyncPolicy::kEveryRecord:
      st = FlushLocked(/*sync=*/true);
      break;
    case FsyncPolicy::kGroupCommit:
      if (last_seq_ - flushed_seq_ >= options_.group_commit_records ||
          buffer_.size() >= options_.group_commit_bytes) {
        st = FlushLocked(/*sync=*/true);
      }
      break;
    case FsyncPolicy::kOff:
      // Bound the user-space buffer; the OS page cache takes it from here.
      if (buffer_.size() >= options_.group_commit_bytes) {
        st = FlushLocked(/*sync=*/false);
      }
      break;
  }
  KWSDBG_RETURN_NOT_OK(st);
  if (seq_out != nullptr) *seq_out = seq;
  return Status::OK();
}

Status WalWriter::FlushLocked(bool sync) {
  if (!buffer_.empty()) {
    // pwrite at the tracked end-of-log: if a previous flush failed after
    // some bytes reached the fd, the retry rewrites those same bytes at the
    // same offset instead of appending a duplicate (corrupt) suffix after
    // them. file_end_ only advances once the whole buffer is down.
    KWSDBG_RETURN_NOT_OK(WriteFullAt(fd_, buffer_.data(), buffer_.size(),
                                     static_cast<off_t>(file_end_),
                                     "WalWriter::Flush"));
    file_end_ += buffer_.size();
    buffer_.clear();
    flushed_seq_ = last_seq_;
  }
  if (sync) {
    KWSDBG_FAULT_POINT("storage.wal.fsync");
    KWSDBG_RETURN_NOT_OK(SyncFd(fd_, "WalWriter::Flush"));
    stats_.fsyncs++;
    durable_seq_ = flushed_seq_;
  }
  return Status::OK();
}

Status WalWriter::AppendMutation(const Mutation& m, uint64_t* seq_out) {
  return AppendPayload(EncodeWalMutation(m), seq_out);
}

Status WalWriter::AppendCompact(const std::string& table,
                                uint64_t* seq_out) {
  return AppendPayload(EncodeCompactPayload(table), seq_out);
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  return FlushLocked(/*sync=*/true);
}

Status WalWriter::Truncate(uint64_t new_base_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (new_base_seq < base_seq_ || new_base_seq > last_seq_) {
    return Status::InvalidArgument(
        "WAL truncate to seq " + std::to_string(new_base_seq) +
        " outside [" + std::to_string(base_seq_) + ", " +
        std::to_string(last_seq_) + "]");
  }
  // Anything buffered is either covered by the checkpoint (<= new_base_seq)
  // or must survive the restart; only full coverage allows dropping it all.
  if (new_base_seq != last_seq_) {
    return Status::Unimplemented(
        "partial WAL truncation is not supported; checkpoint must cover "
        "the full log");
  }
  KWSDBG_FAULT_POINT("storage.wal.truncate");
  // Stage-and-rename, never truncate in place: an in-place rewrite crashed
  // mid-way can leave a zero-length file (whose recreation would restart
  // seqs below the checkpoint, making later acknowledged writes replay as
  // already-covered) or a fresh header over stale frames (double-apply).
  KWSDBG_ASSIGN_OR_RETURN(
      int new_fd, CreateFreshWal(path_, new_base_seq, "WalWriter::Truncate"));
  buffer_.clear();
  // The old fd now names an unlinked inode; its close status is moot.
  CloseFd(&fd_, "WalWriter::Truncate");
  fd_ = new_fd;
  file_end_ = kHeaderSize;
  base_seq_ = new_base_seq;
  last_seq_ = new_base_seq;
  flushed_seq_ = new_base_seq;
  durable_seq_ = new_base_seq;
  stats_.truncations++;
  return Status::OK();
}

uint64_t WalWriter::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_ + 1;
}

uint64_t WalWriter::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_seq_;
}

WalStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kwsdbg
