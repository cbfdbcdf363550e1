#include "storage/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "storage/io_util.h"

namespace kwsdbg {

namespace {

constexpr uint32_t kCheckpointMagic = 0x50484B43u;  // 'CKHP'
constexpr uint32_t kCheckpointVersion = 1;
constexpr size_t kFrameHeaderSize = 8;
// Rows are encoded in bounded chunks so neither writer nor reader holds a
// second full copy of a large table in one string.
constexpr size_t kRowsPerChunk = 4096;

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
  bool ReadBytes(const char** p, size_t n) {
    if (size_ - pos_ < n) return false;
    *p = data_ + pos_;
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
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

void AppendFrame(std::string* out, const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = Checksum32(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&len), 4);
  out->append(reinterpret_cast<const char*>(&checksum), 4);
  out->append(payload);
}

/// Extracts the next checksummed frame; kDataLoss on any mismatch (a
/// renamed checkpoint has no legitimate torn state).
Status NextFrame(const std::string& bytes, size_t* pos,
                 std::string_view* payload) {
  if (bytes.size() - *pos < kFrameHeaderSize) {
    return Status::DataLoss("checkpoint truncated at offset " +
                            std::to_string(*pos));
  }
  uint32_t len, checksum;
  std::memcpy(&len, bytes.data() + *pos, 4);
  std::memcpy(&checksum, bytes.data() + *pos + 4, 4);
  if (bytes.size() - *pos - kFrameHeaderSize < len) {
    return Status::DataLoss("checkpoint section overruns the file");
  }
  const char* data = bytes.data() + *pos + kFrameHeaderSize;
  if (Checksum32(data, len) != checksum) {
    return Status::DataLoss("checkpoint section checksum mismatch at offset " +
                            std::to_string(*pos));
  }
  *payload = std::string_view(data, len);
  *pos += kFrameHeaderSize + len;
  return Status::OK();
}

std::string EncodeHeader(const Database& db, uint64_t covered_seq,
                         const CheckpointIndexInfo& index_info) {
  std::string out;
  PutU32(&out, kCheckpointMagic);
  PutU32(&out, kCheckpointVersion);
  PutU64(&out, covered_seq);
  PutU64(&out, db.epoch());
  PutU8(&out, index_info.present ? 1 : 0);
  PutU64(&out, index_info.num_terms);
  PutU64(&out, index_info.num_postings);
  PutU64(&out, index_info.dict_checksum);
  PutU32(&out, static_cast<uint32_t>(db.num_tables()));
  return out;
}

Status DecodeHeader(std::string_view payload, CheckpointInfo* info,
                    uint32_t* num_tables) {
  Reader r(payload.data(), payload.size());
  uint32_t magic, version;
  uint8_t index_present;
  if (!r.ReadU32(&magic) || !r.ReadU32(&version) ||
      !r.ReadU64(&info->covered_seq) || !r.ReadU64(&info->db_epoch) ||
      !r.ReadU8(&index_present) || !r.ReadU64(&info->index.num_terms) ||
      !r.ReadU64(&info->index.num_postings) ||
      !r.ReadU64(&info->index.dict_checksum) || !r.ReadU32(num_tables)) {
    return Status::DataLoss("checkpoint header too short");
  }
  if (magic != kCheckpointMagic) {
    return Status::DataLoss("checkpoint has bad magic");
  }
  if (version != kCheckpointVersion) {
    return Status::DataLoss("checkpoint has unsupported version " +
                            std::to_string(version));
  }
  info->index.present = index_present != 0;
  return Status::OK();
}

std::string EncodeTableSection(const Table& t) {
  std::string out;
  PutString(&out, t.name());
  PutU32(&out, static_cast<uint32_t>(t.schema().num_columns()));
  for (const Column& col : t.schema().columns()) {
    PutString(&out, col.name);
    PutU8(&out, static_cast<uint8_t>(col.type));
  }
  PutU64(&out, t.data_epoch());
  const size_t num_rows = t.num_rows();
  PutU64(&out, num_rows);
  PutU64(&out, t.num_deleted());
  // Tombstone bitmap, bit i = row i deleted. Deleted rows were blanked to
  // NULLs at delete time, so the row payload needs no special casing.
  std::string bitmap((num_rows + 7) / 8, '\0');
  for (size_t i = 0; i < num_rows; ++i) {
    if (t.deleted(i)) bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  PutString(&out, bitmap);
  const uint32_t num_chunks =
      static_cast<uint32_t>((num_rows + kRowsPerChunk - 1) / kRowsPerChunk);
  PutU32(&out, num_chunks);
  for (size_t first = 0; first < num_rows; first += kRowsPerChunk) {
    const size_t n = std::min(kRowsPerChunk, num_rows - first);
    std::vector<Tuple> chunk;
    chunk.reserve(n);
    // row(i) works resident and spilled alike (spilled goes through the
    // buffer pool), so a spilled database checkpoints without unspilling.
    for (size_t i = 0; i < n; ++i) chunk.push_back(t.row(first + i));
    std::string encoded;
    EncodeRows(chunk, &encoded);
    PutString(&out, encoded);
  }
  return out;
}

struct DecodedTable {
  CheckpointTableInfo info;
  Schema schema;
  std::vector<bool> tombstones;
  std::vector<Tuple> rows;  ///< Empty when metadata_only.
};

Status DecodeTableSection(std::string_view payload, bool metadata_only,
                          DecodedTable* out) {
  Reader r(payload.data(), payload.size());
  uint32_t num_columns;
  if (!r.ReadString(&out->info.name) || !r.ReadU32(&num_columns)) {
    return Status::DataLoss("checkpoint table section truncated");
  }
  // A column needs at least its 4-byte name length and 1-byte type, so a
  // count the section cannot hold is forged: reject it before it sizes an
  // allocation.
  if (num_columns > r.remaining() / 5) {
    return Status::DataLoss("checkpoint table section claims " +
                            std::to_string(num_columns) + " columns in " +
                            std::to_string(r.remaining()) + " bytes");
  }
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns; ++i) {
    Column col;
    uint8_t type;
    if (!r.ReadString(&col.name) || !r.ReadU8(&type)) {
      return Status::DataLoss("checkpoint schema truncated");
    }
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::DataLoss("checkpoint schema has unknown column type " +
                              std::to_string(type));
    }
    col.type = static_cast<DataType>(type);
    columns.push_back(std::move(col));
  }
  out->schema = Schema(std::move(columns));
  std::string bitmap;
  uint32_t num_chunks;
  if (!r.ReadU64(&out->info.data_epoch) || !r.ReadU64(&out->info.num_rows) ||
      !r.ReadU64(&out->info.num_deleted) || !r.ReadString(&bitmap) ||
      !r.ReadU32(&num_chunks)) {
    return Status::DataLoss("checkpoint table section truncated");
  }
  if (bitmap.size() != (out->info.num_rows + 7) / 8) {
    return Status::DataLoss("checkpoint tombstone bitmap sized " +
                            std::to_string(bitmap.size()) + " for " +
                            std::to_string(out->info.num_rows) + " rows");
  }
  if (metadata_only) return Status::OK();
  out->tombstones.assign(out->info.num_rows, false);
  for (size_t i = 0; i < out->info.num_rows; ++i) {
    if (bitmap[i / 8] & (1u << (i % 8))) out->tombstones[i] = true;
  }
  out->rows.reserve(out->info.num_rows);
  for (uint32_t c = 0; c < num_chunks; ++c) {
    std::string encoded;
    if (!r.ReadString(&encoded)) {
      return Status::DataLoss("checkpoint row chunk truncated");
    }
    std::vector<Tuple> chunk;
    KWSDBG_RETURN_NOT_OK(DecodeRows(encoded.data(), encoded.size(), &chunk));
    for (Tuple& row : chunk) out->rows.push_back(std::move(row));
  }
  if (out->rows.size() != out->info.num_rows) {
    return Status::DataLoss("checkpoint holds " +
                            std::to_string(out->rows.size()) + " rows, " +
                            "header promised " +
                            std::to_string(out->info.num_rows));
  }
  return Status::OK();
}

Status ReadCheckpointImpl(const std::string& dir, bool metadata_only,
                          CheckpointInfo* info,
                          std::vector<DecodedTable>* tables) {
  const std::string path = dir + "/" + kCheckpointFileName;
  auto bytes_or = ReadFileToString(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = *bytes_or;
  size_t pos = 0;
  std::string_view payload;
  KWSDBG_RETURN_NOT_OK(NextFrame(bytes, &pos, &payload));
  uint32_t num_tables = 0;
  KWSDBG_RETURN_NOT_OK(DecodeHeader(payload, info, &num_tables));
  for (uint32_t i = 0; i < num_tables; ++i) {
    KWSDBG_RETURN_NOT_OK(NextFrame(bytes, &pos, &payload));
    DecodedTable table;
    KWSDBG_RETURN_NOT_OK(DecodeTableSection(payload, metadata_only, &table));
    info->tables.push_back(table.info);
    if (tables != nullptr) tables->push_back(std::move(table));
  }
  if (pos != bytes.size()) {
    return Status::DataLoss("checkpoint has " +
                            std::to_string(bytes.size() - pos) +
                            " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(const Database& db, const std::string& dir,
                       uint64_t covered_seq,
                       const CheckpointIndexInfo& index_info) {
  KWSDBG_FAULT_POINT("storage.checkpoint.write");
  std::string contents;
  AppendFrame(&contents, EncodeHeader(db, covered_seq, index_info));
  for (const std::string& name : db.TableNames()) {
    KWSDBG_ASSIGN_OR_RETURN(Table * t, db.GetTable(name));
    AppendFrame(&contents, EncodeTableSection(*t));
  }
  return AtomicWriteFile(dir + "/" + kCheckpointFileName, contents);
}

StatusOr<CheckpointInfo> ReadCheckpointInfo(const std::string& dir) {
  CheckpointInfo info;
  KWSDBG_RETURN_NOT_OK(
      ReadCheckpointImpl(dir, /*metadata_only=*/true, &info, nullptr));
  return info;
}

StatusOr<std::unique_ptr<Database>> RestoreCheckpoint(
    const std::string& dir, CheckpointInfo* info_out) {
  CheckpointInfo info;
  std::vector<DecodedTable> tables;
  KWSDBG_RETURN_NOT_OK(
      ReadCheckpointImpl(dir, /*metadata_only=*/false, &info, &tables));
  auto db = std::make_unique<Database>();
  for (DecodedTable& decoded : tables) {
    KWSDBG_ASSIGN_OR_RETURN(
        Table * t, db->CreateTable(decoded.info.name, decoded.schema));
    for (size_t i = 0; i < decoded.rows.size(); ++i) {
      t->AppendRowUnchecked(std::move(decoded.rows[i]));
      if (decoded.tombstones[i]) {
        // Cells were blanked before the snapshot; this just sets the bit.
        KWSDBG_RETURN_NOT_OK(t->DeleteRow(i));
      }
    }
  }
  // Epochs are stamped only after the whole catalog exists: CreateTable's
  // catalog bump touches EVERY table's data epoch, so stamping inside the
  // loop above would let table N+1's creation clobber table N's epoch.
  for (const DecodedTable& decoded : tables) {
    db->FindTable(decoded.info.name)
        ->RestoreDataEpoch(decoded.info.data_epoch);
  }
  db->RestoreEpoch(info.db_epoch);
  if (info_out != nullptr) *info_out = std::move(info);
  return db;
}

Status Database::Checkpoint(const std::string& dir,
                            uint64_t covered_seq) const {
  return WriteCheckpoint(*this, dir, covered_seq);
}

StatusOr<std::unique_ptr<Database>> Database::Recover(
    const std::string& dir) {
  KWSDBG_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          RestoreCheckpoint(dir));
  // A crash never runs DiskManager's unlinking destructor, so spill page
  // files from the dead incarnation pile up in the spill dir. Sweep them
  // now that we know we are the successor. Best-effort: a sweep failure
  // must not fail an otherwise clean recovery.
  const char* spill_dir = std::getenv("KWSDBG_SPILL_DIR");
  std::error_code ec;
  const std::string sweep_dir =
      (spill_dir != nullptr && spill_dir[0] != '\0')
          ? std::string(spill_dir)
          : std::filesystem::temp_directory_path(ec).string();
  if (!ec) SweepStaleSpillFiles(sweep_dir);
  return db;
}

}  // namespace kwsdbg
