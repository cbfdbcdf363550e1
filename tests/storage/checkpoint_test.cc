// Checkpoint/restore contract: catalog round-trip (schemas, rows, row ids,
// tombstones, data epochs, catalog epoch), metadata-only reads, atomic
// replacement, corruption -> kDataLoss, and the write fault point.
#include "storage/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "common/logging.h"
#include "storage/database.h"

namespace kwsdbg {
namespace {

std::string TestDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/kwsdbg_ckpt_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string CheckpointPath(const std::string& dir) {
  return dir + "/" + kCheckpointFileName;
}

/// Two tables, one with a tombstone and a bumped data epoch, plus a catalog
/// epoch bump — every field a restore must reproduce.
std::unique_ptr<Database> BuildSample() {
  auto db = std::make_unique<Database>();
  Table* color = *db->CreateTable(
      "Color", Schema({{"id", DataType::kInt64}, {"name", DataType::kString}}));
  KWSDBG_CHECK(color->AppendRow({Value(int64_t{1}), Value("red")}).ok());
  KWSDBG_CHECK(color->AppendRow({Value(int64_t{2}), Value("green")}).ok());
  KWSDBG_CHECK(color->AppendRow({Value(int64_t{3}), Value("blue")}).ok());
  KWSDBG_CHECK(color->DeleteRow(1).ok());
  color->BumpDataEpoch();

  Table* score = *db->CreateTable(
      "Score", Schema({{"w", DataType::kDouble}, {"n", DataType::kString}}));
  KWSDBG_CHECK(score->AppendRow({Value(0.25), Value()}).ok());  // NULL cell.
  db->BumpEpoch();
  return db;
}

TEST(CheckpointTest, RoundTripsCatalogRowsAndEpochs) {
  const std::string dir = TestDir("roundtrip");
  auto db = BuildSample();
  ASSERT_TRUE(WriteCheckpoint(*db, dir, /*covered_seq=*/42).ok());

  CheckpointInfo info;
  auto restored = RestoreCheckpoint(dir, &info);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(info.covered_seq, 42u);
  EXPECT_EQ(info.db_epoch, db->epoch());
  ASSERT_EQ(info.tables.size(), 2u);
  EXPECT_EQ(info.tables[0].name, "Color");
  EXPECT_EQ(info.tables[0].num_deleted, 1u);

  Database& out = **restored;
  EXPECT_EQ(out.epoch(), db->epoch());
  ASSERT_EQ(out.TableNames(), db->TableNames());

  const Table* color = out.FindTable("Color");
  ASSERT_NE(color, nullptr);
  EXPECT_EQ(color->num_rows(), 3u);
  EXPECT_EQ(color->num_deleted(), 1u);
  EXPECT_TRUE(color->deleted(1));  // Same row id, not renumbered.
  EXPECT_FALSE(color->deleted(0));
  EXPECT_EQ(color->at(0, 1).AsString(), "red");
  EXPECT_EQ(color->at(2, 1).AsString(), "blue");
  EXPECT_EQ(color->data_epoch(), db->FindTable("Color")->data_epoch());
  EXPECT_EQ(color->catalog_index(), db->FindTable("Color")->catalog_index());

  const Table* score = out.FindTable("Score");
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->at(0, 0).AsDouble(), 0.25);
  EXPECT_TRUE(score->at(0, 1).is_null());
}

TEST(CheckpointTest, MissingCheckpointIsNotFound) {
  const std::string dir = TestDir("missing");
  EXPECT_EQ(ReadCheckpointInfo(dir).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(RestoreCheckpoint(dir).status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, RewriteReplacesAtomically) {
  const std::string dir = TestDir("rewrite");
  auto db = BuildSample();
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 1).ok());
  ASSERT_TRUE(
      db->FindTable("Score")->AppendRow({Value(0.5), Value("late")}).ok());
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 2).ok());

  CheckpointInfo info;
  auto restored = RestoreCheckpoint(dir, &info);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(info.covered_seq, 2u);
  EXPECT_EQ((*restored)->FindTable("Score")->num_rows(), 2u);
}

TEST(CheckpointTest, IndexFingerprintRoundTrips) {
  const std::string dir = TestDir("fingerprint");
  auto db = BuildSample();
  CheckpointIndexInfo index;
  index.present = true;
  index.num_terms = 123;
  index.num_postings = 4567;
  index.dict_checksum = 0xDEADBEEFCAFEF00Dull;
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 7, index).ok());

  auto info = ReadCheckpointInfo(dir);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->index.present);
  EXPECT_EQ(info->index.num_terms, 123u);
  EXPECT_EQ(info->index.num_postings, 4567u);
  EXPECT_EQ(info->index.dict_checksum, 0xDEADBEEFCAFEF00Dull);
}

TEST(CheckpointTest, CorruptionIsDataLoss) {
  const std::string dir = TestDir("corrupt");
  auto db = BuildSample();
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 1).ok());

  // Flip a byte mid-file. Unlike a WAL tail there is no legitimate torn
  // state behind the atomic rename, so ANY mismatch is kDataLoss.
  const std::string path = CheckpointPath(dir);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  contents[contents.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  EXPECT_EQ(RestoreCheckpoint(dir).status().code(), StatusCode::kDataLoss);

  // Truncation (a torn rename target would look like this) is also loss.
  std::filesystem::resize_file(path, contents.size() / 3);
  EXPECT_EQ(RestoreCheckpoint(dir).status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, ForgedColumnCountIsDataLoss) {
  const std::string dir = TestDir("forged_columns");
  auto db = BuildSample();
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 1).ok());
  const std::string path = CheckpointPath(dir);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  // Keep the header frame (u32 length, u32 checksum, payload) and replace
  // the table sections with one that claims 2^32 - 1 columns under a valid
  // checksum, so only the decoder's own bound can catch it.
  uint32_t header_len = 0;
  std::memcpy(&header_len, contents.data(), 4);
  std::string forged = contents.substr(0, 8 + header_len);
  std::string payload;
  const uint32_t name_len = 5;
  const uint32_t num_columns = 0xFFFFFFFFu;
  payload.append(reinterpret_cast<const char*>(&name_len), 4);
  payload.append("Color");
  payload.append(reinterpret_cast<const char*>(&num_columns), 4);
  payload.append(16, '\0');
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = Checksum32(payload.data(), payload.size());
  forged.append(reinterpret_cast<const char*>(&len), 4);
  forged.append(reinterpret_cast<const char*>(&checksum), 4);
  forged.append(payload);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(forged.data(), static_cast<std::streamsize>(forged.size()));
  }
  EXPECT_EQ(RestoreCheckpoint(dir).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReadCheckpointInfo(dir).status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, WriteFaultLeavesPreviousSnapshotIntact) {
  const std::string dir = TestDir("fault");
  auto db = BuildSample();
  ASSERT_TRUE(WriteCheckpoint(*db, dir, 1).ok());

  {
    ScopedFaultInjection faults("storage.checkpoint.write=unavailable");
    ASSERT_TRUE(
        db->FindTable("Score")->AppendRow({Value(0.75), Value("x")}).ok());
    EXPECT_EQ(WriteCheckpoint(*db, dir, 2).code(),
              StatusCode::kUnavailable);
  }

  // The failed write never touched the published file: the previous
  // snapshot restores cleanly with its covered seq.
  CheckpointInfo info;
  auto restored = RestoreCheckpoint(dir, &info);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(info.covered_seq, 1u);
  EXPECT_EQ((*restored)->FindTable("Score")->num_rows(), 1u);
}

TEST(CheckpointTest, DatabaseFacadeCheckpointAndRecover) {
  const std::string dir = TestDir("facade");
  auto db = BuildSample();
  ASSERT_TRUE(db->Checkpoint(dir, 9).ok());
  auto recovered = Database::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->TotalTuples(), db->TotalTuples());
  EXPECT_EQ((*recovered)->epoch(), db->epoch());
}

}  // namespace
}  // namespace kwsdbg
