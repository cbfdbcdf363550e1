#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/disk_manager.h"

namespace kwsdbg {
namespace {

std::unique_ptr<DiskManager> TempDisk(size_t page_size = 512) {
  auto disk = DiskManager::CreateTemp("", page_size);
  EXPECT_TRUE(disk.ok()) << disk.status().ToString();
  return std::move(disk).value();
}

TEST(PageCodecTest, RoundTripsAllValueKinds) {
  std::vector<Tuple> rows;
  rows.push_back({Value(int64_t{-42}), Value::Null(), Value(3.25)});
  rows.push_back({Value("short"), Value(std::string(300, 'x'))});
  rows.push_back({});  // empty tuple
  rows.push_back({Value("")});

  std::string buf;
  EncodeRows(rows, &buf);
  EXPECT_EQ(buf.size(), EncodedRowsSize(rows));

  std::vector<Tuple> out;
  ASSERT_TRUE(DecodeRows(buf.data(), buf.size(), &out).ok());
  ASSERT_EQ(out.size(), rows.size());
  EXPECT_EQ(out[0][0].AsInt(), -42);
  EXPECT_TRUE(out[0][1].is_null());
  EXPECT_EQ(out[0][2].AsDouble(), 3.25);
  EXPECT_EQ(out[1][0].AsString(), "short");
  EXPECT_EQ(out[1][1].AsString(), std::string(300, 'x'));
  EXPECT_TRUE(out[2].empty());
  EXPECT_EQ(out[3][0].AsString(), "");
}

TEST(PageCodecTest, RejectsTruncatedInput) {
  std::vector<Tuple> rows;
  rows.push_back({Value(int64_t{7}), Value("payload string here")});
  std::string buf;
  EncodeRows(rows, &buf);
  std::vector<Tuple> out;
  EXPECT_FALSE(DecodeRows(buf.data(), buf.size() / 2, &out).ok());
}

// Counts are read from the input: a forged one must fail typed instead of
// sizing an allocation (WAL replay, checkpoint restore and the buffer pool
// all decode bytes from disk).
TEST(PageCodecTest, RejectsForgedCounts) {
  std::vector<Tuple> out;
  // 2^31 - 1 rows and no bytes behind the count.
  const std::string forged_rows("\xff\xff\xff\x7f", 4);
  EXPECT_EQ(DecodeRows(forged_rows.data(), forged_rows.size(), &out).code(),
            StatusCode::kParseError);
  // One row claiming 65,535 cells with two bytes behind its arity.
  const std::string forged_arity("\x01\x00\x00\x00\xff\xff\x00\x00", 8);
  EXPECT_EQ(
      DecodeRows(forged_arity.data(), forged_arity.size(), &out).code(),
      StatusCode::kParseError);
  // Counts exactly at the bound still decode: three empty rows take six
  // bytes, and a row of two NULLs two tag bytes.
  std::vector<Tuple> rows(3);
  rows.push_back({Value::Null(), Value::Null()});
  std::string buf;
  EncodeRows(rows, &buf);
  ASSERT_TRUE(DecodeRows(buf.data(), buf.size(), &out).ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3].size(), 2u);
}

// Writes one single-page extent holding `rows` and returns its page id.
uint64_t WriteExtent(DiskManager* disk, const std::vector<Tuple>& rows) {
  auto page = disk->AllocatePages(1);
  EXPECT_TRUE(page.ok());
  std::string buf;
  EncodeRows(rows, &buf);
  buf.resize(disk->page_size(), '\0');
  EXPECT_TRUE(disk->WritePages(*page, 1, buf.data()).ok());
  return *page;
}

std::vector<Tuple> OneRow(int64_t v) {
  std::vector<Tuple> rows;
  rows.push_back({Value(v)});
  return rows;
}

// A random block of rows holding every value kind, small enough for one
// 512-byte page, plus the byte offsets of its arity and string-length
// fields (the counts a forgery targets).
struct CodecCase {
  std::vector<Tuple> rows;
  std::string bytes;
  std::vector<size_t> arity_at;
  std::vector<size_t> string_len_at;
};

CodecCase RandomCase(Rng* rng, size_t max_bytes) {
  CodecCase c;
  const size_t num_rows = 1 + rng->Uniform(10);
  for (size_t r = 0; r < num_rows; ++r) {
    Tuple row;
    const size_t arity = rng->Uniform(5);
    for (size_t i = 0; i < arity; ++i) {
      switch (rng->Uniform(4)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.emplace_back(static_cast<int64_t>(rng->Next()));
          break;
        case 2:
          row.emplace_back(rng->NextDouble() * 1e6 - 5e5);
          break;
        default:
          row.emplace_back(std::string(rng->Uniform(40), 'a' + r % 26));
      }
    }
    c.rows.push_back(std::move(row));
    if (EncodedRowsSize(c.rows) > max_bytes) {
      c.rows.pop_back();
      break;
    }
  }
  EncodeRows(c.rows, &c.bytes);
  size_t pos = sizeof(uint32_t);
  for (const Tuple& row : c.rows) {
    c.arity_at.push_back(pos);
    pos += sizeof(uint16_t);
    for (const Value& v : row) {
      pos += 1;  // tag
      if (v.is_string()) {
        c.string_len_at.push_back(pos);
        pos += sizeof(uint32_t) + v.AsString().size();
      } else if (!v.is_null()) {
        pos += 8;
      }
    }
  }
  return c;
}

template <typename T>
void Forge(std::string* bytes, size_t at, T value) {
  if (at + sizeof(T) <= bytes->size()) {
    std::memcpy(bytes->data() + at, &value, sizeof(T));
  }
}

// Bitwise row equality: a flipped double may be NaN, which Value's == would
// call unequal to itself.
bool SameRow(const Tuple& a, const Tuple& b) {
  std::string ea, eb;
  EncodeRows({a}, &ea);
  EncodeRows({b}, &eb);
  return ea == eb;
}

// Seeded byte mutations of encoded pages (bit flips, truncations, forged
// row counts, arities and string lengths). Every mutated page either fails
// kParseError both through DecodeRows and through a pool fetch, or gives
// the same rows through DecodeRows and through a fetch of each row — the
// pool's validating walk and lazy per-row decode parse exactly what
// DecodeRows parses. Counts never size more than the page holds.
TEST(PageCodecTest, SeededMutationsAgreeAcrossDecodeAndPoolFetch) {
  constexpr size_t kMutations = 10000;
  auto disk = TempDisk();
  const size_t page_size = disk->page_size();
  BufferPool pool(disk.get(), 16);
  Rng rng(0xC0DEC);
  size_t failed = 0, parsed = 0;
  for (size_t iter = 0; iter < kMutations; ++iter) {
    const CodecCase c = RandomCase(&rng, page_size);
    std::string page = c.bytes;
    switch (rng.Uniform(5)) {
      case 0:  // bit flips
        for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
          page[rng.Uniform(page.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      case 1: {  // truncation; the rest of the page reads back as zeroes
        page.resize(rng.Uniform(page.size()));
        std::vector<Tuple> raw;
        const Status cut = DecodeRows(page.data(), page.size(), &raw);
        EXPECT_TRUE(cut.ok() || cut.code() == StatusCode::kParseError);
        break;
      }
      case 2:  // forged row count, near the true one or anywhere
        Forge<uint32_t>(&page, 0,
                        rng.Bernoulli(0.5)
                            ? static_cast<uint32_t>(rng.Next())
                            : static_cast<uint32_t>(c.rows.size() +
                                                    rng.Uniform(5)) -
                                  2);
        break;
      case 3:  // forged arity
        if (!c.arity_at.empty()) {
          Forge<uint16_t>(&page, c.arity_at[rng.Uniform(c.arity_at.size())],
                          static_cast<uint16_t>(rng.Next()));
        }
        break;
      default:  // forged string length
        if (!c.string_len_at.empty()) {
          Forge<uint32_t>(
              &page, c.string_len_at[rng.Uniform(c.string_len_at.size())],
              rng.Bernoulli(0.5) ? static_cast<uint32_t>(rng.Next())
                                 : static_cast<uint32_t>(rng.Uniform(600)));
        }
    }
    page.resize(page_size, '\0');
    auto p = disk->AllocatePages(1);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(disk->WritePages(*p, 1, page.data()).ok());

    std::vector<Tuple> decoded;
    const Status whole = DecodeRows(page.data(), page.size(), &decoded);
    if (!whole.ok()) {
      ++failed;
      ASSERT_EQ(whole.code(), StatusCode::kParseError) << whole.ToString();
      auto fetched = pool.Fetch(*p, 1, 0, nullptr);
      ASSERT_FALSE(fetched.ok()) << "iteration " << iter;
      ASSERT_EQ(fetched.status().code(), StatusCode::kParseError)
          << "iteration " << iter;
      continue;
    }
    ++parsed;
    size_t cells = 0;
    for (const Tuple& row : decoded) cells += row.size();
    ASSERT_LE(decoded.size() + cells, page.size());
    // Touch the rows in a random order: lazy decode must not depend on it.
    std::vector<size_t> order(decoded.size());
    for (size_t r = 0; r < order.size(); ++r) order[r] = r;
    rng.Shuffle(&order);
    for (size_t r : order) {
      auto row = pool.Fetch(*p, 1, r, nullptr);
      ASSERT_TRUE(row.ok()) << "iteration " << iter << ": "
                            << row.status().ToString();
      ASSERT_TRUE(SameRow(**row, decoded[r]))
          << "iteration " << iter << ", row " << r;
    }
    EXPECT_EQ(pool.Fetch(*p, 1, decoded.size(), nullptr).status().code(),
              StatusCode::kOutOfRange);
  }
  // Both outcomes are exercised, so neither half of the property is vacuous.
  EXPECT_GT(failed, kMutations / 10);
  EXPECT_GT(parsed, kMutations / 10);
}

TEST(BufferPoolTest, FetchDecodesAndCaches) {
  auto disk = TempDisk();
  uint64_t p = WriteExtent(disk.get(), OneRow(11));
  BufferPool pool(disk.get(), 16);

  auto row = pool.Fetch(p, 1, 0, nullptr);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ((*row)->size(), 1u);
  EXPECT_EQ((**row)[0].AsInt(), 11);
  EXPECT_EQ(pool.stats().page_misses, 1u);

  // Second fetch is a hit: no new disk read.
  size_t reads_before = disk->stats().page_reads;
  ASSERT_TRUE(pool.Fetch(p, 1, 0, nullptr).ok());
  EXPECT_EQ(pool.stats().page_hits, 1u);
  EXPECT_EQ(disk->stats().page_reads, reads_before);

  // The extent holds one row: row 1 is out of range, not a decode.
  EXPECT_EQ(pool.Fetch(p, 1, 1, nullptr).status().code(),
            StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, LruEvictsOldestUnpinned) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), 16);  // kMinCapacity clamp keeps this at 16
  std::vector<uint64_t> pages;
  for (int i = 0; i < 17; ++i) {
    pages.push_back(WriteExtent(disk.get(), OneRow(i)));
  }
  for (uint64_t p : pages) ASSERT_TRUE(pool.Fetch(p, 1, 0, nullptr).ok());
  // 17 extents through 16 frames: exactly one eviction, of the first page.
  EXPECT_EQ(pool.stats().page_evictions, 1u);
  EXPECT_EQ(pool.num_frames(), 16u);

  size_t misses = pool.stats().page_misses;
  ASSERT_TRUE(pool.Fetch(pages[0], 1, 0, nullptr).ok());
  EXPECT_EQ(pool.stats().page_misses, misses + 1);  // was evicted
  ASSERT_TRUE(pool.Fetch(pages[16], 1, 0, nullptr).ok());
  EXPECT_EQ(pool.stats().page_misses, misses + 1);  // still resident
}

TEST(BufferPoolTest, ReferenceStaysValidAcrossCapacityMinusOneFetches) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), 16);
  // Many rows in one frame, with heap strings, so a row store that moved
  // while later rows of the frame decode would show under asan.
  std::vector<Tuple> many;
  for (int64_t i = 0; i < 12; ++i) {
    many.push_back({Value(99 + i), Value(std::string(24, 'a' + i))});
  }
  uint64_t first = WriteExtent(disk.get(), many);
  auto row = pool.Fetch(first, 1, 0, nullptr);
  ASSERT_TRUE(row.ok());
  const Tuple* held = *row;
  for (size_t r = 1; r < many.size(); ++r) {
    auto other = pool.Fetch(first, 1, r, nullptr);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(**other, many[r]);
  }
  EXPECT_EQ(*held, many[0]);
  for (int i = 0; i < 15; ++i) {
    uint64_t p = WriteExtent(disk.get(), OneRow(i));
    ASSERT_TRUE(pool.Fetch(p, 1, 0, nullptr).ok());
  }
  // 15 = capacity - 1 distinct fetches later, the reference still reads 99.
  EXPECT_EQ((*held)[0].AsInt(), 99);
  EXPECT_EQ((*held)[1].AsString(), std::string(24, 'a'));
}

TEST(BufferPoolTest, PinnedFramesSurviveEvictionPressure) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), 16);
  uint64_t keep = WriteExtent(disk.get(), OneRow(1234));
  ASSERT_TRUE(pool.Fetch(keep, 1, 0, nullptr).ok());
  pool.Pin(keep);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        pool.Fetch(WriteExtent(disk.get(), OneRow(i)), 1, 0, nullptr).ok());
  }
  size_t misses = pool.stats().page_misses;
  auto row = pool.Fetch(keep, 1, 0, nullptr);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(pool.stats().page_misses, misses);  // never left the pool
  EXPECT_EQ((**row)[0].AsInt(), 1234);
  pool.Unpin(keep);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), 16);
  for (int i = 0; i < 16; ++i) {
    uint64_t p = WriteExtent(disk.get(), OneRow(i));
    ASSERT_TRUE(pool.Fetch(p, 1, 0, nullptr).ok());
    pool.Pin(p);
  }
  uint64_t extra = WriteExtent(disk.get(), OneRow(-1));
  auto row = pool.Fetch(extra, 1, 0, nullptr);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kResourceExhausted);
}

// PageWriter that records write-backs, re-encoding in place.
struct RecordingWriter : public PageWriter {
  DiskManager* disk;
  size_t calls = 0;
  explicit RecordingWriter(DiskManager* d) : disk(d) {}
  Status WriteBack(uint64_t first_page,
                   const std::vector<Tuple>& rows) override {
    ++calls;
    std::string buf;
    EncodeRows(rows, &buf);
    buf.resize(disk->page_size(), '\0');
    return disk->WritePages(first_page, 1, buf.data());
  }
};

TEST(BufferPoolTest, DirtyFrameWritesBackOnEviction) {
  auto disk = TempDisk();
  RecordingWriter writer(disk.get());
  BufferPool pool(disk.get(), 16);
  uint64_t p = WriteExtent(disk.get(), OneRow(5));
  auto row = pool.FetchMutable(p, 1, 0, &writer);
  ASSERT_TRUE(row.ok());
  (**row)[0] = Value(int64_t{500});

  // Push it out of the pool.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        pool.Fetch(WriteExtent(disk.get(), OneRow(i)), 1, 0, nullptr).ok());
  }
  EXPECT_GE(writer.calls, 1u);
  EXPECT_GE(pool.stats().write_backs, 1u);

  // Re-reading decodes the written-back value.
  auto again = pool.Fetch(p, 1, 0, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((**again)[0].AsInt(), 500);
}

TEST(BufferPoolTest, FlushAllWritesDirtyFramesOnce) {
  auto disk = TempDisk();
  RecordingWriter writer(disk.get());
  BufferPool pool(disk.get(), 16);
  uint64_t p = WriteExtent(disk.get(), OneRow(8));
  auto row = pool.FetchMutable(p, 1, 0, &writer);
  ASSERT_TRUE(row.ok());
  (**row)[0] = Value(int64_t{80});
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(writer.calls, 1u);
  ASSERT_TRUE(pool.FlushAll().ok());  // now clean: no second write
  EXPECT_EQ(writer.calls, 1u);

  pool.DropAll();
  EXPECT_EQ(pool.num_frames(), 0u);
  auto again = pool.Fetch(p, 1, 0, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((**again)[0].AsInt(), 80);
}

TEST(DiskManagerTest, SinglePagesRecycleThroughFreeList) {
  auto disk = TempDisk();
  auto a = disk->AllocatePages(1);
  auto b = disk->AllocatePages(1);
  ASSERT_TRUE(a.ok() && b.ok());
  disk->FreePages(*a, 1);
  auto c = disk->AllocatePages(1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // recycled, file did not grow
  EXPECT_EQ(disk->stats().pages_freed, 1u);
}

TEST(DiskManagerTest, MultiPageExtentsAreContiguousAtEof) {
  auto disk = TempDisk();
  auto a = disk->AllocatePages(1);
  ASSERT_TRUE(a.ok());
  disk->FreePages(*a, 1);  // a free single page must not split an extent
  uint64_t eof = disk->num_pages();
  auto ext = disk->AllocatePages(3);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(*ext, eof);

  std::string out(3 * disk->page_size(), 'q');
  ASSERT_TRUE(disk->WritePages(*ext, 3, out.data()).ok());
  std::string in(3 * disk->page_size(), '\0');
  ASSERT_TRUE(disk->ReadPages(*ext, 3, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(DiskManagerTest, ShortReadsZeroFill) {
  auto disk = TempDisk();
  auto p = disk->AllocatePages(1);
  ASSERT_TRUE(p.ok());
  // Nothing written yet: the file is sparse/short at this offset.
  std::string buf(disk->page_size(), 'z');
  ASSERT_TRUE(disk->ReadPages(*p, 1, buf.data()).ok());
  EXPECT_EQ(buf, std::string(disk->page_size(), '\0'));
}

TEST(DiskManagerTest, SpillFileRemovedOnDestruction) {
  std::string path;
  {
    auto disk = TempDisk();
    path = disk->path();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

}  // namespace
}  // namespace kwsdbg
