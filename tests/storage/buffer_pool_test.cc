#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/disk_manager.h"

namespace kwsdbg {
namespace {

// A byte budget no frame fits in: the pool sits at its 16-frame floor, so
// these cases see the fixed 16-frame LRU the floor guarantees.
constexpr size_t kFloorBudget = 1;

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

// The codec's grammar read afresh, without the codec: a u32 row count, then
// per row a u16 arity and per cell a tag byte with its payload (nothing for
// NULL, 8 bytes for an int64 or double, a u32 length and that many bytes
// for a string). Bytes after the last row are page padding. True iff the
// whole grammar fits in `bytes`.
bool IndependentlyValid(const std::string& bytes) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const size_t end = bytes.size();
  size_t at = 0;
  // Skips n bytes; with `value`, reads them (n <= 8) as a little-endian
  // count first.
  auto take = [&](size_t n, uint64_t* value) {
    if (end - at < n) return false;
    if (value != nullptr) {
      *value = 0;
      for (size_t i = 0; i < n; ++i) {
        *value |= uint64_t{data[at + i]} << (8 * i);
      }
    }
    at += n;
    return true;
  };
  uint64_t rows = 0;
  if (!take(4, &rows)) return false;
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t arity = 0;
    if (!take(2, &arity)) return false;
    for (uint64_t c = 0; c < arity; ++c) {
      uint64_t tag = 0;
      if (!take(1, &tag)) return false;
      uint64_t len = 0;
      switch (tag) {
        case 0:
          break;
        case 1:
        case 2:
          if (!take(8, nullptr)) return false;
          break;
        case 3:
          if (!take(4, &len) || !take(len, nullptr)) return false;
          break;
        default:
          return false;
      }
    }
  }
  return true;
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
// row counts, arities and string lengths). An independent validator of the
// grammar decides each page valid or invalid, and DecodeRows and a pool
// fetch must agree with it: an invalid page fails kParseError both ways
// with the same message, a valid one gives the same rows through
// DecodeRows and through a fetch of each row — the pool's check-only walk
// and lazy per-row decode parse exactly what DecodeRows parses. Counts
// never size more than the page holds.
TEST(PageCodecTest, SeededMutationsAgreeAcrossDecodeAndPoolFetch) {
  constexpr size_t kMutations = 10000;
  auto disk = TempDisk();
  const size_t page_size = disk->page_size();
  BufferPool pool(disk.get(), kFloorBudget);
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
    ASSERT_EQ(whole.ok(), IndependentlyValid(page))
        << "iteration " << iter << ": " << whole.ToString();
    if (!whole.ok()) {
      ++failed;
      ASSERT_EQ(whole.code(), StatusCode::kParseError) << whole.ToString();
      auto fetched = pool.Fetch(*p, 1, 0);
      ASSERT_FALSE(fetched.ok()) << "iteration " << iter;
      ASSERT_EQ(fetched.status().ToString(), whole.ToString())
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
      auto row = pool.Fetch(*p, 1, r);
      ASSERT_TRUE(row.ok()) << "iteration " << iter << ": "
                            << row.status().ToString();
      ASSERT_TRUE(SameRow(**row, decoded[r]))
          << "iteration " << iter << ", row " << r;
    }
    EXPECT_EQ(pool.Fetch(*p, 1, decoded.size()).status().code(),
              StatusCode::kOutOfRange);
  }
  // Both outcomes are exercised, so neither half of the property is vacuous.
  EXPECT_GT(failed, kMutations / 10);
  EXPECT_GT(parsed, kMutations / 10);
}

TEST(BufferPoolTest, FetchDecodesAndCaches) {
  auto disk = TempDisk();
  uint64_t p = WriteExtent(disk.get(), OneRow(11));
  BufferPool pool(disk.get(), kFloorBudget);

  auto row = pool.Fetch(p, 1, 0);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ((*row)->size(), 1u);
  EXPECT_EQ((**row)[0].AsInt(), 11);
  EXPECT_EQ(pool.stats().page_misses, 1u);

  // Second fetch is a hit: no new disk read.
  size_t reads_before = disk->stats().page_reads;
  ASSERT_TRUE(pool.Fetch(p, 1, 0).ok());
  EXPECT_EQ(pool.stats().page_hits, 1u);
  EXPECT_EQ(disk->stats().page_reads, reads_before);

  // The extent holds one row: row 1 is out of range, not a decode.
  EXPECT_EQ(pool.Fetch(p, 1, 1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, LruEvictsOldestUnpinned) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), kFloorBudget);
  std::vector<uint64_t> pages;
  for (int i = 0; i < 17; ++i) {
    pages.push_back(WriteExtent(disk.get(), OneRow(i)));
  }
  for (uint64_t p : pages) ASSERT_TRUE(pool.Fetch(p, 1, 0).ok());
  // 17 extents through 16 frames: exactly one eviction, of the first page.
  EXPECT_EQ(pool.stats().page_evictions, 1u);
  EXPECT_EQ(pool.num_frames(), 16u);

  size_t misses = pool.stats().page_misses;
  ASSERT_TRUE(pool.Fetch(pages[0], 1, 0).ok());
  EXPECT_EQ(pool.stats().page_misses, misses + 1);  // was evicted
  ASSERT_TRUE(pool.Fetch(pages[16], 1, 0).ok());
  EXPECT_EQ(pool.stats().page_misses, misses + 1);  // still resident
}

TEST(BufferPoolTest, ReferenceStaysValidAcrossCapacityMinusOneFetches) {
  auto disk = TempDisk();
  BufferPool pool(disk.get(), kFloorBudget);
  // Many rows in one frame, with heap strings, so a row store that moved
  // while later rows of the frame decode would show under asan.
  std::vector<Tuple> many;
  for (int64_t i = 0; i < 12; ++i) {
    many.push_back({Value(99 + i), Value(std::string(24, 'a' + i))});
  }
  uint64_t first = WriteExtent(disk.get(), many);
  auto row = pool.Fetch(first, 1, 0);
  ASSERT_TRUE(row.ok());
  const Tuple* held = *row;
  for (size_t r = 1; r < many.size(); ++r) {
    auto other = pool.Fetch(first, 1, r);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(**other, many[r]);
  }
  EXPECT_EQ(*held, many[0]);
  for (int i = 0; i < 15; ++i) {
    uint64_t p = WriteExtent(disk.get(), OneRow(i));
    ASSERT_TRUE(pool.Fetch(p, 1, 0).ok());
  }
  // 15 = kMinFrames - 1 distinct fetches later, the reference still reads 99.
  EXPECT_EQ((*held)[0].AsInt(), 99);
  EXPECT_EQ((*held)[1].AsString(), std::string(24, 'a'));
}

// Extents of one to three pages holding heap strings, written to `disk`.
struct ExtentSet {
  std::vector<uint64_t> first_page;
  std::vector<uint32_t> num_pages;
  std::vector<std::vector<Tuple>> rows;  ///< What each extent holds.

  ExtentSet(DiskManager* disk, Rng* rng, size_t count) {
    for (size_t e = 0; e < count; ++e) {
      const uint32_t pages = 1 + static_cast<uint32_t>(rng->Uniform(3));
      std::vector<Tuple> block;
      for (;;) {
        Tuple row = {Value(static_cast<int64_t>(rng->Next() >> 1)),
                     Value(std::string(16 + rng->Uniform(48), 'a' + e % 26)),
                     rng->Bernoulli(0.3) ? Value::Null()
                                         : Value(rng->NextDouble())};
        block.push_back(std::move(row));
        if (EncodedRowsSize(block) > pages * disk->page_size()) {
          block.pop_back();
          break;
        }
      }
      auto page = disk->AllocatePages(pages);
      EXPECT_TRUE(page.ok());
      std::string buf;
      EncodeRows(block, &buf);
      buf.resize(pages * disk->page_size(), '\0');
      EXPECT_TRUE(disk->WritePages(*page, pages, buf.data()).ok());
      first_page.push_back(*page);
      num_pages.push_back(pages);
      rows.push_back(std::move(block));
    }
  }
};

// A seeded run of fetches over extents of mixed sizes. After every step the
// running charge equals a recount of what the frames hold; after every miss
// the pool fits its budget unless it is at its floor; and every row
// reference still inside the contract's window (fewer than 16 other
// extents fetched since) reads the row the extent holds, although a miss
// may evict several frames at once.
TEST(BufferPoolTest, PropertyByteBudgetChargeAndReferenceWindow) {
  constexpr size_t kSteps = 4000;
  for (size_t budget : {kFloorBudget, size_t{28} << 10, size_t{40} << 10}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    auto disk = TempDisk();
    Rng rng(0xB0FF + budget);
    ExtentSet extents(disk.get(), &rng, 48);
    BufferPool pool(disk.get(), budget);

    struct Held {
      const Tuple* row;
      size_t extent, r;
      std::set<size_t> others;  ///< Other extents fetched since.
    };
    std::vector<Held> held;
    std::deque<size_t> recent;
    size_t multi_evictions = 0, max_frames = 0;

    for (size_t step = 0; step < kSteps; ++step) {
      // Half the fetches revisit a recent extent, so hits mix with misses.
      const size_t e = !recent.empty() && rng.Bernoulli(0.5)
                           ? recent[rng.Uniform(recent.size())]
                           : rng.Uniform(extents.rows.size());
      const size_t r = rng.Uniform(extents.rows[e].size());
      const BufferPoolStats before = pool.stats();
      auto got = pool.Fetch(extents.first_page[e], extents.num_pages[e], r);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const Tuple* row = *got;
      ASSERT_EQ(*row, extents.rows[e][r]) << "step " << step;
      if (pool.stats().page_misses > before.page_misses) {
        EXPECT_TRUE(pool.charged_bytes() <= budget ||
                    pool.num_frames() <= BufferPool::kMinFrames)
            << "step " << step << ": " << pool.charged_bytes() << " > "
            << budget << " with " << pool.num_frames() << " frames";
        if (pool.stats().page_evictions >= before.page_evictions + 2) {
          ++multi_evictions;
        }
      }
      for (Held& h : held) {
        if (h.extent != e) h.others.insert(e);
      }
      held.push_back({row, e, r, {}});
      recent.push_back(e);
      if (recent.size() > 8) recent.pop_front();

      ASSERT_EQ(pool.charged_bytes(), pool.RecountBytes()) << "step " << step;
      max_frames = std::max(max_frames, pool.num_frames());
      std::erase_if(held, [](const Held& h) {
        return h.others.size() >= BufferPool::kMinFrames;
      });
      for (const Held& h : held) {
        ASSERT_EQ(*h.row, extents.rows[h.extent][h.r])
            << "step " << step << ": extent " << h.extent << " row " << h.r
            << " after " << h.others.size() << " other extents";
      }
    }
    if (budget == kFloorBudget) {
      EXPECT_EQ(max_frames, BufferPool::kMinFrames);
    } else {
      // The budget, not the floor, sized the pool, and some misses had to
      // evict more than one frame to fit.
      EXPECT_GT(max_frames, BufferPool::kMinFrames);
      EXPECT_GT(multi_evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace kwsdbg
