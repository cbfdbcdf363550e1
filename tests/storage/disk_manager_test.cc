// DiskManager contract: append-only allocation of contiguous extents,
// zero-fill of never-written pages, unlinking on destruction, typed
// close/closed-file errors, fault-point propagation, and the stale-spill
// sweep that reclaims page files orphaned by crashed processes.
#include "storage/disk_manager.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"

namespace kwsdbg {
namespace {

constexpr size_t kPage = DiskManager::kMinPageSize;

std::string TestPath(const std::string& tag) {
  const std::string path =
      testing::TempDir() + "/kwsdbg_dm_" + tag + ".pages";
  std::remove(path.c_str());
  return path;
}

std::string PageOf(char fill) { return std::string(kPage, fill); }

TEST(DiskManagerTest, RejectsTinyPageSize) {
  EXPECT_EQ(DiskManager::Create(TestPath("tiny"), 16).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiskManagerTest, MultiPageExtentsAreContiguousAtEof) {
  auto dm = DiskManager::Create(TestPath("extent"), kPage);
  ASSERT_TRUE(dm.ok()) << dm.status().ToString();
  DiskManager& disk = **dm;

  // Single pages and extents alike go at the end of the file.
  EXPECT_EQ(*disk.AllocatePages(1), 0u);
  EXPECT_EQ(*disk.AllocatePages(3), 1u);
  EXPECT_EQ(*disk.AllocatePages(1), 4u);
  EXPECT_EQ(disk.num_pages(), 5u);
  EXPECT_EQ(disk.stats().pages_allocated, 5u);
}

// Nothing is ever freed, so there is no free list for an extent to draw on:
// it lands past every page already handed out, and its pages sit next to
// each other in the file.
TEST(DiskManagerTest, MultiPageExtentsAreContiguousAndSkipFreeList) {
  auto dm = DiskManager::Create(TestPath("contiguous"), kPage);
  ASSERT_TRUE(dm.ok()) << dm.status().ToString();
  DiskManager& disk = **dm;

  const uint64_t single = *disk.AllocatePages(1);
  const uint64_t extent = *disk.AllocatePages(3);
  EXPECT_EQ(extent, single + 1);
  EXPECT_EQ(disk.num_pages(), 4u);

  const std::string payload = PageOf('a') + PageOf('b') + PageOf('c');
  ASSERT_TRUE(disk.WritePages(extent, 3, payload.data()).ok());
  std::string readback(3 * kPage, '\0');
  ASSERT_TRUE(disk.ReadPages(extent, 3, readback.data()).ok());
  EXPECT_EQ(readback, payload);
  // Page i of the extent is page extent + i of the file.
  for (size_t i = 0; i < 3; ++i) {
    std::string page(kPage, '\0');
    ASSERT_TRUE(disk.ReadPages(extent + i, 1, page.data()).ok());
    EXPECT_EQ(page, PageOf(static_cast<char>('a' + i))) << "page " << i;
  }
  EXPECT_EQ(disk.stats().page_writes, 3u);
  EXPECT_EQ(disk.stats().page_reads, 6u);
}

TEST(DiskManagerTest, NeverWrittenPagesReadAsZeroes) {
  auto dm = DiskManager::Create(TestPath("zero"), kPage);
  ASSERT_TRUE(dm.ok());
  const uint64_t page = *(*dm)->AllocatePages(1);
  std::string buf(kPage, 'x');
  ASSERT_TRUE((*dm)->ReadPages(page, 1, buf.data()).ok());
  EXPECT_EQ(buf, std::string(kPage, '\0'));
}

// A read that runs past the written end of the file comes back short: the
// written head is intact and the missing tail is zero-filled.
TEST(DiskManagerTest, ShortReadsZeroFill) {
  auto dm = DiskManager::Create(TestPath("short"), kPage);
  ASSERT_TRUE(dm.ok());
  DiskManager& disk = **dm;
  const uint64_t extent = *disk.AllocatePages(2);
  ASSERT_TRUE(disk.WritePages(extent, 1, PageOf('h').data()).ok());
  std::string buf(2 * kPage, 'x');
  ASSERT_TRUE(disk.ReadPages(extent, 2, buf.data()).ok());
  EXPECT_EQ(buf, PageOf('h') + std::string(kPage, '\0'));
  EXPECT_EQ(disk.stats().page_reads, 2u);
}

TEST(DiskManagerTest, BoundsAreChecked) {
  auto dm = DiskManager::Create(TestPath("bounds"), kPage);
  ASSERT_TRUE(dm.ok());
  std::string buf(kPage, '\0');
  EXPECT_EQ((*dm)->ReadPages(0, 1, buf.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*dm)->WritePages(0, 1, buf.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*dm)->AllocatePages(0).status().code(),
            StatusCode::kInvalidArgument);
}

// Create and CreateTemp files alike are unlinked when the manager goes.
TEST(DiskManagerTest, TempFileIsRemovedOnDestruction) {
  std::vector<std::string> paths;
  {
    auto created = DiskManager::Create(TestPath("unlink"), kPage);
    auto temp = DiskManager::CreateTemp(testing::TempDir(), kPage);
    ASSERT_TRUE(created.ok() && temp.ok());
    paths = {(*created)->path(), (*temp)->path()};
    for (const std::string& path : paths) {
      ASSERT_TRUE(std::filesystem::exists(path)) << path;
    }
  }
  for (const std::string& path : paths) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
}

// A spill file that was written to and then closed is still unlinked when
// its manager goes.
TEST(DiskManagerTest, SpillFileRemovedOnDestruction) {
  std::string path;
  {
    auto dm = DiskManager::CreateTemp(testing::TempDir(), kPage);
    ASSERT_TRUE(dm.ok()) << dm.status().ToString();
    path = (*dm)->path();
    const uint64_t page = *(*dm)->AllocatePages(1);
    ASSERT_TRUE((*dm)->WritePages(page, 1, PageOf('s').data()).ok());
    ASSERT_TRUE((*dm)->Close().ok());
    ASSERT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DiskManagerTest, CloseSurfacesAndFurtherIoFailsTyped) {
  auto dm = DiskManager::Create(TestPath("close"), kPage);
  ASSERT_TRUE(dm.ok());
  const uint64_t page = *(*dm)->AllocatePages(1);
  ASSERT_TRUE((*dm)->Close().ok());
  ASSERT_TRUE((*dm)->Close().ok());  // Idempotent.
  std::string buf(kPage, '\0');
  EXPECT_EQ((*dm)->ReadPages(page, 1, buf.data()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*dm)->WritePages(page, 1, buf.data()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DiskManagerTest, FaultPointsPropagateTyped) {
  auto dm = DiskManager::Create(TestPath("faults"), kPage);
  ASSERT_TRUE(dm.ok());
  const uint64_t page = *(*dm)->AllocatePages(1);
  std::string buf(kPage, '\0');
  {
    ScopedFaultInjection faults("storage.disk.write=unavailable,times=1");
    EXPECT_EQ((*dm)->WritePages(page, 1, buf.data()).code(),
              StatusCode::kUnavailable);
  }
  {
    ScopedFaultInjection faults("storage.disk.read=unavailable,times=1");
    EXPECT_EQ((*dm)->ReadPages(page, 1, buf.data()).code(),
              StatusCode::kUnavailable);
  }
  // Injected faults do not corrupt the manager: plain I/O still works.
  EXPECT_TRUE((*dm)->WritePages(page, 1, buf.data()).ok());
}

TEST(DiskManagerTest, SweepReclaimsOnlyDeadOwnersSpillFiles) {
  const std::string dir = testing::TempDir() + "/kwsdbg_sweep_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto touch = [&](const std::string& name) {
    std::ofstream(dir + "/" + name) << "x";
  };

  // A pid that is guaranteed dead and reaped: our own forked child.
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

  const std::string dead_file =
      "kwsdbg_spill_" + std::to_string(dead) + "_0.pages";
  const std::string live_file =
      "kwsdbg_spill_" + std::to_string(getpid()) + "_0.pages";
  touch(dead_file);
  touch(live_file);
  touch("kwsdbg_spill_notapid_0.pages");  // Unparsable: left alone.
  touch("unrelated.pages");               // Wrong prefix: left alone.

  auto removed = SweepStaleSpillFiles(dir);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + dead_file));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + live_file));
  EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.pages"));

  // Absent directory: zero removed, not an error.
  EXPECT_EQ(*SweepStaleSpillFiles(dir + "/nope"), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kwsdbg
