#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/clustered_file.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace spatialjoin {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : disk_(512), pool_(&disk_, 16) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, InsertAndRead) {
  HeapFile file(&pool_);
  RecordId r0 = file.Insert("alpha");
  RecordId r1 = file.Insert("beta");
  std::optional<std::string_view> out = file.View(r0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "alpha");
  out = file.View(r1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "beta");
  EXPECT_EQ(file.num_records(), 2);
}

TEST_F(HeapFileTest, SpillsToMultiplePages) {
  HeapFile file(&pool_);
  std::string record(100, 'r');
  std::vector<RecordId> rids;
  for (int i = 0; i < 50; ++i) rids.push_back(file.Insert(record));
  EXPECT_GT(file.num_pages(), 5);
  for (const RecordId& rid : rids) {
    const std::optional<std::string_view> out = file.View(rid);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, record);
  }
}

TEST_F(HeapFileTest, DeleteHidesRecord) {
  HeapFile file(&pool_);
  RecordId rid = file.Insert("gone");
  EXPECT_TRUE(file.Delete(rid));
  EXPECT_FALSE(file.View(rid).has_value());
  EXPECT_FALSE(file.Delete(rid));
  EXPECT_EQ(file.num_records(), 0);
}

TEST_F(HeapFileTest, ScanVisitsLiveRecordsInOrder) {
  HeapFile file(&pool_);
  std::vector<RecordId> rids;
  for (int i = 0; i < 20; ++i) {
    rids.push_back(file.Insert("rec-" + std::to_string(i)));
  }
  file.Delete(rids[3]);
  file.Delete(rids[17]);
  std::vector<std::string> seen;
  file.Scan([&](const RecordId&, std::string_view bytes) {
    seen.emplace_back(bytes);
  });
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_EQ(seen[0], "rec-0");
  EXPECT_EQ(seen[3], "rec-4");  // rec-3 deleted
}

TEST_F(HeapFileTest, ScanSurvivesPoolPressure) {
  // A pool barely larger than one page forces evictions mid-scan.
  DiskManager small_disk(512);
  BufferPool small_pool(&small_disk, 2);
  HeapFile file(&small_pool);
  for (int i = 0; i < 40; ++i) file.Insert(std::string(100, static_cast<char>('a' + i % 26)));
  int count = 0;
  file.Scan([&](const RecordId&, std::string_view) { ++count; });
  EXPECT_EQ(count, 40);
}

TEST(ClusteredFileTest, PreservesLoadOrder) {
  DiskManager disk(512);
  BufferPool pool(&disk, 16);
  ClusteredFile file(&pool);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(file.Append("row-" + std::to_string(i)), i);
  }
  EXPECT_EQ(file.View(17), "row-17");
  std::vector<int64_t> order;
  file.Scan([&](int64_t ordinal, std::string_view) {
    order.push_back(ordinal);
  });
  EXPECT_EQ(order.size(), 30u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int64_t>(i));
  }
}

TEST(ClusteredFileTest, ConsecutiveRecordsSharePages) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 16);
  ClusteredFile file(&pool);
  std::string record(300, 'x');  // paper tuple size
  for (int i = 0; i < 30; ++i) file.Append(record);
  // 2000-byte pages fit 6 records of 300+8 bytes: neighbors share pages.
  EXPECT_EQ(file.RidOf(0).page_id, file.RidOf(1).page_id);
  EXPECT_LE(file.num_pages(), 6);
}

TEST(ClusteredFileTest, FillFactorLimitsUtilization) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 16);
  ClusteredFile full(&pool, 1.0);
  ClusteredFile partial(&pool, 0.75);
  std::string record(300, 'y');
  for (int i = 0; i < 24; ++i) {
    full.Append(record);
    partial.Append(record);
  }
  // l = 0.75 on 2000-byte pages with 300-byte tuples gives the paper's
  // m ≈ 5 tuples per page versus 6 at full utilization.
  EXPECT_GT(partial.num_pages(), full.num_pages());
  EXPECT_EQ(partial.num_pages(), 24 / 4);  // ⌊2000·0.75/308⌋ = 4 per page
}

}  // namespace
}  // namespace spatialjoin
