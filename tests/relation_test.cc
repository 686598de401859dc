#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"
#include "relational/relation.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace spatialjoin {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"area", ValueType::kRectangle}});
}

class RelationTest : public ::testing::Test {
 protected:
  RelationTest() : disk_(2000), pool_(&disk_, 64) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(RelationTest, InsertAssignsDenseTupleIds) {
  Relation rel("t", TestSchema(), &pool_);
  for (int64_t i = 0; i < 10; ++i) {
    TupleId tid = rel.Insert(
        Tuple({Value(i), Value(Rectangle(0, 0, 1, 1))}));
    EXPECT_EQ(tid, i);
  }
  EXPECT_EQ(rel.num_tuples(), 10);
}

TEST_F(RelationTest, ReadReturnsInsertedTuple) {
  Relation rel("t", TestSchema(), &pool_);
  Tuple t({Value(int64_t{5}), Value(Rectangle(1, 2, 3, 4))});
  TupleId tid = rel.Insert(t);
  EXPECT_EQ(rel.Read(tid), t);
  EXPECT_EQ(rel.MbrOf(tid, 1), Rectangle(1, 2, 3, 4));
}

TEST_F(RelationTest, ScanVisitsAllWithCorrectIds) {
  for (RelationLayout layout :
       {RelationLayout::kHeap, RelationLayout::kClustered}) {
    Relation rel("t", TestSchema(), &pool_, layout);
    for (int64_t i = 0; i < 25; ++i) {
      rel.Insert(Tuple({Value(i), Value(Rectangle(0, 0, 1, 1))}));
    }
    std::set<TupleId> seen;
    rel.Scan([&](TupleId tid, const Tuple& tuple) {
      EXPECT_EQ(tuple.value(0).AsInt64(), tid);  // id column mirrors tid
      seen.insert(tid);
    });
    EXPECT_EQ(seen.size(), 25u);
  }
}

TEST_F(RelationTest, PaddedTuplesMatchPaperPageCapacity) {
  // v = 300, s = 2000, l = 0.75 ⇒ m = 5 tuples per page (Table 3).
  Relation rel("t", TestSchema(), &pool_, RelationLayout::kClustered,
               /*pad_tuples_to=*/300, /*fill_factor=*/0.75);
  for (int64_t i = 0; i < 50; ++i) {
    rel.Insert(Tuple({Value(i), Value(Rectangle(0, 0, 1, 1))}));
  }
  EXPECT_EQ(rel.num_pages(), 13);  // ⌈50/4⌉: 4×308 ≤ 1500 < 5×308
  // Consecutive tuples share pages under clustering.
  EXPECT_EQ(rel.PageOf(0), rel.PageOf(1));
}

TEST_F(RelationTest, HeapAndClusteredAgreeLogically) {
  Relation heap("h", TestSchema(), &pool_, RelationLayout::kHeap);
  Relation clustered("c", TestSchema(), &pool_,
                     RelationLayout::kClustered);
  for (int64_t i = 0; i < 30; ++i) {
    Tuple t({Value(i), Value(Rectangle(0, 0, 1.0 + static_cast<double>(i), 1))});
    heap.Insert(t);
    clustered.Insert(t);
  }
  for (int64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(heap.Read(i), clustered.Read(i));
  }
}

// ReadValue is Read(tid).value(column) at the same cost: one page access
// and one counted heap read per call.
TEST_F(RelationTest, ReadValueMatchesReadAtTheSameCost) {
  const Schema schema({{"id", ValueType::kInt64},
                       {"name", ValueType::kString},
                       {"area", ValueType::kPolygon}});
  Counter* heap_reads =
      MetricsRegistry::Global().GetCounter("storage.heap_file.reads");
  for (RelationLayout layout :
       {RelationLayout::kHeap, RelationLayout::kClustered}) {
    Relation rel("t", schema, &pool_, layout);
    for (int64_t i = 0; i < 40; ++i) {
      const double d = static_cast<double>(i);
      rel.Insert(Tuple({Value(i), Value(std::string(i % 7, 'x')),
                        Value(Polygon({{d, 0}, {d + 2, 0}, {d + 1, 3}}))}));
    }
    for (TupleId tid = 0; tid < rel.num_tuples(); ++tid) {
      for (size_t column = 0; column < 3; ++column) {
        pool_.ResetStats();
        const int64_t heap_before = heap_reads->Value();
        const Value got = rel.ReadValue(tid, column);
        const BufferPoolStats value_stats = pool_.stats();
        const int64_t value_reads = heap_reads->Value() - heap_before;
        pool_.ResetStats();
        const Value want = rel.Read(tid).value(column);
        const int64_t tuple_reads =
            heap_reads->Value() - heap_before - value_reads;
        EXPECT_EQ(got, want) << tid << " " << column;
        EXPECT_EQ(value_stats.hits + value_stats.misses, 1);
        EXPECT_EQ(pool_.stats().hits + pool_.stats().misses, 1);
        EXPECT_EQ(value_reads, layout == RelationLayout::kHeap ? 1 : 0);
        EXPECT_EQ(tuple_reads, value_reads);
      }
    }
  }
}

TEST_F(RelationTest, ReadCountsIo) {
  Relation rel("t", TestSchema(), &pool_, RelationLayout::kClustered,
               /*pad_tuples_to=*/300);
  for (int64_t i = 0; i < 100; ++i) {
    rel.Insert(Tuple({Value(i), Value(Rectangle(0, 0, 1, 1))}));
  }
  ASSERT_TRUE(pool_.Clear().ok());  // start cold
  int64_t reads_before = disk_.stats().page_reads;
  rel.Read(50);
  EXPECT_EQ(disk_.stats().page_reads, reads_before + 1);
  // Re-reading the same page hits the pool: no extra disk read.
  rel.Read(51);
  rel.Read(50);
  EXPECT_LE(disk_.stats().page_reads, reads_before + 2);
}

}  // namespace
}  // namespace spatialjoin
