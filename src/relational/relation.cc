#include "relational/relation.h"

#include <optional>
#include <string_view>

#include "common/check.h"

namespace spatialjoin {

Relation::Relation(std::string name, Schema schema, BufferPool* pool,
                   RelationLayout layout, size_t pad_tuples_to,
                   double fill_factor)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool),
      layout_(layout),
      pad_tuples_to_(pad_tuples_to) {
  SJ_CHECK(pool != nullptr);
  if (layout_ == RelationLayout::kHeap) {
    heap_ = std::make_unique<HeapFile>(pool);
  } else {
    clustered_ = std::make_unique<ClusteredFile>(pool, fill_factor);
  }
}

TupleId Relation::Insert(const Tuple& tuple) {
  SJ_CHECK_MSG(tuple.Conforms(schema_),
               "tuple " << tuple.ToString() << " does not conform to "
                        << schema_.ToString());
  std::string bytes = tuple.Serialize(pad_tuples_to_);
  if (layout_ == RelationLayout::kHeap) {
    RecordId rid = heap_->Insert(bytes);
    rids_.push_back(rid);
  } else {
    int64_t ordinal = clustered_->Append(bytes);
    SJ_CHECK_EQ(ordinal, num_tuples_);
  }
  return num_tuples_++;
}

std::string_view Relation::RecordOf(TupleId tid) const {
  SJ_CHECK_GE(tid, 0);
  SJ_CHECK_LT(tid, num_tuples_);
  if (layout_ == RelationLayout::kClustered) return clustered_->View(tid);
  const std::optional<std::string_view> bytes =
      heap_->View(rids_[static_cast<size_t>(tid)]);
  SJ_CHECK_MSG(bytes.has_value(), "tuple " << tid << " was deleted");
  return *bytes;
}

Tuple Relation::Read(TupleId tid) const {
  return Tuple::Deserialize(RecordOf(tid), schema_.num_columns());
}

Value Relation::ReadValue(TupleId tid, size_t column) const {
  SJ_CHECK_LT(column, schema_.num_columns());
  return Tuple::DeserializeColumn(RecordOf(tid), column);
}

Rectangle Relation::MbrOf(TupleId tid, size_t column) const {
  return ReadValue(tid, column).Mbr();
}

void Relation::Scan(
    const std::function<void(TupleId, const Tuple&)>& fn) const {
  if (layout_ == RelationLayout::kHeap) {
    // Heap order equals insertion order for our append-only heap file, so
    // tids can be recovered by counting.
    TupleId tid = 0;
    heap_->Scan([&](const RecordId&, std::string_view bytes) {
      fn(tid++, Tuple::Deserialize(bytes, schema_.num_columns()));
    });
  } else {
    clustered_->Scan([&](int64_t ordinal, std::string_view bytes) {
      fn(ordinal, Tuple::Deserialize(bytes, schema_.num_columns()));
    });
  }
}

int64_t Relation::num_pages() const {
  return layout_ == RelationLayout::kHeap ? heap_->num_pages()
                                          : clustered_->num_pages();
}

PageId Relation::PageOf(TupleId tid) const {
  SJ_CHECK_GE(tid, 0);
  SJ_CHECK_LT(tid, num_tuples_);
  if (layout_ == RelationLayout::kHeap) {
    return rids_[static_cast<size_t>(tid)].page_id;
  }
  return clustered_->RidOf(tid).page_id;
}

}  // namespace spatialjoin
