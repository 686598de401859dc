#ifndef SPATIALJOIN_RELATIONAL_RELATION_H_
#define SPATIALJOIN_RELATIONAL_RELATION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/clustered_file.h"
#include "storage/heap_file.h"

namespace spatialjoin {

/// Physical layout of a relation: the paper distinguishes unclustered
/// relations (strategy IIa — tuples randomly placed in a heap file) from
/// relations clustered on the spatial attribute in breadth-first tree
/// order (strategy IIb). The *logical* Relation API is identical; only
/// I/O locality differs.
enum class RelationLayout {
  kHeap,
  kClustered,
};

/// A stored relation with an extended-relational schema: scalar columns
/// plus spatial columns (point / rectangle / polygon). Tuples are
/// identified by dense TupleIds assigned at insertion.
class Relation {
 public:
  /// `pad_tuples_to` forces every stored record to a fixed byte size
  /// (paper parameter v = 300; with page size s = 2000 and utilization
  /// l = 0.75 this yields the paper's m = 5 tuples per page). 0 disables
  /// padding. `fill_factor` is the page utilization target l.
  Relation(std::string name, Schema schema, BufferPool* pool,
           RelationLayout layout = RelationLayout::kHeap,
           size_t pad_tuples_to = 0, double fill_factor = 1.0);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  RelationLayout layout() const { return layout_; }

  /// Inserts a tuple (must conform to the schema); returns its id.
  TupleId Insert(const Tuple& tuple);

  /// Reads a tuple by id (checked: the id must have been returned by
  /// Insert on this relation).
  Tuple Read(TupleId tid) const;

  /// Column `column` of tuple `tid`: the same page access as Read, but
  /// only that column is decoded.
  Value ReadValue(TupleId tid, size_t column) const;

  /// MBR of the spatial value in `column` of tuple `tid`.
  Rectangle MbrOf(TupleId tid, size_t column) const;

  /// Calls `fn(tid, tuple)` over all tuples in physical order.
  void Scan(const std::function<void(TupleId, const Tuple&)>& fn) const;

  int64_t num_tuples() const { return num_tuples_; }
  int64_t num_pages() const;

  /// Page on which tuple `tid` physically lives (for locality analysis).
  PageId PageOf(TupleId tid) const;

 private:
  // Tuple `tid`'s stored bytes in their pool frame (one page access);
  // valid until the pool's next access.
  std::string_view RecordOf(TupleId tid) const;

  std::string name_;
  Schema schema_;
  BufferPool* pool_;
  RelationLayout layout_;
  size_t pad_tuples_to_;
  // Exactly one of the two files is active, selected by layout_.
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<ClusteredFile> clustered_;
  std::vector<RecordId> rids_;  // TupleId → record location (heap layout)
  int64_t num_tuples_ = 0;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_RELATIONAL_RELATION_H_
