#ifndef SPATIALJOIN_STORAGE_HEAP_FILE_H_
#define SPATIALJOIN_STORAGE_HEAP_FILE_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace spatialjoin {

/// An unordered record file over slotted pages. This is the physical
/// representation of an *unclustered* relation (the paper's strategy IIa
/// setting: "no clustering at all … participating nodes are randomly
/// distributed in the file containing the relation", §4.2).
///
/// The page directory is kept in memory (not on meta-pages); directory
/// traffic is excluded from I/O counts just as the paper's model excludes
/// catalog access.
///
/// Thread-safety: the in-memory directory (page list, record count) is
/// guarded by `mu_`, so directory reads never observe a torn Insert.
/// Record *data* safety follows the BufferPool pointer contract (see
/// buffer_pool.h): concurrent mutation of the same pool invalidates
/// returned page views, so concurrent readers use snapshots or their own
/// pools. Lock order: HeapFile::mu_ → BufferPool::mu_ → DiskManager::mu_.
class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record, returns its id. Records larger than a page are a
  /// checked error.
  RecordId Insert(std::string_view record) SJ_EXCLUDES(mu_);

  /// The record's bytes in its pool frame, or nullopt if it was deleted;
  /// valid until the pool's next access. Counts one
  /// `storage.heap_file.reads`.
  std::optional<std::string_view> View(const RecordId& rid);

  /// Deletes a record; false if already gone.
  bool Delete(const RecordId& rid) SJ_EXCLUDES(mu_);

  /// Calls `fn(rid, bytes)` for every live record in file order. Iterates
  /// a snapshot of the page directory taken up front, so `fn` may touch
  /// this file (and its pool) without self-deadlocking; records inserted
  /// after the snapshot are not visited.
  void Scan(const std::function<void(const RecordId&,
                                     std::string_view)>& fn)
      SJ_EXCLUDES(mu_);

  int64_t num_pages() const SJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<int64_t>(pages_.size());
  }
  int64_t num_records() const SJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return num_records_;
  }
  /// Snapshot of the page directory (by value: the live list is guarded).
  std::vector<PageId> pages() const SJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return pages_;
  }
  BufferPool* pool() const { return pool_; }

 private:
  BufferPool* const pool_;
  mutable Mutex mu_;
  std::vector<PageId> pages_ SJ_GUARDED_BY(mu_);
  int64_t num_records_ SJ_GUARDED_BY(mu_) = 0;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_STORAGE_HEAP_FILE_H_
