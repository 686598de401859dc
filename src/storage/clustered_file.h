#ifndef SPATIALJOIN_STORAGE_CLUSTERED_FILE_H_
#define SPATIALJOIN_STORAGE_CLUSTERED_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace spatialjoin {

/// A bulk-loaded record file that preserves the load order on disk:
/// records appended consecutively share pages. This is the physical
/// representation of a *clustered* relation (strategy IIb: "tuples are
/// clustered on their relevant spatial attribute in breadth-first order
/// with respect to the corresponding generalization tree", §4.1).
///
/// An optional fill factor models the paper's average space utilization
/// parameter l (Table 3: l = 0.75): each page is closed once it is
/// `fill_factor` full.
class ClusteredFile {
 public:
  /// `fill_factor` in (0, 1]: fraction of the page usable before a new
  /// page is started.
  ClusteredFile(BufferPool* pool, double fill_factor = 1.0);

  ClusteredFile(const ClusteredFile&) = delete;
  ClusteredFile& operator=(const ClusteredFile&) = delete;

  /// Appends the next record in clustering order; returns its ordinal.
  int64_t Append(std::string_view record);

  /// Record `ordinal` (0-based load order) in its pool frame; valid until
  /// the pool's next access.
  std::string_view View(int64_t ordinal);

  /// Record id (page + slot) of an ordinal, for I/O locality analysis.
  RecordId RidOf(int64_t ordinal) const;

  /// Calls `fn(ordinal, bytes)` over all records in clustering order.
  void Scan(const std::function<void(int64_t, std::string_view)>& fn);

  int64_t num_records() const { return static_cast<int64_t>(rids_.size()); }
  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }
  const std::vector<PageId>& pages() const { return pages_; }

 private:
  BufferPool* pool_;
  double fill_factor_;
  std::vector<PageId> pages_;
  std::vector<RecordId> rids_;  // ordinal → location
  size_t used_on_last_page_ = 0;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_STORAGE_CLUSTERED_FILE_H_
