#include "storage/heap_file.h"

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "storage/slotted_page.h"

namespace spatialjoin {

namespace {

// Record-level traffic counters for the registry; page-level traffic is
// counted by DiskManager/BufferPool, so these add the record/page ratio
// the cost model's m = ⌊s·l/v⌋ parameter predicts.
Counter* InsertsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.heap_file.inserts");
  return c;
}

Counter* ReadsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.heap_file.reads");
  return c;
}

Counter* DeletesCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.heap_file.deletes");
  return c;
}

}  // namespace

HeapFile::HeapFile(BufferPool* pool) : pool_(pool) {
  SJ_CHECK(pool != nullptr);
}

RecordId HeapFile::Insert(std::string_view record) {
  SJ_CHECK_MSG(record.size() + 8 <= pool_->disk()->page_size(),
               "record of " << record.size()
                            << " bytes does not fit on a page");
  MutexLock lock(mu_);
  if (!pages_.empty()) {
    PageId last = pages_.back();
    Page* page = pool_->GetMutablePage(last);
    if (auto slot = slotted::Insert(page, record)) {
      ++num_records_;
      InsertsCounter()->Increment();
      return RecordId{last, *slot};
    }
  }
  PageId fresh = pool_->NewPage();
  Page* page = pool_->GetMutablePage(fresh);
  slotted::Init(page);
  auto slot = slotted::Insert(page, record);
  SJ_CHECK(slot.has_value());
  pages_.push_back(fresh);
  ++num_records_;
  InsertsCounter()->Increment();
  return RecordId{fresh, *slot};
}

std::optional<std::string_view> HeapFile::View(const RecordId& rid) {
  // Debug-only: runs once per record on scan-heavy paths, and an invalid
  // page id is still caught (fatally) by the pool's disk read.
  SJ_DCHECK(rid.is_valid());
  ReadsCounter()->Increment();
  return slotted::Read(*pool_->GetPage(rid.page_id), rid.slot);
}

bool HeapFile::Delete(const RecordId& rid) {
  SJ_DCHECK(rid.is_valid());  // as in Read: re-checked by the disk layer
  MutexLock lock(mu_);
  Page* page = pool_->GetMutablePage(rid.page_id);
  if (!slotted::Delete(page, rid.slot)) return false;
  --num_records_;
  DeletesCounter()->Increment();
  return true;
}

void HeapFile::Scan(
    const std::function<void(const RecordId&, std::string_view)>& fn) {
  // Snapshot the directory so `fn` can call back into this file (or its
  // pool) without holding mu_ — see the header contract.
  for (PageId pid : pages()) {
    SJ_BOUNDED_WORK;  // full-file scan; callers' visit loops poll
    const Page* page = pool_->GetPage(pid);
    uint16_t slots = slotted::NumSlots(*page);
    for (uint16_t s = 0; s < slots; ++s) {
      SJ_BOUNDED_WORK;  // one page's slots
      auto bytes = slotted::Read(*page, s);
      if (bytes.has_value()) fn(RecordId{pid, s}, *bytes);
      // Re-fetch in case `fn` touched the pool and invalidated the frame.
      page = pool_->GetPage(pid);
    }
  }
}

}  // namespace spatialjoin
