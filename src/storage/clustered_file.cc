#include "storage/clustered_file.h"

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "storage/slotted_page.h"

namespace spatialjoin {

ClusteredFile::ClusteredFile(BufferPool* pool, double fill_factor)
    : pool_(pool), fill_factor_(fill_factor) {
  SJ_CHECK(pool != nullptr);
  SJ_CHECK_MSG(fill_factor > 0.0 && fill_factor <= 1.0,
               "fill_factor must be in (0,1], got " << fill_factor);
}

int64_t ClusteredFile::Append(std::string_view record) {
  SJ_CHECK_MSG(record.size() + 8 <= pool_->disk()->page_size(),
               "record of " << record.size()
                            << " bytes does not fit on a page");
  size_t budget = static_cast<size_t>(
      fill_factor_ * static_cast<double>(pool_->disk()->page_size()));
  bool need_new_page =
      pages_.empty() || used_on_last_page_ + record.size() + 8 > budget;
  if (!need_new_page) {
    Page* page = pool_->GetMutablePage(pages_.back());
    auto slot = slotted::Insert(page, record);
    if (slot.has_value()) {
      used_on_last_page_ += record.size() + 8;
      rids_.push_back(RecordId{pages_.back(), *slot});
      return num_records() - 1;
    }
    // Fill-factor budget not yet reached but the physical page is full.
  }
  PageId fresh = pool_->NewPage();
  Page* page = pool_->GetMutablePage(fresh);
  slotted::Init(page);
  auto slot = slotted::Insert(page, record);
  SJ_CHECK(slot.has_value());
  pages_.push_back(fresh);
  used_on_last_page_ = record.size() + 8;
  rids_.push_back(RecordId{fresh, *slot});
  return num_records() - 1;
}

std::string_view ClusteredFile::View(int64_t ordinal) {
  SJ_CHECK_GE(ordinal, 0);
  SJ_CHECK_LT(ordinal, num_records());
  const RecordId& rid = rids_[static_cast<size_t>(ordinal)];
  const Page* page = pool_->GetPage(rid.page_id);
  auto bytes = slotted::Read(*page, rid.slot);
  SJ_CHECK(bytes.has_value());
  return *bytes;
}

RecordId ClusteredFile::RidOf(int64_t ordinal) const {
  SJ_CHECK_GE(ordinal, 0);
  SJ_CHECK_LT(ordinal, num_records());
  return rids_[static_cast<size_t>(ordinal)];
}

void ClusteredFile::Scan(
    const std::function<void(int64_t, std::string_view)>& fn) {
  for (int64_t i = 0; i < num_records(); ++i) {
    SJ_BOUNDED_WORK;  // full-file scan; callers' visit loops poll
    const RecordId& rid = rids_[static_cast<size_t>(i)];
    const Page* page = pool_->GetPage(rid.page_id);
    auto bytes = slotted::Read(*page, rid.slot);
    SJ_CHECK(bytes.has_value());
    fn(i, *bytes);
  }
}

}  // namespace spatialjoin
