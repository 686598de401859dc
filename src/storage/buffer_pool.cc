#include "storage/buffer_pool.h"

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace spatialjoin {

namespace {

// Registry mirrors of BufferPoolStats (aggregated across all pools); the
// running query's own share goes to its attribution sink.
Counter* HitsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.hits");
  return c;
}

Counter* MissesCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.misses");
  return c;
}

Counter* EvictionsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.evictions");
  return c;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, int64_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  SJ_CHECK(disk != nullptr);
  SJ_CHECK_GE(capacity_pages, 1);
}

BufferPool::~BufferPool() {
  Status status = FlushAll();
  if (!status.ok()) {
    // Destructors have no error channel. The data for the failed pages is
    // lost with the pool, which is exactly what a caller opted into by
    // not calling FlushAll() itself — but it must never be *silent*: the
    // event echoes to stderr (kError >= the echo threshold) and survives
    // into any flight dump.
    SJ_EVENT(kBufferPoolFault, kError,
             "flush on destruction failed: %s", status.ToString().c_str());
  }
}

BufferPool::Frame& BufferPool::TouchLocked(std::list<Frame>::iterator it) {
  frames_.splice(frames_.begin(), frames_, it);
  index_[frames_.front().id] = frames_.begin();
  return frames_.front();
}

void BufferPool::EvictIfFullLocked() {
  while (static_cast<int64_t>(frames_.size()) >= capacity_) {
    SJ_BOUNDED_WORK;  // evicts down to capacity; pool-size-bounded
    Frame& victim = frames_.back();
    if (victim.dirty) {
      // A lost write here would silently corrupt the on-disk image (the
      // only remaining copy of the frame dies below), so eviction demands
      // success. FlushAll/Clear are the recoverable paths.
      SJ_CHECK_OK(disk_->WritePage(victim.id, victim.page));
    }
    index_.erase(victim.id);
    frames_.pop_back();
    ++stats_.evictions;
    EvictionsCounter()->Increment();
  }
}

BufferPool::Frame& BufferPool::FaultLocked(PageId id) {
  // Miss stall: the query is blocked on the (simulated) disk — eviction
  // write-back plus the page read. Timeline views show these as the gaps
  // the cost model's C_IO term prices.
  SJ_SPAN_CAT("pool.miss_stall", "storage");
  EvictIfFullLocked();
  frames_.emplace_front();
  Frame& frame = frames_.front();
  frame.id = id;
  // Faulting an id the disk never allocated is a programmer error, not a
  // recoverable condition (ids only come from AllocatePage/NewPage).
  SJ_CHECK_OK(disk_->ReadPage(id, &frame.page));
  index_[id] = frames_.begin();
  return frame;
}

const Page* BufferPool::GetPage(PageId id) {
  MutexLock lock(mu_);
  auto it = index_.find(id);
  if (it != index_.end()) {
    ++stats_.hits;
    HitsCounter()->Increment();
    attribution::ChargePagesHit();
    return &TouchLocked(it->second).page;
  }
  ++stats_.misses;
  MissesCounter()->Increment();
  attribution::ChargePagesRead();
  return &FaultLocked(id).page;
}

Page* BufferPool::GetMutablePage(PageId id) {
  MutexLock lock(mu_);
  auto it = index_.find(id);
  Frame* frame;
  if (it != index_.end()) {
    ++stats_.hits;
    HitsCounter()->Increment();
    attribution::ChargePagesHit();
    frame = &TouchLocked(it->second);
  } else {
    ++stats_.misses;
    MissesCounter()->Increment();
    attribution::ChargePagesRead();
    frame = &FaultLocked(id);
  }
  frame->dirty = true;
  return &frame->page;
}

PageId BufferPool::NewPage() {
  MutexLock lock(mu_);
  PageId id = disk_->AllocatePage();
  EvictIfFullLocked();
  frames_.emplace_front();
  Frame& frame = frames_.front();
  frame.id = id;
  frame.page = Page(disk_->page_size());
  frame.dirty = true;
  index_[id] = frames_.begin();
  return id;
}

Status BufferPool::FlushAllLocked() {
  Status first_error;
  for (Frame& frame : frames_) {
    if (!frame.dirty) continue;
    Status status = disk_->WritePage(frame.id, frame.page);
    if (status.ok()) {
      frame.dirty = false;
    } else if (first_error.ok()) {
      first_error = std::move(status);
    }
  }
  return first_error;
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  return FlushAllLocked();
}

std::vector<BufferPool::FrameInfo> BufferPool::ResidentFrames() const {
  MutexLock lock(mu_);
  std::vector<FrameInfo> out;
  out.reserve(frames_.size());
  for (const Frame& frame : frames_) {
    out.push_back(FrameInfo{frame.id, frame.dirty});
  }
  return out;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  MutexLock lock(mu_);
  stats_ = BufferPoolStats{};
}

Status BufferPool::Clear() {
  MutexLock lock(mu_);
  Status status = FlushAllLocked();
  // Keep everything resident on failure: the unflushed frames hold the
  // only copy of their pages.
  if (!status.ok()) return status;
  frames_.clear();
  index_.clear();
  return Status::Ok();
}

}  // namespace spatialjoin
