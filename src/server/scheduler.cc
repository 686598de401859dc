#include "server/scheduler.h"

#include <utility>

#include "common/check.h"

namespace spatialjoin {
namespace server {

QueryScheduler::QueryScheduler(exec::ThreadPool* pool, const Options& options)
    : pool_(pool),
      max_inflight_(options.max_inflight > 0 ? options.max_inflight
                                             : pool->num_workers()) {
  SJ_CHECK(pool != nullptr);
}

QueryScheduler::~QueryScheduler() {
  Drain();
  MutexLock lock(mu_);
  SJ_CHECK_MSG(inflight_ == 0,
               "QueryScheduler destroyed with queries in flight");
}

Status QueryScheduler::Submit(std::function<void()> query) {
  {
    MutexLock lock(mu_);
    if (draining_ || inflight_ >= max_inflight_) {
      ++rejected_;
      // The message is static on purpose: under a load burst this Status
      // is constructed thousands of times per second, and the event-log
      // observer copies the message into the ring each time.
      return Status::ResourceExhausted("server overloaded, retry later");
    }
    ++admitted_;
    ++inflight_;
    if (inflight_ > peak_inflight_) peak_inflight_ = inflight_;
  }
  // Post outside the critical section: the pool takes its own locks, and
  // the server's lock order keeps scheduler/session/pool mutexes strictly
  // non-nested (DESIGN.md §12).
  pool_->Post([this, query = std::move(query)] {
    query();
    MutexLock lock(mu_);
    --inflight_;
    ++completed_;
    if (inflight_ == 0) idle_cv_.NotifyAll();
  });
  return Status::Ok();
}

void QueryScheduler::Drain() {
  MutexLock lock(mu_);
  draining_ = true;
  while (inflight_ != 0) idle_cv_.Wait(mu_);
  // Drain is a barrier, not a terminal state: the server drains between
  // "stop accepting connections" and "join sessions", and tests drain
  // between phases.
  draining_ = false;
}

QueryScheduler::Stats QueryScheduler::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.inflight = inflight_;
  s.peak_inflight = peak_inflight_;
  return s;
}

}  // namespace server
}  // namespace spatialjoin
