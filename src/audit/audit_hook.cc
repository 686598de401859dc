#include "audit/audit_hook.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "audit/btree_audit.h"
#include "audit/bufferpool_audit.h"
#include "audit/exec_audit.h"
#include "audit/gentree_audit.h"
#include "audit/heap_audit.h"
#include "audit/rtree_audit.h"
#include "common/check.h"

namespace spatialjoin {
namespace audit {

namespace {

AuditLevel ParseLevel(const char* text) {
  if (text == nullptr) return AuditLevel::kOff;
  std::string s(text);
  if (s == "1" || s == "basic") return AuditLevel::kBasic;
  if (s == "2" || s == "paranoid") return AuditLevel::kParanoid;
  return AuditLevel::kOff;
}

// Atomic so a SetAuditLevel on the main thread cannot race hook reads on
// pool workers (e.g. the exec auditor consulted from parallel suites).
// getenv is read once, before any worker exists.
std::atomic<AuditLevel>& ActiveLevel() {
  // (Trivially destructible, so the usual static-teardown hazard that
  // makes other singletons leak on purpose does not apply here.)
  static std::atomic<AuditLevel> level(
      // NOLINTNEXTLINE(concurrency-mt-unsafe) — single read pre-threads.
      ParseLevel(std::getenv("SJ_AUDIT_LEVEL")));
  return level;
}

}  // namespace

AuditLevel CurrentAuditLevel() {
  return ActiveLevel().load(std::memory_order_relaxed);
}

void SetAuditLevel(AuditLevel level) {
  ActiveLevel().store(level, std::memory_order_relaxed);
}

bool AuditEnabled(AuditLevel at_least) {
  return static_cast<int>(CurrentAuditLevel()) >= static_cast<int>(at_least);
}

void Enforce(const AuditReport& report) {
  SJ_CHECK_MSG(report.error_count() == 0, report.ToString());
}

void MaybeAudit(const RTree& tree, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditRTree(tree));
}

void MaybeAudit(const BPlusTree& tree, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditBPlusTree(tree));
}

void MaybeAudit(const HeapFile& file, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditHeapFile(file));
}

void MaybeAudit(const BufferPool& pool, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditBufferPool(pool));
}

void MaybeAudit(const GeneralizationTree& tree, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditGenTree(tree));
}

void MaybeAudit(const exec::FrozenTree& tree, AuditLevel min_level) {
  if (!AuditEnabled(min_level)) return;
  Enforce(AuditGenTree(tree));
  Enforce(AuditFrozenTree(tree));
}

void MaybeAudit(const exec::ThreadPool& pool, AuditLevel min_level) {
  if (AuditEnabled(min_level)) Enforce(AuditThreadPool(pool));
}

}  // namespace audit
}  // namespace spatialjoin
