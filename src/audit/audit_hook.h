#ifndef SPATIALJOIN_AUDIT_AUDIT_HOOK_H_
#define SPATIALJOIN_AUDIT_AUDIT_HOOK_H_

#include "audit/audit_report.h"
#include "btree/bplus_tree.h"
#include "core/gentree.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace spatialjoin {
namespace audit {

/// How aggressively the post-operation audit hooks run. Controlled by the
/// SJ_AUDIT_LEVEL environment variable ("0"/"off", "1"/"basic",
/// "2"/"paranoid"; unset means off), overridable in-process via
/// SetAuditLevel.
///
///  * kOff      — hooks are no-ops; production setting.
///  * kBasic    — checkpoint audits run (hooks registered with
///                min_level = kBasic, e.g. end-of-test validation).
///  * kParanoid — every hook runs, including the after-every-mutation
///                hooks in the randomized property harness. O(structure)
///                per mutation; debug/test setting only.
enum class AuditLevel {
  kOff = 0,
  kBasic = 1,
  kParanoid = 2,
};

/// The active level: the last SetAuditLevel value, else SJ_AUDIT_LEVEL
/// from the environment (parsed once), else kOff.
AuditLevel CurrentAuditLevel();

/// Overrides the environment for this process (tests set kParanoid to
/// force the per-op hooks on regardless of the invoking shell).
void SetAuditLevel(AuditLevel level);

/// True iff the active level is at least `at_least`.
bool AuditEnabled(AuditLevel at_least);

/// Aborts via SJ_CHECK with the full report text if the report contains
/// errors. Warnings do not abort: untight MBRs and underfull lazy-delete
/// leaves are legal states the auditors still surface.
void Enforce(const AuditReport& report);

/// Post-operation hooks: if the active level is >= `min_level`, audit the
/// structure and abort on errors; otherwise do nothing. Call sites in
/// tests wire these after mutating operations.
void MaybeAudit(const RTree& tree,
                AuditLevel min_level = AuditLevel::kParanoid);
void MaybeAudit(const BPlusTree& tree,
                AuditLevel min_level = AuditLevel::kParanoid);
void MaybeAudit(const HeapFile& file,
                AuditLevel min_level = AuditLevel::kParanoid);
void MaybeAudit(const BufferPool& pool,
                AuditLevel min_level = AuditLevel::kParanoid);
void MaybeAudit(const GeneralizationTree& tree,
                AuditLevel min_level = AuditLevel::kParanoid);
/// A FrozenTree gets the generalization-tree audit and the audit of its
/// ring approximations.
void MaybeAudit(const exec::FrozenTree& tree,
                AuditLevel min_level = AuditLevel::kParanoid);
void MaybeAudit(const exec::ThreadPool& pool,
                AuditLevel min_level = AuditLevel::kParanoid);

}  // namespace audit
}  // namespace spatialjoin

#endif  // SPATIALJOIN_AUDIT_AUDIT_HOOK_H_
