#ifndef SPATIALJOIN_AUDIT_EXEC_AUDIT_H_
#define SPATIALJOIN_AUDIT_EXEC_AUDIT_H_

#include "audit/audit_report.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"

namespace spatialjoin {
namespace audit {

/// Validator for the exec layer's thread pool (DESIGN.md §7). Meant to
/// run between queries, when the pool should be quiescent — a pool with
/// work queued legitimately fails the conservation checks, so call sites
/// audit after ParallelFor returned and every posted task started.
///
/// Checks:
///  * the pool has at least one worker;
///  * task conservation: submitted == executed + queued (every submitted
///    task is either done or still waiting — none lost, none duplicated);
///  * a quiescent pool has nothing queued;
///  * helpers that claimed work ("stolen") are a subset of executed
///    tasks.
AuditReport AuditThreadPool(const exec::ThreadPool& pool);

/// Validator for a FrozenTree's ring approximations (RingApprox, built by
/// Materialize; DESIGN.md §7). It passes only if every record is sound,
/// so the multi-step refine cannot change a join's answer. Checks:
///  * exactly the polygon application objects carry a record;
///  * every vertex of a record's ring lies within its octagon's extents
///    along x + y and x − y;
///  * a record's disk (radius > 0) has its centre inside the ring (the
///    even-odd rule), and every edge of the ring lies at least the radius
///    plus half the margin from that centre.
AuditReport AuditFrozenTree(const exec::FrozenTree& tree);

}  // namespace audit
}  // namespace spatialjoin

#endif  // SPATIALJOIN_AUDIT_EXEC_AUDIT_H_
