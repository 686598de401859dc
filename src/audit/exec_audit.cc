#include "audit/exec_audit.h"

#include <sstream>
#include <string>

#include "geometry/distance.h"
#include "geometry/polygon.h"
#include "geometry/ring.h"

namespace spatialjoin {
namespace audit {

AuditReport AuditThreadPool(const exec::ThreadPool& pool) {
  AuditReport report("thread_pool");
  const exec::ThreadPool::Stats stats = pool.stats();
  const bool quiescent = pool.Quiescent();

  report.CountCheck();
  if (stats.workers < 1) {
    report.AddError("pool", "pool has no workers");
  }

  if (quiescent) {
    report.CountCheck();
    if (stats.tasks_submitted != stats.tasks_executed) {
      std::ostringstream os;
      os << "task conservation violated: submitted=" << stats.tasks_submitted
         << " executed=" << stats.tasks_executed
         << " (quiescent pool — none may be pending)";
      report.AddError("pool", os.str());
    }

    report.CountCheck();
    if (stats.tasks_queued != 0) {
      std::ostringstream os;
      os << "quiescent pool still has " << stats.tasks_queued
         << " queued tasks";
      report.AddError("pool", os.str());
    }
  } else {
    // With work in flight the counters form an inequality, not an
    // equation: executed + queued never exceeds submitted.
    report.CountCheck();
    if (stats.tasks_executed + stats.tasks_queued > stats.tasks_submitted) {
      std::ostringstream os;
      os << "task conservation violated: submitted=" << stats.tasks_submitted
         << " executed=" << stats.tasks_executed
         << " queued=" << stats.tasks_queued;
      report.AddError("pool", os.str());
    }
    report.AddWarning("pool", "audited while tasks were in flight");
  }

  report.CountCheck();
  if (stats.tasks_stolen > stats.tasks_executed) {
    std::ostringstream os;
    os << "stolen=" << stats.tasks_stolen << " exceeds executed="
       << stats.tasks_executed;
    report.AddError("pool", os.str());
  }

  return report.Finish();
}

namespace {

// The soundness checks of one record against the ring it approximates.
void AuditRecord(const RingView& ring, const RingApprox& approx,
                 const std::string& path, AuditReport* report) {
  report->CountCheck();
  for (size_t i = 0; i < ring.size; ++i) {
    const Point& p = ring.points[i];
    const double sum = p.x + p.y;
    const double diff = p.x - p.y;
    if (sum < approx.sum_min || sum > approx.sum_max ||
        diff < approx.diff_min || diff > approx.diff_max) {
      std::ostringstream os;
      os << "vertex " << i << " " << ToString(p)
         << " escapes the octagon: x+y in [" << approx.sum_min << ", "
         << approx.sum_max << "], x-y in [" << approx.diff_min << ", "
         << approx.diff_max << "]";
      report->AddError(path, os.str());
      break;
    }
  }
  if (approx.radius <= 0.0) return;
  report->CountCheck();
  if (!RingContainsPoint(ring, approx.center)) {
    report->AddError(path, "disk centre " + ToString(approx.center) +
                               " lies outside its ring");
  }
  report->CountCheck();
  const double clearance = approx.radius + 0.5 * approx.margin;
  for (size_t i = 0; i < ring.size; ++i) {
    const Point& a = ring.points[i];
    const Point& b = ring.points[(i + 1) % ring.size];
    const double distance = DistancePointSegment(approx.center, a, b);
    if (distance < clearance) {
      std::ostringstream os;
      os << "edge " << i << " lies " << distance << " from the disk centre "
         << ToString(approx.center) << ", within radius " << approx.radius
         << " plus half the margin " << approx.margin;
      report->AddError(path, os.str());
      break;
    }
  }
}

}  // namespace

AuditReport AuditFrozenTree(const exec::FrozenTree& tree) {
  AuditReport report("frozen_tree");
  for (NodeId node = 0; node < tree.num_nodes(); ++node) {
    const std::string path = "node[" + std::to_string(node) + "]";
    const Polygon* polygon = tree.IsApplicationAt(node)
                                 ? tree.GeometryRef(node).TryPolygon()
                                 : nullptr;
    const RingApprox* approx = tree.ApproxAt(node);
    report.CountCheck();
    if ((approx != nullptr) != (polygon != nullptr)) {
      report.AddError(path, polygon != nullptr
                                ? "polygon application object has no record"
                                : "record on a node that is no polygon "
                                  "application object");
      continue;
    }
    if (approx != nullptr) {
      AuditRecord(polygon->ring_view(), *approx, path, &report);
    }
  }
  return report.Finish();
}

}  // namespace audit
}  // namespace spatialjoin
