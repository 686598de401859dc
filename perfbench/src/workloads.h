// The benchmark's workloads. Each runs set-up (repeated, so set-up time
// is a median), measures for the requested time, checks every output,
// and fills the report's metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "data.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // smoke-test sizes: every check, a fraction of the work
  std::string out_dir = ".bench_build/out";
};

/// Workers of the parallel strategies' pool: 3, because the calling thread
/// helps run the tasks, so a parallel join keeps 4 threads busy. Fixed, so
/// the workload is the same on every machine (nproc is recorded).
inline constexpr int kWorkers = 3;

/// join_rect (Shape::kRect) and join_poly (Shape::kPolygon).
void RunJoinWorkload(const Args& args, Shape shape, Report* report,
                     Tracer* tracer);

/// svc_steady and svc_overload.
void RunServiceWorkload(const Args& args, bool overload, Report* report,
                        Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
