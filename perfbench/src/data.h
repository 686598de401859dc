// Seeded inputs of the benchmark: a pair of relations holding rectangles
// or polygons, each with an STR-packed R-tree and a FrozenTree snapshot,
// all paged through one BufferPool.
#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "exec/frozen_tree.h"
#include "geometry/rectangle.h"
#include "relational/relation.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace perfbench {

enum class Shape { kRect, kPolygon };

struct DataSpec {
  Shape shape = Shape::kRect;
  int64_t tuples = 0;       // per side
  double world = 0.0;       // side of the square world
  double min_size = 0.0;    // rectangle extent, or polygon radius
  double max_size = 0.0;
  int vertices = 16;        // polygons only
  int rtree_fanout = 0;     // 0 derives the fan-out from the page size
  size_t page_bytes = 4096;
  int64_t pool_frames = 0;
};

/// Set-up phases, in ms, as the traced run reports them per layer.
struct SetupTimes {
  double gen_ms = 0.0;          // workload: draw the geometries
  double load_ms = 0.0;         // storage: insert the tuples
  double build_ms = 0.0;        // rtree: STR bulk load
  double materialize_ms = 0.0;  // exec: FrozenTree::Materialize
};

/// Members are declared in dependency order, so destruction tears the
/// trees down before the pool and the pool before its disk. Assignment
/// would replace them in declaration order instead — disk first — so it
/// is deleted; hold a Dataset in a unique_ptr to rebuild it.
struct Dataset {
  Dataset() = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = delete;

  std::unique_ptr<spatialjoin::DiskManager> disk;
  std::unique_ptr<spatialjoin::BufferPool> pool;
  std::unique_ptr<spatialjoin::Relation> r;
  std::unique_ptr<spatialjoin::Relation> s;
  std::unique_ptr<spatialjoin::RTree> r_rtree;
  std::unique_ptr<spatialjoin::RTree> s_rtree;
  std::unique_ptr<spatialjoin::exec::FrozenTree> r_frozen;
  std::unique_ptr<spatialjoin::exec::FrozenTree> s_frozen;
  SetupTimes times;

  int64_t relation_pages() const { return r->num_pages() + s->num_pages(); }
  int64_t disk_pages() const { return disk->num_pages(); }
};

/// Generates both sides from `seed` and builds everything above, with one
/// span per phase under operation `op`. The BufferPool's hit/miss
/// counters cover exactly this build afterwards.
Dataset BuildDataset(const DataSpec& spec, uint64_t seed, Tracer* tracer,
                     int64_t op);

/// A fresh FrozenTree of `rtree` over `relation` (column 1).
spatialjoin::exec::FrozenTree Freeze(const spatialjoin::RTree& rtree,
                                     const spatialjoin::Relation& relation);

/// `count` seeded query windows inside a square world of side `world`,
/// each with sides in [min_side, max_side].
std::vector<spatialjoin::Rectangle> MakeWindows(uint64_t seed, int count,
                                                double world, double min_side,
                                                double max_side);

/// Derives independent stream seeds from one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
