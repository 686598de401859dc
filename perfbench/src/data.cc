#include "data.h"

#include "common.h"
#include "common/random.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "rtree/rtree_gentree.h"
#include "workload/rect_generator.h"

namespace perfbench {

using namespace spatialjoin;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

namespace {

// Closes a set-up phase begun at *start_ns: records its span, returns its
// duration in ms, and starts the next phase.
double EndPhase(Tracer* tracer, const char* name, int64_t op,
                int64_t* start_ns) {
  const int64_t end_ns = NowNs();
  tracer->Record(name, op, *start_ns, end_ns);
  const double ms = static_cast<double>(end_ns - *start_ns) / 1e6;
  *start_ns = NowNs();
  return ms;
}

std::vector<Value> Generate(const DataSpec& spec, uint64_t seed) {
  RectGenerator gen(Rectangle(0, 0, spec.world, spec.world), seed);
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(spec.tuples));
  for (int64_t i = 0; i < spec.tuples; ++i) {
    if (spec.shape == Shape::kRect) {
      out.emplace_back(gen.NextRect(spec.min_size, spec.max_size));
    } else {
      out.emplace_back(
          gen.NextPolygon(spec.min_size, spec.max_size, spec.vertices));
    }
  }
  return out;
}

Schema SchemaFor(Shape shape) {
  return Schema({{"id", ValueType::kInt64},
                 {"geom", shape == Shape::kRect ? ValueType::kRectangle
                                                : ValueType::kPolygon}});
}

}  // namespace

exec::FrozenTree Freeze(const RTree& rtree, const Relation& relation) {
  RTreeGenTree adapter(&rtree, &relation, 1);
  return exec::FrozenTree::Materialize(adapter);
}

Dataset BuildDataset(const DataSpec& spec, uint64_t seed, Tracer* tracer,
                     int64_t op) {
  Dataset d;
  int64_t t = NowNs();
  const std::vector<Value> r_geoms = Generate(spec, SubSeed(seed, 1));
  const std::vector<Value> s_geoms = Generate(spec, SubSeed(seed, 2));
  d.times.gen_ms = EndPhase(tracer, "workload.generate", op, &t);

  d.disk = std::make_unique<DiskManager>(spec.page_bytes);
  d.pool = std::make_unique<BufferPool>(d.disk.get(), spec.pool_frames);
  const Schema schema = SchemaFor(spec.shape);
  d.r = std::make_unique<Relation>("r", schema, d.pool.get());
  d.s = std::make_unique<Relation>("s", schema, d.pool.get());
  std::vector<TupleId> r_tids;
  std::vector<TupleId> s_tids;
  r_tids.reserve(r_geoms.size());
  s_tids.reserve(s_geoms.size());
  for (size_t i = 0; i < r_geoms.size(); ++i) {
    const Value id(static_cast<int64_t>(i));
    r_tids.push_back(d.r->Insert(Tuple({id, r_geoms[i]})));
    s_tids.push_back(d.s->Insert(Tuple({id, s_geoms[i]})));
  }
  d.times.load_ms = EndPhase(tracer, "storage.load", op, &t);

  // STR bulk loading packs a tree whose shape hardly depends on the seed,
  // so join times vary with the seed far less than over inserted trees.
  auto build = [&](const std::vector<Value>& geoms,
                   const std::vector<TupleId>& tids) {
    std::vector<std::pair<Rectangle, TupleId>> entries;
    entries.reserve(geoms.size());
    for (size_t i = 0; i < geoms.size(); ++i) {
      entries.emplace_back(geoms[i].Mbr(), tids[i]);
    }
    auto tree = std::make_unique<RTree>(d.pool.get(), RTreeSplit::kQuadratic,
                                        spec.rtree_fanout);
    tree->BulkLoadStr(std::move(entries));
    return tree;
  };
  d.r_rtree = build(r_geoms, r_tids);
  d.s_rtree = build(s_geoms, s_tids);
  d.times.build_ms = EndPhase(tracer, "rtree.build", op, &t);

  d.r_frozen = std::make_unique<exec::FrozenTree>(Freeze(*d.r_rtree, *d.r));
  d.s_frozen = std::make_unique<exec::FrozenTree>(Freeze(*d.s_rtree, *d.s));
  d.times.materialize_ms = EndPhase(tracer, "exec.materialize", op, &t);
  return d;
}

std::vector<Rectangle> MakeWindows(uint64_t seed, int count, double world,
                                   double min_side, double max_side) {
  Rng rng(seed);
  std::vector<Rectangle> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double w = rng.NextDouble(min_side, max_side);
    const double h = rng.NextDouble(min_side, max_side);
    const double x = rng.NextDouble(0.0, world - w);
    const double y = rng.NextDouble(0.0, world - h);
    out.emplace_back(x, y, x + w, y + h);
  }
  return out;
}

}  // namespace perfbench
