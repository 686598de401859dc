// The paper's query (1): "Find all Californian cities to the Northwest
// of Lake Tahoe" — the degenerate spatial join (a spatial selection) with
// a direction operator, answered three ways: exhaustive scan, Algorithm
// SELECT over an R-tree (with the Fig.-5 NW-quadrant Θ), and a native
// window probe using the operator's probe window.
//
//   build/examples/example_northwest_cities
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/nested_loop.h"
#include "core/select.h"
#include "core/theta_ops.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace spatialjoin;

int main() {
  DiskManager disk(2000);
  BufferPool pool(&disk, 256);

  // A stylized California: x grows east, y grows north (km-ish units).
  Schema schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"location", ValueType::kPoint}});
  Relation cities("city", schema, &pool);
  struct City {
    const char* name;
    Point location;
  };
  std::vector<City> data = {
      {"Sacramento", {80, 270}},    {"San Francisco", {10, 230}},
      {"Oakland", {18, 228}},       {"San Jose", {30, 200}},
      {"Fresno", {140, 140}},       {"Los Angeles", {220, 30}},
      {"San Diego", {260, 0}},      {"Redding", {60, 380}},
      {"Eureka", {0, 360}},         {"Chico", {75, 330}},
      {"Reno-adjacent Truckee", {170, 300}},
      {"Bakersfield", {190, 80}},
  };
  RTree rtree(&pool, RTreeSplit::kQuadratic, 8);
  for (size_t i = 0; i < data.size(); ++i) {
    TupleId tid = cities.Insert(Tuple({Value(static_cast<int64_t>(i)),
                                       Value(data[i].name),
                                       Value(data[i].location)}));
    rtree.Insert(Rectangle::FromPoint(data[i].location), tid);
  }
  RTreeGenTree city_tree(&rtree, &cities, 2);

  // Lake Tahoe as a small rectangle in the Sierra.
  Value lake_tahoe(Rectangle(180, 270, 200, 290));
  NorthwestOfOp northwest;
  Rectangle world(0, 0, 300, 400);

  std::cout << "query (1): cities to the Northwest of Lake Tahoe "
            << lake_tahoe.ToString() << "\n\n";

  // Exhaustive scan (strategy I) — and the readable answer. The operator
  // is asymmetric, θ(city, lake), so the city is operand 1.
  std::vector<TupleId> answer;
  cities.Scan([&](TupleId tid, const Tuple& t) {
    if (northwest.Theta(t.value(2), lake_tahoe)) answer.push_back(tid);
  });
  std::cout << "answer (" << answer.size() << " cities):\n";
  for (TupleId tid : answer) {
    std::cout << "  " << cities.ReadValue(tid, 1).AsString() << "\n";
  }

  // Algorithm SELECT with the Fig.-5 Θ: probe the R-tree with the lake
  // as selector. θ must see (city, lake), so swap via a tiny adapter.
  class CityNwOfLake : public ThetaOperator {
   public:
    std::string name() const override { return "nw_swapped"; }
    bool Theta(const Value& lake, const Value& city) const override {
      return inner_.Theta(city, lake);
    }
    bool ThetaUpper(const Rectangle& lake,
                    const Rectangle& city) const override {
      return inner_.ThetaUpper(city, lake);
    }

   private:
    NorthwestOfOp inner_;
  };
  CityNwOfLake probe_op;
  SelectResult tree_result = SpatialSelect(lake_tahoe, city_tree, probe_op);
  std::printf("\nAlgorithm SELECT over the R-tree: %zu matches, %lld theta"
              " + %lld Theta tests (vs %lld exhaustive)\n",
              tree_result.matching_tuples.size(),
              static_cast<long long>(tree_result.theta_tests),
              static_cast<long long>(tree_result.theta_upper_tests),
              static_cast<long long>(cities.num_tuples()));

  // Native window probe from the operator's Fig.-5 quadrant.
  auto window = northwest.ProbeWindow(lake_tahoe.Mbr(), world);
  std::cout << "probe window (NW quadrant clipped to the world): "
            << window->ToString() << "\n";
  std::vector<TupleId> window_hits = rtree.SearchTids(*window);
  int verified = 0;
  for (TupleId tid : window_hits) {
    if (northwest.Theta(cities.ReadValue(tid, 2), lake_tahoe)) ++verified;
  }
  std::printf("window probe: %zu candidates, %d verified matches\n",
              window_hits.size(), verified);
  return 0;
}
