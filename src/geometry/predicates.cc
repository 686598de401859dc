#include "geometry/predicates.h"

namespace spatialjoin {

bool NorthwestOf(const Point& a, const Point& b) {
  return a.x < b.x && a.y > b.y;
}

bool PointInNwQuadrant(const Point& p, double quad_x, double quad_y) {
  return p.x <= quad_x && p.y >= quad_y;
}

}  // namespace spatialjoin
