#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "geometry/distance.h"

namespace spatialjoin {

Polygon::Polygon(std::vector<Point> ring) : ring_(std::move(ring)) {
  SJ_CHECK_MSG(ring_.size() >= 3, "polygon needs at least 3 vertices, got "
                                      << ring_.size());
  for (const Point& p : ring_) {
    SJ_BOUNDED_WORK;  // one pass over this polygon's ring
    bbox_.ExtendPoint(p);
  }
}

Polygon Polygon::FromRectangle(const Rectangle& r) {
  Point corners[4];
  const RingView ring = RectangleRing(r, corners);
  return Polygon(std::vector<Point>(ring.points, ring.points + ring.size));
}

Polygon Polygon::RegularNGon(const Point& center, double radius,
                             int num_vertices) {
  SJ_CHECK_GE(num_vertices, 3);
  SJ_CHECK_GT(radius, 0.0);
  std::vector<Point> ring;
  ring.reserve(static_cast<size_t>(num_vertices));
  for (int i = 0; i < num_vertices; ++i) {
    double angle = 2.0 * M_PI * static_cast<double>(i) /
                   static_cast<double>(num_vertices);
    ring.emplace_back(center.x + radius * std::cos(angle),
                      center.y + radius * std::sin(angle));
  }
  return Polygon(std::move(ring));
}

double Polygon::SignedArea() const {
  double twice_area = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % ring_.size()];
    twice_area += a.Cross(b);
  }
  return twice_area / 2.0;
}

double Polygon::Area() const { return std::fabs(SignedArea()); }

Point Polygon::Centroid() const {
  SJ_CHECK(!ring_.empty());
  double twice_area = 0.0;
  double cx = 0.0;
  double cy = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % ring_.size()];
    double cross = a.Cross(b);
    twice_area += cross;
    cx += (a.x + b.x) * cross;
    cy += (a.y + b.y) * cross;
  }
  if (std::fabs(twice_area) < 1e-12) {
    // Degenerate ring: fall back to the vertex average.
    Point sum(0, 0);
    for (const Point& p : ring_) sum = sum + p;
    return sum * (1.0 / static_cast<double>(ring_.size()));
  }
  double scale = 1.0 / (3.0 * twice_area);
  return Point(cx * scale, cy * scale);
}

bool Polygon::ContainsPoint(const Point& p) const {
  return RingContainsPoint(ring_view(), p);
}

bool Polygon::Intersects(const Polygon& o) const {
  return RingsIntersect(ring_view(), o.ring_view());
}

bool Polygon::ContainsPolygon(const Polygon& o) const {
  return RingContainsRing(ring_view(), o.ring_view());
}

double Polygon::DistanceToPoint(const Point& p) const {
  SJ_CHECK(!ring_.empty());
  if (ContainsPoint(p)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % ring_.size()];
    best = std::min(best, DistancePointSegment(p, a, b));
  }
  return best;
}

double Polygon::DistanceToPolygon(const Polygon& o) const {
  return RingDistance(ring_view(), o.ring_view());
}

void Polygon::Reverse() { std::reverse(ring_.begin(), ring_.end()); }

std::string Polygon::ToString() const {
  std::ostringstream os;
  os << "Polygon[";
  for (size_t i = 0; i < ring_.size(); ++i) {
    if (i > 0) os << ", ";
    os << spatialjoin::ToString(ring_[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace spatialjoin
