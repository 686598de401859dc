#ifndef SPATIALJOIN_GEOMETRY_POLYGON_H_
#define SPATIALJOIN_GEOMETRY_POLYGON_H_

#include <string>
#include <vector>

#include "geometry/point.h"
#include "geometry/rectangle.h"
#include "geometry/ring.h"

namespace spatialjoin {

/// A simple polygon given by its boundary ring (no self-intersections; the
/// closing edge last→first is implicit). Polygons model the paper's
/// application objects (lake areas, countries and regions in the
/// cartographic hierarchy of Fig. 3).
class Polygon {
 public:
  Polygon() = default;

  /// Builds a polygon from at least three vertices.
  explicit Polygon(std::vector<Point> ring);

  /// Convenience constructor for an axis-aligned rectangle as a polygon.
  static Polygon FromRectangle(const Rectangle& r);

  /// Regular n-gon approximation of a circle, counter-clockwise.
  static Polygon RegularNGon(const Point& center, double radius,
                             int num_vertices);

  const std::vector<Point>& ring() const { return ring_; }
  size_t size() const { return ring_.size(); }
  bool is_empty() const { return ring_.empty(); }

  /// Signed area (positive for counter-clockwise rings).
  double SignedArea() const;

  /// Absolute area.
  double Area() const;

  /// Center of gravity of the enclosed region — the paper's default
  /// "centerpoint" of a spatial object (§3.1). Falls back to the vertex
  /// average for degenerate (zero-area) rings.
  Point Centroid() const;

  /// Minimum bounding rectangle.
  const Rectangle& BoundingBox() const { return bbox_; }

  /// The boundary ring as a borrowed view (valid while this polygon
  /// lives and is not modified).
  RingView ring_view() const {
    return RingView{ring_.data(), ring_.size(), bbox_};
  }

  /// Point-in-polygon by ray casting; boundary points count as inside.
  bool ContainsPoint(const Point& p) const;

  /// True iff the boundaries of the two polygons cross or one polygon lies
  /// inside the other (shared-region test on simple polygons).
  bool Intersects(const Polygon& o) const;

  /// True iff every point of `o` lies inside this polygon.
  bool ContainsPolygon(const Polygon& o) const;

  /// Minimum distance from `p` to the boundary, 0 if `p` is inside.
  double DistanceToPoint(const Point& p) const;

  /// Minimum distance between the two polygons (0 when they intersect).
  double DistanceToPolygon(const Polygon& o) const;

  /// True iff the polygon ring is counter-clockwise.
  bool IsCounterClockwise() const { return SignedArea() > 0.0; }

  /// Reverses the ring orientation in place.
  void Reverse();

  /// Renders the vertex list.
  std::string ToString() const;

 private:
  std::vector<Point> ring_;
  Rectangle bbox_;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_GEOMETRY_POLYGON_H_
