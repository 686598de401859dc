#ifndef SPATIALJOIN_GEOMETRY_RECTANGLE_H_
#define SPATIALJOIN_GEOMETRY_RECTANGLE_H_

#include <string>

#include "geometry/point.h"

namespace spatialjoin {

/// An axis-aligned rectangle, used both as a first-class spatial object and
/// as the minimum bounding rectangle (MBR) of other objects. MBRs are the
/// abstract objects stored in R-tree nodes (paper Fig. 2): each interior
/// node's rectangle completely contains the rectangles of its children,
/// which is exactly the generalization-tree containment property (§3.1).
class Rectangle {
 public:
  /// Constructs the empty rectangle (contains nothing, overlaps nothing).
  Rectangle();

  /// Constructs from corner coordinates. Requires min <= max per axis.
  Rectangle(double min_x, double min_y, double max_x, double max_y);

  /// Constructs from two corner points.
  Rectangle(const Point& min_corner, const Point& max_corner);

  /// Degenerate rectangle covering exactly one point.
  static Rectangle FromPoint(const Point& p);

  /// The empty rectangle: identity for Extend/Union, absorbing for overlap.
  static Rectangle Empty();

  bool is_empty() const { return empty_; }
  double min_x() const { return min_.x; }
  double min_y() const { return min_.y; }
  double max_x() const { return max_.x; }
  double max_y() const { return max_.y; }
  const Point& min_corner() const { return min_; }
  const Point& max_corner() const { return max_; }

  double width() const { return empty_ ? 0.0 : max_.x - min_.x; }
  double height() const { return empty_ ? 0.0 : max_.y - min_.y; }
  double Area() const { return width() * height(); }
  /// Half-perimeter (the R*-style "margin"), used by split heuristics.
  double Margin() const { return width() + height(); }
  /// Geometric center; the paper's "centerpoint" for rectangles. Inline:
  /// STR bulk loading sorts by it.
  Point Center() const {
    return Point((min_.x + max_.x) / 2.0, (min_.y + max_.y) / 2.0);
  }

  /// True iff this rectangle and `o` share at least one point (closed
  /// rectangles: touching edges count as overlap, as in Guttman's R-tree).
  bool Overlaps(const Rectangle& o) const;

  /// True iff `o` lies entirely inside (or on the boundary of) this.
  bool Contains(const Rectangle& o) const;

  /// True iff the point lies inside or on the boundary.
  bool ContainsPoint(const Point& p) const;

  /// Smallest rectangle containing both this and `o`.
  Rectangle Union(const Rectangle& o) const;

  /// The common region of this and `o`; empty when they do not overlap.
  Rectangle Intersection(const Rectangle& o) const;

  /// Grows the rectangle to include `o` in place.
  void Extend(const Rectangle& o);

  /// Grows the rectangle to include point `p` in place.
  void ExtendPoint(const Point& p);

  /// Rectangle expanded by `d` on all sides (the paper's distance buffer
  /// for MBRs). Requires d >= 0 or |d| smaller than half the extent.
  Rectangle Expanded(double d) const;

  /// The increase in area caused by extending this to include `o`
  /// (Guttman's insertion heuristic).
  double Enlargement(const Rectangle& o) const;

  /// Minimum Euclidean distance between this and `o` (0 when overlapping).
  double MinDistance(const Rectangle& o) const;

  /// Minimum Euclidean distance to a point (0 when inside).
  double MinDistanceToPoint(const Point& p) const;

  /// Maximum Euclidean distance between any two points of this and `o`.
  double MaxDistance(const Rectangle& o) const;

  friend bool operator==(const Rectangle& a, const Rectangle& b);
  friend bool operator!=(const Rectangle& a, const Rectangle& b) {
    return !(a == b);
  }

  /// Renders "[min_x,min_y — max_x,max_y]" or "[empty]".
  std::string ToString() const;

 private:
  Point min_;
  Point max_;
  bool empty_;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_GEOMETRY_RECTANGLE_H_
