#include "geometry/rectangle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace spatialjoin {

Rectangle::Rectangle() : min_(0, 0), max_(0, 0), empty_(true) {}

Rectangle::Rectangle(double min_x, double min_y, double max_x, double max_y)
    : min_(min_x, min_y), max_(max_x, max_y), empty_(false) {
  SJ_CHECK_MSG(min_x <= max_x && min_y <= max_y,
               "invalid rectangle corners: (" << min_x << "," << min_y
                                              << ")-(" << max_x << "," << max_y
                                              << ")");
}

Rectangle::Rectangle(const Point& min_corner, const Point& max_corner)
    : Rectangle(min_corner.x, min_corner.y, max_corner.x, max_corner.y) {}

Rectangle Rectangle::FromPoint(const Point& p) {
  return Rectangle(p.x, p.y, p.x, p.y);
}

Rectangle Rectangle::Empty() { return Rectangle(); }

bool Rectangle::Overlaps(const Rectangle& o) const {
  if (empty_ || o.empty_) return false;
  return min_.x <= o.max_.x && o.min_.x <= max_.x && min_.y <= o.max_.y &&
         o.min_.y <= max_.y;
}

bool Rectangle::Contains(const Rectangle& o) const {
  if (o.empty_) return true;  // the empty set is contained everywhere
  if (empty_) return false;
  return min_.x <= o.min_.x && o.max_.x <= max_.x && min_.y <= o.min_.y &&
         o.max_.y <= max_.y;
}

bool Rectangle::ContainsPoint(const Point& p) const {
  if (empty_) return false;
  return min_.x <= p.x && p.x <= max_.x && min_.y <= p.y && p.y <= max_.y;
}

Rectangle Rectangle::Union(const Rectangle& o) const {
  Rectangle result = *this;
  result.Extend(o);
  return result;
}

Rectangle Rectangle::Intersection(const Rectangle& o) const {
  if (!Overlaps(o)) return Rectangle::Empty();
  return Rectangle(std::max(min_.x, o.min_.x), std::max(min_.y, o.min_.y),
                   std::min(max_.x, o.max_.x), std::min(max_.y, o.max_.y));
}

void Rectangle::Extend(const Rectangle& o) {
  if (o.empty_) return;
  if (empty_) {
    *this = o;
    return;
  }
  min_.x = std::min(min_.x, o.min_.x);
  min_.y = std::min(min_.y, o.min_.y);
  max_.x = std::max(max_.x, o.max_.x);
  max_.y = std::max(max_.y, o.max_.y);
}

void Rectangle::ExtendPoint(const Point& p) {
  // In place, not through FromPoint: polygon and polyline constructors
  // call this once per vertex. NaN is rejected as FromPoint rejects it.
  SJ_CHECK_MSG(!std::isnan(p.x) && !std::isnan(p.y),
               "invalid point (" << p.x << "," << p.y << ")");
  if (empty_) {
    min_ = p;
    max_ = p;
    empty_ = false;
    return;
  }
  min_.x = std::min(min_.x, p.x);
  min_.y = std::min(min_.y, p.y);
  max_.x = std::max(max_.x, p.x);
  max_.y = std::max(max_.y, p.y);
}

Rectangle Rectangle::Expanded(double d) const {
  if (empty_) return *this;
  SJ_CHECK_MSG(2.0 * d + width() >= 0 && 2.0 * d + height() >= 0,
               "Expanded(" << d << ") would invert the rectangle");
  return Rectangle(min_.x - d, min_.y - d, max_.x + d, max_.y + d);
}

double Rectangle::Enlargement(const Rectangle& o) const {
  return Union(o).Area() - Area();
}

double Rectangle::MinDistance(const Rectangle& o) const {
  if (empty_ || o.empty_) return std::numeric_limits<double>::infinity();
  double dx = std::max({0.0, o.min_.x - max_.x, min_.x - o.max_.x});
  double dy = std::max({0.0, o.min_.y - max_.y, min_.y - o.max_.y});
  return std::sqrt(dx * dx + dy * dy);
}

double Rectangle::MinDistanceToPoint(const Point& p) const {
  return MinDistance(Rectangle::FromPoint(p));
}

double Rectangle::MaxDistance(const Rectangle& o) const {
  if (empty_ || o.empty_) return 0.0;
  double dx = std::max(max_.x, o.max_.x) - std::min(min_.x, o.min_.x);
  double dy = std::max(max_.y, o.max_.y) - std::min(min_.y, o.min_.y);
  return std::sqrt(dx * dx + dy * dy);
}

bool operator==(const Rectangle& a, const Rectangle& b) {
  if (a.empty_ && b.empty_) return true;
  if (a.empty_ != b.empty_) return false;
  return a.min_ == b.min_ && a.max_ == b.max_;
}

std::string Rectangle::ToString() const {
  if (empty_) return "[empty]";
  std::ostringstream os;
  os << "[" << min_.x << "," << min_.y << " — " << max_.x << "," << max_.y
     << "]";
  return os.str();
}

}  // namespace spatialjoin
