#ifndef SPATIALJOIN_RELATIONAL_VALUE_H_
#define SPATIALJOIN_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/polyline.h"
#include "geometry/rectangle.h"

namespace spatialjoin {

/// Column types of the extended relational model the paper assumes
/// (§1: "a relational data model that is extended by spatial data types
/// and operators", as in POSTGRES / DASDBS). Scalar types serve ordinary
/// columns (hid, hprice, name); spatial types serve join columns.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kPoint = 4,
  kRectangle = 5,
  kPolygon = 6,
  kPolyline = 7,
};

/// Human-readable type name ("INT64", "POLYGON", …).
const char* ValueTypeName(ValueType type);

/// A dynamically typed column value. Passive value type with by-value
/// copy semantics; geometry payloads are held inline in the variant.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}
  explicit Value(const Point& v) : data_(v) {}
  explicit Value(const Rectangle& v) : data_(v) {}
  explicit Value(Polygon v) : data_(std::move(v)) {}
  explicit Value(Polyline v) : data_(std::move(v)) {}

  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong accessor is a checked error.
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const Point& AsPoint() const;
  const Rectangle& AsRectangle() const;
  const Polygon& AsPolygon() const;
  const Polyline& AsPolyline() const;

  /// The rectangle or polygon held, or nullptr for any other type:
  /// unchecked lookups for callers that branch on the type anyway.
  const Rectangle* TryRectangle() const {
    return std::get_if<Rectangle>(&data_);
  }
  const Polygon* TryPolygon() const { return std::get_if<Polygon>(&data_); }

  /// MBR of a spatial value (point → degenerate rectangle, polygon → its
  /// bounding box). Checked error for scalar values.
  Rectangle Mbr() const;

  /// Appends a self-describing binary encoding to `out`.
  void SerializeTo(std::string* out) const;

  /// Parses one value from `in` starting at `*pos`; advances `*pos`.
  static Value Deserialize(std::string_view in, size_t* pos);

  /// Advances `*pos` past the value encoded at `in[*pos]` without
  /// decoding it (checked like Deserialize).
  static void Skip(std::string_view in, size_t* pos);

  /// Structural equality (exact, including geometry coordinates).
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Renders the value for diagnostics.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, Point, Rectangle,
               Polygon, Polyline>
      data_;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_RELATIONAL_VALUE_H_
