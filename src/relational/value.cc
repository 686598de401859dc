#include "relational/value.h"

#include <cstring>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace spatialjoin {

namespace {

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(reinterpret_cast<const char*>(data), size);
}

template <typename T>
void AppendPod(std::string* out, const T& v) {
  AppendRaw(out, &v, sizeof(T));
}

template <typename T>
T ReadPod(std::string_view in, size_t* pos) {
  SJ_CHECK_LE(*pos + sizeof(T), in.size());
  T v;
  std::memcpy(&v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}

// A point is encoded as its two coordinates.
constexpr size_t kPointBytes = 2 * sizeof(double);

void AppendPoint(std::string* out, const Point& p) {
  AppendPod(out, p.x);
  AppendPod(out, p.y);
}

Point ReadPoint(std::string_view in, size_t* pos) {
  double x = ReadPod<double>(in, pos);
  double y = ReadPod<double>(in, pos);
  return Point(x, y);
}

// A vertex list (count, then the points): one bounds check and one copy,
// as the encoding is the points' own layout.
static_assert(sizeof(Point) == kPointBytes &&
              std::is_trivially_copyable_v<Point>);
std::vector<Point> ReadPoints(std::string_view in, size_t* pos) {
  const size_t bytes = ReadPod<uint32_t>(in, pos) * kPointBytes;
  SJ_CHECK_LE(*pos + bytes, in.size());
  std::vector<Point> points(bytes / kPointBytes);
  if (bytes != 0) std::memcpy(points.data(), in.data() + *pos, bytes);
  *pos += bytes;
  return points;
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kPoint:
      return "POINT";
    case ValueType::kRectangle:
      return "RECTANGLE";
    case ValueType::kPolygon:
      return "POLYGON";
    case ValueType::kPolyline:
      return "POLYLINE";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt64() const {
  SJ_CHECK_MSG(type() == ValueType::kInt64, "value is " << ToString());
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  SJ_CHECK_MSG(type() == ValueType::kDouble, "value is " << ToString());
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  SJ_CHECK_MSG(type() == ValueType::kString, "value is " << ToString());
  return std::get<std::string>(data_);
}

const Point& Value::AsPoint() const {
  SJ_CHECK_MSG(type() == ValueType::kPoint, "value is " << ToString());
  return std::get<Point>(data_);
}

const Rectangle& Value::AsRectangle() const {
  SJ_CHECK_MSG(type() == ValueType::kRectangle, "value is " << ToString());
  return std::get<Rectangle>(data_);
}

const Polygon& Value::AsPolygon() const {
  SJ_CHECK_MSG(type() == ValueType::kPolygon, "value is " << ToString());
  return std::get<Polygon>(data_);
}

const Polyline& Value::AsPolyline() const {
  SJ_CHECK_MSG(type() == ValueType::kPolyline, "value is " << ToString());
  return std::get<Polyline>(data_);
}

Rectangle Value::Mbr() const {
  switch (type()) {
    case ValueType::kPoint:
      return Rectangle::FromPoint(AsPoint());
    case ValueType::kRectangle:
      return AsRectangle();
    case ValueType::kPolygon:
      return AsPolygon().BoundingBox();
    case ValueType::kPolyline:
      return AsPolyline().BoundingBox();
    default:
      SJ_CHECK_MSG(false, "Mbr() on non-spatial value " << ToString());
  }
  return Rectangle::Empty();
}

void Value::SerializeTo(std::string* out) const {
  uint8_t tag = static_cast<uint8_t>(type());
  AppendPod(out, tag);
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      AppendPod(out, std::get<int64_t>(data_));
      break;
    case ValueType::kDouble:
      AppendPod(out, std::get<double>(data_));
      break;
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(data_);
      AppendPod(out, static_cast<uint32_t>(s.size()));
      AppendRaw(out, s.data(), s.size());
      break;
    }
    case ValueType::kPoint:
      AppendPoint(out, std::get<Point>(data_));
      break;
    case ValueType::kRectangle: {
      const Rectangle& r = std::get<Rectangle>(data_);
      SJ_CHECK_MSG(!r.is_empty(), "cannot serialize the empty rectangle");
      AppendPoint(out, r.min_corner());
      AppendPoint(out, r.max_corner());
      break;
    }
    case ValueType::kPolygon: {
      const Polygon& poly = std::get<Polygon>(data_);
      AppendPod(out, static_cast<uint32_t>(poly.size()));
      for (const Point& p : poly.ring()) AppendPoint(out, p);
      break;
    }
    case ValueType::kPolyline: {
      const Polyline& line = std::get<Polyline>(data_);
      AppendPod(out, static_cast<uint32_t>(line.size()));
      for (const Point& p : line.vertices()) AppendPoint(out, p);
      break;
    }
  }
}

Value Value::Deserialize(std::string_view in, size_t* pos) {
  uint8_t tag = ReadPod<uint8_t>(in, pos);
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value();
    case ValueType::kInt64:
      return Value(ReadPod<int64_t>(in, pos));
    case ValueType::kDouble:
      return Value(ReadPod<double>(in, pos));
    case ValueType::kString: {
      uint32_t size = ReadPod<uint32_t>(in, pos);
      SJ_CHECK_LE(*pos + size, in.size());
      std::string s(in.data() + *pos, size);
      *pos += size;
      return Value(std::move(s));
    }
    case ValueType::kPoint:
      return Value(ReadPoint(in, pos));
    case ValueType::kRectangle: {
      Point lo = ReadPoint(in, pos);
      Point hi = ReadPoint(in, pos);
      return Value(Rectangle(lo, hi));
    }
    case ValueType::kPolygon:
      return Value(Polygon(ReadPoints(in, pos)));
    case ValueType::kPolyline:
      return Value(Polyline(ReadPoints(in, pos)));
  }
  SJ_CHECK_MSG(false, "corrupt value tag " << static_cast<int>(tag));
  return Value();
}

void Value::Skip(std::string_view in, size_t* pos) {
  const uint8_t tag = ReadPod<uint8_t>(in, pos);
  size_t size = 0;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      size = sizeof(int64_t);
      break;
    case ValueType::kDouble:
      size = sizeof(double);
      break;
    case ValueType::kString:
      size = ReadPod<uint32_t>(in, pos);
      break;
    case ValueType::kPoint:
      size = kPointBytes;
      break;
    case ValueType::kRectangle:
      size = 2 * kPointBytes;
      break;
    case ValueType::kPolygon:
    case ValueType::kPolyline:
      size = ReadPod<uint32_t>(in, pos) * kPointBytes;
      break;
    default:
      SJ_CHECK_MSG(false, "corrupt value tag " << static_cast<int>(tag));
  }
  SJ_CHECK_LE(*pos + size, in.size());
  *pos += size;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kString:
      return a.AsString() == b.AsString();
    case ValueType::kPoint:
      return a.AsPoint() == b.AsPoint();
    case ValueType::kRectangle:
      return a.AsRectangle() == b.AsRectangle();
    case ValueType::kPolygon:
      return a.AsPolygon().ring() == b.AsPolygon().ring();
    case ValueType::kPolyline:
      return a.AsPolyline().vertices() == b.AsPolyline().vertices();
  }
  return false;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kNull:
      os << "NULL";
      break;
    case ValueType::kInt64:
      os << std::get<int64_t>(data_);
      break;
    case ValueType::kDouble:
      os << std::get<double>(data_);
      break;
    case ValueType::kString:
      os << '"' << std::get<std::string>(data_) << '"';
      break;
    case ValueType::kPoint:
      os << spatialjoin::ToString(std::get<Point>(data_));
      break;
    case ValueType::kRectangle:
      os << std::get<Rectangle>(data_).ToString();
      break;
    case ValueType::kPolygon:
      os << std::get<Polygon>(data_).ToString();
      break;
    case ValueType::kPolyline:
      os << std::get<Polyline>(data_).ToString();
      break;
  }
  return os.str();
}

}  // namespace spatialjoin
