#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace spatialjoin {
namespace {

Value RoundTrip(const Value& v) {
  std::string bytes;
  v.SerializeTo(&bytes);
  size_t pos = 0;
  Value back = Value::Deserialize(bytes, &pos);
  EXPECT_EQ(pos, bytes.size());
  return back;
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(Point(1, 2)).AsPoint(), Point(1, 2));
  EXPECT_EQ(Value(Rectangle(0, 0, 1, 1)).AsRectangle(),
            Rectangle(0, 0, 1, 1));
}

TEST(ValueTest, SerializeRoundTripAllTypes) {
  EXPECT_EQ(RoundTrip(Value()), Value());
  EXPECT_EQ(RoundTrip(Value(int64_t{-12345})), Value(int64_t{-12345}));
  EXPECT_EQ(RoundTrip(Value(3.14159)), Value(3.14159));
  EXPECT_EQ(RoundTrip(Value(std::string("hello world"))),
            Value(std::string("hello world")));
  EXPECT_EQ(RoundTrip(Value(Point(1.5, -2.5))), Value(Point(1.5, -2.5)));
  EXPECT_EQ(RoundTrip(Value(Rectangle(-1, -2, 3, 4))),
            Value(Rectangle(-1, -2, 3, 4)));
  Polygon poly({{0, 0}, {2, 0}, {1, 3}});
  EXPECT_EQ(RoundTrip(Value(poly)), Value(poly));
}

// Every type decodes from a view into a larger buffer, and Skip stops
// where Deserialize does.
TEST(ValueTest, StringViewRoundTripAndSkip) {
  const Value values[] = {Value(),
                          Value(int64_t{-7}),
                          Value(0.25),
                          Value(std::string("abc")),
                          Value(Point(1, 2)),
                          Value(Rectangle(-1, -2, 3, 4)),
                          Value(Polygon({{0, 0}, {2, 0}, {1, 3}})),
                          Value(Polyline({{0, 0}, {5, 2}}))};
  for (const Value& v : values) {
    std::string buffer = "prefix";
    v.SerializeTo(&buffer);
    const size_t end = buffer.size();
    buffer += "suffix";
    const std::string_view view(buffer);
    size_t pos = 6;
    EXPECT_EQ(Value::Deserialize(view, &pos), v) << v.ToString();
    EXPECT_EQ(pos, end) << v.ToString();
    size_t skipped = 6;
    Value::Skip(view, &skipped);
    EXPECT_EQ(skipped, end) << v.ToString();
  }
}

// A vertex list cut short fails its one bounds check, for Deserialize
// and Skip alike.
TEST(ValueDeathTest, TruncatedVertexListIsRejected) {
  std::string bytes;
  Value(Polygon({{0, 0}, {2, 0}, {1, 3}})).SerializeTo(&bytes);
  bytes.pop_back();
  size_t pos = 0;
  EXPECT_DEATH(Value::Deserialize(bytes, &pos), "");
  EXPECT_DEATH(Value::Skip(bytes, &pos), "");
}

TEST(ValueTest, PolylineRoundTripAndMbr) {
  Polyline river({{0, 0}, {5, 2}, {9, 1}});
  Value v(river);
  EXPECT_EQ(v.type(), ValueType::kPolyline);
  EXPECT_EQ(RoundTrip(v), v);
  EXPECT_EQ(v.Mbr(), Rectangle(0, 0, 9, 2));
  EXPECT_EQ(v.AsPolyline().vertices().size(), 3u);
}

TEST(ValueTest, MbrOfSpatialValues) {
  EXPECT_EQ(Value(Point(3, 4)).Mbr(), Rectangle(3, 4, 3, 4));
  EXPECT_EQ(Value(Rectangle(0, 0, 2, 2)).Mbr(), Rectangle(0, 0, 2, 2));
  Polygon tri({{0, 0}, {4, 0}, {2, 5}});
  EXPECT_EQ(Value(tri).Mbr(), Rectangle(0, 0, 4, 5));
}

TEST(SchemaTest, LookupAndSpatialColumns) {
  Schema schema({{"hid", ValueType::kInt64},
                 {"hprice", ValueType::kDouble},
                 {"hlocation", ValueType::kPoint}});
  EXPECT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.IndexOf("hprice"), 1);
  EXPECT_EQ(schema.IndexOf("missing"), -1);
  EXPECT_FALSE(schema.IsSpatial(0));
  EXPECT_TRUE(schema.IsSpatial(2));
  EXPECT_EQ(schema.FirstSpatialColumn(), 2);
  EXPECT_EQ(schema.ToString(), "hid INT64, hprice DOUBLE, hlocation POINT");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"x", ValueType::kInt64}});
  Schema c({{"x", ValueType::kDouble}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TupleTest, ConformanceChecksTypes) {
  Schema schema({{"id", ValueType::kInt64}, {"loc", ValueType::kPoint}});
  EXPECT_TRUE(Tuple({Value(int64_t{1}), Value(Point(0, 0))})
                  .Conforms(schema));
  EXPECT_TRUE(Tuple({Value(), Value(Point(0, 0))}).Conforms(schema));
  EXPECT_FALSE(Tuple({Value(1.0), Value(Point(0, 0))}).Conforms(schema));
  EXPECT_FALSE(Tuple({Value(int64_t{1})}).Conforms(schema));
}

TEST(TupleTest, SerializeRoundTrip) {
  Tuple t({Value(int64_t{9}), Value("label"), Value(Point(7, 8))});
  std::string bytes = t.Serialize();
  Tuple back = Tuple::Deserialize(bytes, 3);
  EXPECT_EQ(back, t);
}

TEST(TupleTest, DeserializeColumnDecodesOneColumn) {
  const Tuple t({Value("label"), Value(Polygon({{0, 0}, {2, 0}, {1, 3}})),
                 Value(int64_t{9}), Value(Point(7, 8))});
  const std::string bytes = t.Serialize(200);
  for (size_t column = 0; column < t.size(); ++column) {
    EXPECT_EQ(Tuple::DeserializeColumn(std::string_view(bytes), column),
              t.value(column))
        << column;
  }
}

TEST(TupleTest, PaddingToFixedSize) {
  Tuple t({Value(int64_t{1})});
  std::string bytes = t.Serialize(300);
  EXPECT_EQ(bytes.size(), 300u);  // the paper's v = 300 tuple size
  Tuple back = Tuple::Deserialize(bytes, 1);
  EXPECT_EQ(back, t);
}

TEST(TupleTest, ConcatJoinsValues) {
  Tuple a({Value(int64_t{1}), Value("x")});
  Tuple b({Value(2.0)});
  Tuple joined = Tuple::Concat(a, b);
  EXPECT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined.value(0).AsInt64(), 1);
  EXPECT_EQ(joined.value(2).AsDouble(), 2.0);
}

}  // namespace
}  // namespace spatialjoin
