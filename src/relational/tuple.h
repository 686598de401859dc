#ifndef SPATIALJOIN_RELATIONAL_TUPLE_H_
#define SPATIALJOIN_RELATIONAL_TUPLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace spatialjoin {

/// Identifier of a tuple within one relation: dense, 0-based, stable.
/// Join indices (paper §2.1 [Vald87]) store pairs of these.
using TupleId = int64_t;

/// Sentinel for "no tuple".
inline constexpr TupleId kInvalidTupleId = -1;

/// One row: an ordered list of values. Tuples are validated against a
/// Schema at insertion time, not on construction.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& value(size_t i) const;
  const std::vector<Value>& values() const { return values_; }

  /// True iff arity and value types match `schema` (NULLs match any type).
  bool Conforms(const Schema& schema) const;

  /// Binary encoding: value list, optionally padded with trailing zero
  /// bytes to `pad_to` (models the paper's fixed tuple size v).
  std::string Serialize(size_t pad_to = 0) const;

  /// Inverse of Serialize; `num_columns` values are read, padding ignored.
  static Tuple Deserialize(std::string_view bytes, size_t num_columns);

  /// Column `column` of the Serialize encoding `bytes`, decoded alone: the
  /// columns before it are skipped, the ones after it not read.
  static Value DeserializeColumn(std::string_view bytes, size_t column);

  /// Concatenation of two tuples — the result of a join match (JOIN3:
  /// "join the corresponding tuples and add the resulting tuple").
  static Tuple Concat(const Tuple& a, const Tuple& b);

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }

  /// Renders "(v1, v2, …)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_RELATIONAL_TUPLE_H_
