#include "relational/tuple.h"

#include <sstream>

#include "common/analysis_annotations.h"
#include "common/check.h"

namespace spatialjoin {

const Value& Tuple::value(size_t i) const {
  SJ_CHECK_LT(i, values_.size());
  return values_[i];
}

bool Tuple::Conforms(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    if (values_[i].type() != schema.column(i).type) return false;
  }
  return true;
}

std::string Tuple::Serialize(size_t pad_to) const {
  std::string out;
  for (const Value& v : values_) v.SerializeTo(&out);
  SJ_CHECK_MSG(pad_to == 0 || out.size() <= pad_to,
               "tuple encodes to " << out.size()
                                   << " bytes, beyond pad_to=" << pad_to);
  if (out.size() < pad_to) out.resize(pad_to, '\0');
  return out;
}

Tuple Tuple::Deserialize(std::string_view bytes, size_t num_columns) {
  std::vector<Value> values;
  values.reserve(num_columns);
  size_t pos = 0;
  for (size_t i = 0; i < num_columns; ++i) {
    SJ_BOUNDED_WORK;  // one tuple's columns (schema-bounded)
    values.push_back(Value::Deserialize(bytes, &pos));
  }
  return Tuple(std::move(values));
}

Value Tuple::DeserializeColumn(std::string_view bytes, size_t column) {
  size_t pos = 0;
  for (size_t i = 0; i < column; ++i) {
    SJ_BOUNDED_WORK;  // the columns before `column` (schema-bounded)
    Value::Skip(bytes, &pos);
  }
  return Value::Deserialize(bytes, &pos);
}

Tuple Tuple::Concat(const Tuple& a, const Tuple& b) {
  std::vector<Value> values = a.values_;
  values.insert(values.end(), b.values_.begin(), b.values_.end());
  return Tuple(std::move(values));
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) os << ", ";
    os << values_[i].ToString();
  }
  os << ")";
  return os.str();
}

}  // namespace spatialjoin
