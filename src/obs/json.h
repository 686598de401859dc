#ifndef SPATIALJOIN_OBS_JSON_H_
#define SPATIALJOIN_OBS_JSON_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spatialjoin {

/// Minimal streaming JSON writer for the observability layer's exports
/// (`*.metrics.json` artifacts, trace dumps, explain-analyze reports).
/// No external dependency: the engine must stay self-contained (DESIGN.md
/// conventions). ParseJson below reads these documents back.
///
/// Usage:
///   JsonWriter w(os);
///   w.BeginObject();
///   w.Key("count"); w.Int(3);
///   w.Key("levels"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///
/// The writer inserts commas and indentation; callers are responsible for
/// pairing Begin/End calls and for writing a Key before each object
/// member. Non-finite doubles are emitted as `null` (JSON has no
/// NaN/Infinity literal), keeping every emitted document parseable.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 2);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Convenience: Key + value in one call.
  void KV(std::string_view key, std::string_view value);
  void KV(std::string_view key, const char* value);
  void KV(std::string_view key, int64_t value);
  void KV(std::string_view key, double value);
  void KV(std::string_view key, bool value);

  /// Appends `raw` verbatim (for splicing a pre-serialized sub-document).
  void Raw(std::string_view raw);

 private:
  enum class Scope { kObject, kArray };

  // Writes the separating comma/newline/indent due before a new value or
  // key at the current nesting depth.
  void Separate();
  void Indent();
  void WriteEscaped(std::string_view s);

  std::ostream& os_;
  int indent_;
  std::vector<Scope> stack_;
  // True when something was already emitted at the current depth (a comma
  // is due before the next element).
  std::vector<bool> has_element_;
  // True immediately after Key(): the next value continues the member
  // instead of starting a new element.
  bool after_key_ = false;
};

/// Escapes `s` for inclusion in a JSON string literal (without the
/// surrounding quotes).
std::string JsonEscape(std::string_view s);

// --- Reader ------------------------------------------------------------
// Built as its own target (sj_json) on the standard library alone, so
// tools/sj_inspect can read a flight dump without linking the code that
// may have crashed.

/// Deepest nesting of arrays and objects ParseJson accepts.
inline constexpr int kJsonMaxDepth = 64;

/// One node of a document read by ParseJson. Objects keep their members
/// in document order and look keys up linearly, which suits the small
/// documents the engine emits.
class JsonValue {
 public:
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads: false / empty when the node has another type.
  bool boolean() const { return boolean_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }

  /// The number as an int64: exact for an integer literal that fits,
  /// else the double truncated toward zero. `fallback` for a non-number
  /// or a value outside the int64 range.
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }

  /// Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* Member(std::string_view key) const;

  /// Typed reads at a dotted member path ("scheduler.completed"): a
  /// missing step or a leaf of another type reads as `fallback`.
  int64_t IntAt(std::string_view path, int64_t fallback = 0) const;
  double DoubleAt(std::string_view path, double fallback = 0.0) const;
  std::string StringAt(std::string_view path,
                       std::string_view fallback = "") const;

 private:
  friend class JsonReader;  // fills nodes in place while parsing

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  const JsonValue* MemberAtPath(std::string_view path) const;

  Type type_ = Type::kNull;
  bool boolean_ = false;
  bool exact_int_ = false;  // integer_ holds the literal exactly
  int64_t integer_ = 0;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// ParseJson's result: the document, or the first error and its offset.
struct JsonDocument {
  JsonValue root;           ///< null when parsing failed
  std::string error;        ///< "<what> at offset <n>"; empty on success
  size_t error_offset = 0;  ///< byte offset of the first offending byte
  bool ok() const { return error.empty(); }
};

/// Parses exactly one JSON document with optional surrounding
/// whitespace. Strict: no trailing commas or trailing content, no
/// unescaped control characters, only JSON's escapes (`\u00XX` decodes
/// to that byte below 0x80, wider code points to '?'), numbers as
/// `-?digits(.digits)?([eE][+-]?digits)?`, at most kJsonMaxDepth levels.
JsonDocument ParseJson(std::string_view text);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_JSON_H_
