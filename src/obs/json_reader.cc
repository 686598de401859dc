// The reader half of obs/json.h. It is the sj_json target and uses the
// standard library only: no SJ_CHECK, no sj_common.

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "obs/json.h"

namespace spatialjoin {

namespace {

// JSON's one-character escapes and the bytes they decode to.
constexpr char kEscapes[] = "\"\\/bfnrt";
constexpr char kDecoded[] = "\"\\/\b\f\n\r\t";

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

// Recursive descent over one document. Every method fails through
// FailAt, which keeps the first error only.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonDocument Parse() {
    JsonDocument doc;
    SkipSpace();
    if (ParseValue(&doc.root, 0)) {
      SkipSpace();
      if (pos_ != text_.size()) FailAt("trailing content", pos_);
    }
    if (error_ != nullptr) {
      doc.root = JsonValue();
      doc.error = std::string(error_) + " at offset " +
                  std::to_string(error_offset_);
      doc.error_offset = error_offset_;
    }
    return doc;
  }

 private:
  bool FailAt(const char* what, size_t offset) {
    if (error_ == nullptr) {
      error_ = what;
      error_offset_ = offset;
    }
    return false;
  }

  bool AtChar(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool ConsumeIf(char c) {
    if (!AtChar(c)) return false;
    ++pos_;
    return true;
  }

  void SkipSpace() {
    while (AtChar(' ') || AtChar('\n') || AtChar('\r') || AtChar('\t')) ++pos_;
  }

  bool SkipDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  // `depth` counts the arrays and objects enclosing the value.
  bool ParseValue(JsonValue* out, int depth) {
    if (pos_ >= text_.size()) return FailAt("unexpected end", pos_);
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth == kJsonMaxDepth) return FailAt("nesting too deep", pos_);
        return text_[pos_] == '{' ? ParseObject(out, depth + 1)
                                  : ParseArray(out, depth + 1);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        out->type_ = JsonValue::Type::kBool;
        out->boolean_ = true;
        return ParseLiteral("true");
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (ConsumeIf('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!AtChar('"')) return FailAt("expected object key", pos_);
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!ConsumeIf(':')) return FailAt("expected ':'", pos_);
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth)) return false;
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (ConsumeIf('}')) return true;
      if (!ConsumeIf(',')) return FailAt("expected ',' or '}'", pos_);
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (ConsumeIf(']')) return true;
    while (true) {
      SkipSpace();
      out->items_.emplace_back();
      if (!ParseValue(&out->items_.back(), depth)) return false;
      SkipSpace();
      if (ConsumeIf(']')) return true;
      if (!ConsumeIf(',')) return FailAt("expected ',' or ']'", pos_);
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // the opening quote, checked by the caller
    while (pos_ < text_.size()) {
      const size_t at = pos_++;
      const char c = text_[at];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return FailAt("unescaped control character", at);
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      if (e != 'u') {
        const size_t k = std::string_view(kEscapes).find(e);
        if (k == std::string_view::npos) {
          return FailAt("bad escape character", at);
        }
        out->push_back(kDecoded[k]);
        continue;
      }
      int code = 0;
      for (int i = 0; i < 4; ++i) {
        const int digit = pos_ < text_.size() ? HexDigitValue(text_[pos_]) : -1;
        if (digit < 0) return FailAt("bad \\u escape", at);
        code = code * 16 + digit;
        ++pos_;
      }
      // The writer escapes only control bytes; wider code points are not
      // decoded to UTF-8.
      out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
    }
    return FailAt("unterminated string", text_.size());
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    ConsumeIf('-');
    if (!SkipDigits()) return FailAt("expected digit", pos_);
    bool integral = true;
    if (ConsumeIf('.')) {
      integral = false;
      if (!SkipDigits()) return FailAt("expected fraction digits", pos_);
    }
    if (AtChar('e') || AtChar('E')) {
      integral = false;
      ++pos_;
      if (!ConsumeIf('+')) ConsumeIf('-');
      if (!SkipDigits()) return FailAt("expected exponent digits", pos_);
    }
    out->type_ = JsonValue::Type::kNumber;
    const std::string literal(text_.substr(start, pos_ - start));
    out->number_ = std::strtod(literal.c_str(), nullptr);
    // An integer that fits int64 also keeps its exact value: a double
    // holds only 53 bits.
    out->exact_int_ =
        integral && std::from_chars(literal.data(),
                                    literal.data() + literal.size(),
                                    out->integer_)
                            .ec == std::errc();
    return true;
  }

  bool ParseLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return FailAt("bad literal", pos_);
    }
    pos_ += word.size();
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  const char* error_ = nullptr;  // the first failure; a string literal
  size_t error_offset_ = 0;
};

JsonDocument ParseJson(std::string_view text) {
  return JsonReader(text).Parse();
}

int64_t JsonValue::AsInt(int64_t fallback) const {
  if (!is_number()) return fallback;
  if (exact_int_) return integer_;
  constexpr double kTwoTo63 = 9223372036854775808.0;
  return number_ >= -kTwoTo63 && number_ < kTwoTo63
             ? static_cast<int64_t>(number_)
             : fallback;
}

const JsonValue* JsonValue::Member(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue* JsonValue::MemberAtPath(std::string_view path) const {
  const JsonValue* node = this;
  while (node != nullptr) {
    const size_t dot = path.find('.');
    node = node->Member(path.substr(0, dot));
    if (dot == std::string_view::npos) break;
    path.remove_prefix(dot + 1);
  }
  return node;
}

int64_t JsonValue::IntAt(std::string_view path, int64_t fallback) const {
  const JsonValue* leaf = MemberAtPath(path);
  return leaf != nullptr ? leaf->AsInt(fallback) : fallback;
}

double JsonValue::DoubleAt(std::string_view path, double fallback) const {
  const JsonValue* leaf = MemberAtPath(path);
  return leaf != nullptr ? leaf->AsDouble(fallback) : fallback;
}

std::string JsonValue::StringAt(std::string_view path,
                                std::string_view fallback) const {
  const JsonValue* leaf = MemberAtPath(path);
  return std::string(leaf != nullptr && leaf->is_string() ? leaf->str()
                                                          : fallback);
}

}  // namespace spatialjoin
