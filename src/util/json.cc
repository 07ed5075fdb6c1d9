#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bagsched::util {

namespace {

Json read_json(JsonReader& reader) {
  switch (reader.peek_kind()) {
    case Json::Kind::Object: {
      Json object = Json::object();
      reader.read_object([&](std::string_view key) {
        const std::string name(key);  // before the next read
        object.set(name, read_json(reader));
      });
      return object;
    }
    case Json::Kind::Array: {
      Json array = Json::array();
      reader.read_array([&] { array.push_back(read_json(reader)); });
      return array;
    }
    case Json::Kind::String: return Json(reader.read_string());
    case Json::Kind::Bool: return Json(reader.read_bool());
    case Json::Kind::Null: reader.read_null(); return Json();
    case Json::Kind::Number: break;
  }
  return Json(reader.read_number());
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void throw_kind_error(const char* wanted, Json::Kind got) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw std::runtime_error(std::string("json: expected ") + wanted +
                           ", found " + names[static_cast<int>(got)]);
}

long long json_integer(double value) {
  // Guard the conversion's UB: reject values outside the representable
  // range (9.2e18 ~ LLONG_MAX; the boundary itself is not exactly
  // representable).
  if (!(value >= -9.2233720368547698e18 && value <= 9.2233720368547698e18)) {
    throw std::runtime_error("json: number out of integer range");
  }
  // Fail loudly on non-integral numbers instead of silently rounding a
  // malformed document into a different one: in range, the conversion
  // truncates, so only an integral value converts back to itself.
  const auto integer = static_cast<long long>(value);
  if (static_cast<double>(integer) != value) {
    throw std::runtime_error("json: expected an integer, found " +
                             std::to_string(value));
  }
  return integer;
}

std::uint64_t u64_from_json(const Json& value) {
  return JsonReader(value.dump()).read_u64();  // one rule for both paths
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  // Runs of bytes that need no escape are appended whole; UTF-8 bytes pass
  // through untouched.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  // std::to_chars, not snprintf: number-heavy documents (journaled
  // schedules, wire frames) serialize an order of magnitude faster, and
  // the shortest-round-trip form it emits parses back bit-identical.
  char buffer[32];
  if (value == 0.0 && std::signbit(value)) {
    out += "-0";  // the integer path below would drop the sign
    return;
  }
  // Integers (up to the 2^53 exact range) print without a decimal point.
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer),
                                      static_cast<long long>(value));
    out.append(buffer, result.ptr);
    return;
  }
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

// --- JsonReader -------------------------------------------------------------

void JsonReader::fail(const std::string& message) const {
  throw std::runtime_error("json parse error at offset " +
                           std::to_string(pos_) + ": " + message);
}

void JsonReader::expect_end() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing characters after value");
}

void JsonReader::literal(std::string_view word) {
  if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
  pos_ += word.size();
}

bool JsonReader::read_bool() {
  const Json::Kind kind = peek_kind();
  if (kind != Json::Kind::Bool) throw_kind_error("bool", kind);
  if (text_[pos_] == 't') {
    literal("true");
    return true;
  }
  literal("false");
  return false;
}

void JsonReader::read_null() {
  const Json::Kind kind = peek_kind();
  if (kind != Json::Kind::Null) throw_kind_error("null", kind);
  literal("null");
}

std::size_t JsonReader::scan_number() {
  const char* const begin = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  const char* p = begin;
  const auto digits = [&] {
    const char* const first = p;
    while (p != end && is_digit(*p)) ++p;
    return p != first;
  };
  const auto bad = [&](const char* message) {
    pos_ = static_cast<std::size_t>(p - text_.data());
    fail(message);
  };
  if (p != end && *p == '-') ++p;
  if (p != end && *p == '0') {
    ++p;  // a leading zero stands alone: "01" leaves "1" unread
  } else if (!digits()) {
    bad(p == begin ? "expected a value" : "bad number");
  }
  if (p != end && *p == '.') {
    ++p;
    if (!digits()) bad("bad number");
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (!digits()) bad("bad number");
  }
  pos_ = static_cast<std::size_t>(p - text_.data());
  return static_cast<std::size_t>(p - begin);
}

double JsonReader::read_number() {
  const Json::Kind kind = peek_kind();
  if (kind != Json::Kind::Number) throw_kind_error("number", kind);
  const char* const first = text_.data() + pos_;
  const std::size_t length = scan_number();
  double value = 0.0;
  // from_chars parses exactly the RFC 8259 grammar scanned above,
  // subnormals included; overflow and underflow to zero are errors.
  const auto result = std::from_chars(first, first + length, value);
  if (result.ec != std::errc() || result.ptr != first + length) {
    fail("bad number");
  }
  return value;
}

long long JsonReader::read_int() { return json_integer(read_number()); }

std::uint64_t JsonReader::read_u64() {
  if (peek_kind() != Json::Kind::String) {
    const long long integer = read_int();
    if (integer < 0) {
      throw std::runtime_error(
          "json: expected a non-negative integer, found " +
          std::to_string(integer));
    }
    return static_cast<std::uint64_t>(integer);
  }
  std::string scratch;
  const std::string_view text = read_string(scratch);
  std::uint64_t parsed = 0;
  // from_chars takes no sign and no leading whitespace; the pointer check
  // rejects a suffix, and the empty string fails with invalid_argument.
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size()) {
    throw std::runtime_error("json: expected an unsigned decimal string, "
                             "found \"" + std::string(text) + "\"");
  }
  return parsed;
}

double JsonReader::number_or(double fallback) {
  if (peek_kind() == Json::Kind::Number) return read_number();
  skip_value();
  return fallback;
}

long long JsonReader::int_or(long long fallback) {
  if (peek_kind() == Json::Kind::Number) return read_int();
  skip_value();
  return fallback;
}

bool JsonReader::bool_or(bool fallback) {
  if (peek_kind() == Json::Kind::Bool) return read_bool();
  skip_value();
  return fallback;
}

unsigned JsonReader::parse_hex4() {
  if (pos_ + 4 > text_.size()) fail("bad \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code += 10u + (h - 'a');
    else if (h >= 'A' && h <= 'F') code += 10u + (h - 'A');
    else fail("bad \\u escape");
  }
  return code;
}

std::string_view JsonReader::read_escaped(std::size_t start,
                                          std::string& scratch) {
  pos_ = start;
  while (pos_ < text_.size() && text_[pos_] != '\\') ++pos_;
  scratch.assign(text_.data() + start, pos_ - start);
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return scratch;
    if (c != '\\') {
      scratch += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': {
        unsigned code = parse_hex4();
        if (code >= 0xDC00 && code <= 0xDFFF) {
          fail("lone low surrogate in \\u escape");
        }
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: a \uDC00-\uDFFF low half must follow, and the
          // pair combines into one supplementary code point — emitting
          // the halves separately would produce invalid UTF-8 (CESU-8).
          if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            fail("high surrogate not followed by \\u escape");
          }
          pos_ += 2;
          const unsigned low = parse_hex4();
          if (low < 0xDC00 || low > 0xDFFF) {
            fail("high surrogate not followed by a low surrogate");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // Encode the code point as UTF-8.
        if (code < 0x80) {
          scratch += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch += static_cast<char>(0xC0 | (code >> 6));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          scratch += static_cast<char>(0xE0 | (code >> 12));
          scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch += static_cast<char>(0xF0 | (code >> 18));
          scratch += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
  fail("unterminated string");
}

std::string JsonReader::read_string() {
  std::string scratch;
  const std::string_view value = read_string(scratch);
  if (value.data() == scratch.data()) return scratch;
  return std::string(value);
}

void JsonReader::skip_value() {
  switch (peek_kind()) {
    case Json::Kind::Object:
      read_object([&](std::string_view) { skip_value(); });
      return;
    case Json::Kind::Array: read_array([&] { skip_value(); }); return;
    case Json::Kind::String: {
      std::string scratch;
      read_string(scratch);
      return;
    }
    case Json::Kind::Bool: read_bool(); return;
    case Json::Kind::Null: read_null(); return;
    case Json::Kind::Number: read_number(); return;
  }
}

std::string_view JsonReader::raw_value() {
  skip_whitespace();
  const std::size_t start = pos_;
  skip_value();
  return text_.substr(start, pos_ - start);
}

// --- Json -------------------------------------------------------------------

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) throw_kind_error("bool", kind_);
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) throw_kind_error("number", kind_);
  return number_;
}

long long Json::as_int() const { return json_integer(as_number()); }

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) throw_kind_error("string", kind_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::Array) throw_kind_error("array", kind_);
  return array_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::Object) throw_kind_error("object", kind_);
  return object_;
}

Json& Json::push_back(Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw_kind_error("array", kind_);
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::Array) throw_kind_error("array", kind_);
  if (index >= array_.size()) {
    throw std::out_of_range("json: array index " + std::to_string(index) +
                            " out of range");
  }
  return array_[index];
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw_kind_error("object", kind_);
  for (auto& [existing, slot] : object_) {
    if (existing == key) {
      slot = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

bool Json::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [existing, value] : object_) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  if (kind_ != Kind::Object) throw_kind_error("object", kind_);
  const Json* value = find(key);
  if (value == nullptr) {
    throw std::out_of_range("json: missing key \"" + key + "\"");
  }
  return *value;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

long long Json::int_or(const std::string& key, long long fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_number() ? value->as_int() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_bool() ? value->as_bool() : fallback;
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(d),
               ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Number: append_json_number(out, number_); return;
    case Kind::String: append_json_string(out, string_); return;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        append_json_string(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = read_json(reader);
  reader.expect_end();
  return value;
}

}  // namespace bagsched::util
