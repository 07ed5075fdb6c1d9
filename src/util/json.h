// Minimal JSON value type with a strict parser and a writer — just enough
// for results, requests and telemetry to cross process boundaries without
// pulling in an external dependency.
//
//   util::Json j = util::Json::object();
//   j.set("solver", "eptas");
//   j.set("makespan", 12.5);
//   const std::string text = j.dump(2);
//   const util::Json back = util::Json::parse(text);
//   back["makespan"].as_number();   // 12.5
//
// Objects preserve insertion order (stored as a vector of pairs), so dumped
// documents are stable across runs and friendly to golden files. Numbers
// are doubles; integers up to 2^53 round-trip exactly and are printed
// without a decimal point.
//
// There is one JSON grammar: JsonReader, a pull reader over a string_view.
// Json::parse builds its tree on it, and the wire codecs (api/serialize.h,
// net/protocol.h) decode straight from text into typed structs with it.
// append_json_string/append_json_number are the writer primitives shared
// by Json::dump and the hand-written frame encoders.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bagsched::util {

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool value) : kind_(Kind::Bool), bool_(value) {}
  Json(double value) : kind_(Kind::Number), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(long long value) : Json(static_cast<double>(value)) {}
  Json(std::uint64_t value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : kind_(Kind::String), string_(value) {}
  Json(std::string value) : kind_(Kind::String), string_(std::move(value)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  long long as_int() const;  ///< as_number rounded to nearest integer
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  // --- Array building / access ---------------------------------------------
  /// Appends to an array (null values become empty arrays first).
  Json& push_back(Json value);
  std::size_t size() const;
  /// Array element; throws std::out_of_range / kind mismatch.
  const Json& at(std::size_t index) const;
  const Json& operator[](std::size_t index) const { return at(index); }

  // --- Object building / access --------------------------------------------
  /// Inserts or replaces a key (null values become empty objects first).
  Json& set(const std::string& key, Json value);
  bool contains(const std::string& key) const;
  /// Object member; throws std::out_of_range when the key is absent.
  const Json& at(const std::string& key) const;
  const Json& operator[](const std::string& key) const { return at(key); }
  /// Object member, or nullptr when absent / not an object.
  const Json* find(const std::string& key) const;

  /// Convenience lookups with fallbacks for optional members.
  double number_or(const std::string& key, double fallback) const;
  long long int_or(const std::string& key, long long fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  // --- Serialization ---------------------------------------------------------
  /// Compact when indent < 0; pretty-printed with `indent` spaces otherwise.
  std::string dump(int indent = -1) const;

  /// Strict RFC 8259 parser; throws std::runtime_error with position on
  /// bad input. Rejects trailing garbage after the top-level value.
  static Json parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// The std::runtime_error Json's typed accessors throw on a kind mismatch
/// ("json: expected number, found string").
[[noreturn]] void throw_kind_error(const char* wanted, Json::Kind got);

/// `value` as an integer, with Json::as_int's checks: out-of-range and
/// non-integral numbers throw std::runtime_error.
long long json_integer(double value);

/// A u64 token such as a session epoch: a decimal string of digits only
/// (no sign, whitespace or suffix, not empty — a full-range u64 does not
/// survive a JSON double), or a non-negative JSON integer. Anything else
/// throws std::runtime_error.
std::uint64_t u64_from_json(const Json& value);

/// Writer primitives: a quoted, escaped string and a number (integers
/// without a decimal point, everything else shortest-round-trip;
/// non-finite values as null).
void append_json_string(std::string& out, std::string_view text);
void append_json_number(std::string& out, double value);

/// Pull reader over JSON text: one strict pass, no tree. Every read
/// consumes exactly one value; a syntax error throws std::runtime_error
/// "json parse error at offset N: ...", and a well-formed value of the
/// wrong kind throws what Json's accessors throw for it (throw_kind_error).
///
///   util::JsonReader reader(text);
///   reader.read_object([&](std::string_view key) {
///     if (key == "size") size = reader.read_number();
///     else reader.skip_value();
///   });
///   reader.expect_end();
///
/// Object and array nesting is capped at 256 levels, so adversarial input
/// throws instead of overflowing the stack.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value, judged by its first byte (anything that is
  /// not an object, array, string or literal reads as a number). Throws at
  /// end of input.
  Json::Kind peek_kind() {
    switch (peek()) {
      case '{': return Json::Kind::Object;
      case '[': return Json::Kind::Array;
      case '"': return Json::Kind::String;
      case 't':
      case 'f': return Json::Kind::Bool;
      case 'n': return Json::Kind::Null;
      default: return Json::Kind::Number;
    }
  }
  /// Throws "trailing characters after value" unless only whitespace is
  /// left.
  void expect_end();

  /// Calls on_member(key) once per member, in document order; the callback
  /// must consume the member's value with exactly one read. A repeated key
  /// is reported each time it appears.
  template <typename OnMember>
  void read_object(OnMember&& on_member);
  /// Calls on_element() once per element; it must consume the element.
  template <typename OnElement>
  void read_array(OnElement&& on_element);

  /// The decoded string. The view points into the text when the string has
  /// no escapes, into `scratch` otherwise; it lives until the next read.
  std::string_view read_string(std::string& scratch) {
    if (peek() != '"') throw_kind_error("string", peek_kind());
    // Fast path: no escape before the closing quote, so the text itself is
    // the decoded string.
    const std::size_t start = ++pos_;
    std::size_t end = start;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
      ++end;
    }
    if (end < text_.size() && text_[end] == '"') {
      pos_ = end + 1;
      return text_.substr(start, end - start);
    }
    return read_escaped(start, scratch);
  }
  std::string read_string();
  double read_number();
  long long read_int();  ///< read_number with json_integer's checks
  std::uint64_t read_u64();  ///< u64_from_json's rule, without a tree
  bool read_bool();
  void read_null();

  /// Lenient reads with Json::number_or/int_or/bool_or semantics: the
  /// value when it has the wanted kind, `fallback` (value skipped)
  /// otherwise.
  double number_or(double fallback);
  long long int_or(long long fallback);
  bool bool_or(bool fallback);
  /// Consumes one value of any kind, checking its syntax.
  void skip_value();
  /// skip_value, returning the raw text of the value.
  std::string_view raw_value();

  /// Runs decode(), which reads one value. If it throws, the value is
  /// re-read with skip_value — so a syntax error anywhere in it throws
  /// from here — and the error is returned instead of thrown; the reader
  /// then stands after the value either way. This is how typed decoders
  /// keep a tree decoder's error order: Json::parse rejects bad syntax
  /// before any field is looked at.
  template <typename Decode>
  std::exception_ptr read_deferred(Decode&& decode);

 private:
  struct Mark {
    std::size_t pos = 0;
    int depth = 0;
  };
  Mark mark() const { return {pos_, depth_}; }
  void reset(Mark mark) {
    pos_ = mark.pos;
    depth_ = mark.depth;
  }

  [[noreturn]] void fail(const std::string& message) const;
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void enter() {
    if (++depth_ > 256) fail("nesting too deep");
  }
  std::string_view read_escaped(std::size_t start, std::string& scratch);
  unsigned parse_hex4();
  void literal(std::string_view word);
  /// Scans one RFC 8259 number and returns its length.
  std::size_t scan_number();

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

template <typename OnMember>
void JsonReader::read_object(OnMember&& on_member) {
  const Json::Kind kind = peek_kind();
  if (kind != Json::Kind::Object) throw_kind_error("object", kind);
  enter();
  ++pos_;
  if (peek() == '}') {
    ++pos_;
    --depth_;
    return;
  }
  std::string scratch;
  for (;;) {
    if (peek() != '"') fail("expected object key");
    const std::string_view key = read_string(scratch);
    expect(':');
    on_member(key);
    const char next = peek();
    ++pos_;
    if (next == '}') break;
    if (next != ',') fail("expected ',' or '}'");
  }
  --depth_;
}

template <typename OnElement>
void JsonReader::read_array(OnElement&& on_element) {
  const Json::Kind kind = peek_kind();
  if (kind != Json::Kind::Array) throw_kind_error("array", kind);
  enter();
  ++pos_;
  if (peek() == ']') {
    ++pos_;
    --depth_;
    return;
  }
  for (;;) {
    on_element();
    const char next = peek();
    ++pos_;
    if (next == ']') break;
    if (next != ',') fail("expected ',' or ']'");
  }
  --depth_;
}

template <typename Decode>
std::exception_ptr JsonReader::read_deferred(Decode&& decode) {
  const Mark start = mark();
  try {
    decode();
    return nullptr;
  } catch (...) {
    std::exception_ptr error = std::current_exception();
    reset(start);
    skip_value();
    return error;
  }
}

/// Reads an object member by member, in document order: decode(i) reads
/// the value of member keys[i] (and must overwrite, not append to, what an
/// earlier occurrence decoded — a repeated key counts by its last value,
/// as with Json::set); unknown members are skipped. Errors surface in the
/// order a tree decoder visiting `keys` in turn raises them: syntax errors
/// first, then per key either std::out_of_range for a missing key whose
/// bit is set in `required` (Json::at's message) or the error its decode
/// threw.
template <std::size_t N, typename Decode>
void read_members(JsonReader& reader,
                  const std::array<std::string_view, N>& keys,
                  unsigned required, Decode&& decode) {
  static_assert(N <= 32);
  std::array<std::exception_ptr, N> errors{};
  unsigned seen = 0;
  reader.read_object([&](std::string_view key) {
    for (std::size_t i = 0; i < N; ++i) {
      if (key == keys[i]) {
        seen |= 1u << i;
        errors[i] = reader.read_deferred([&] { decode(i); });
        return;
      }
    }
    reader.skip_value();
  });
  for (std::size_t i = 0; i < N; ++i) {
    if ((seen >> i & 1u) == 0) {
      if ((required >> i & 1u) != 0) {
        throw std::out_of_range("json: missing key \"" +
                                std::string(keys[i]) + "\"");
      }
    } else if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
}

/// Decodes `text` as one document with decode(reader), raising errors as
/// Json::parse followed by a tree decoder would: a syntax error (trailing
/// characters included) before anything decode threw.
template <typename Decode>
void read_document(std::string_view text, Decode&& decode) {
  JsonReader reader(text);
  const std::exception_ptr error =
      reader.read_deferred([&] { decode(reader); });
  reader.expect_end();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace bagsched::util
