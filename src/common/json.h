// Minimal JSON support (no external dependencies).
//
//  * Writer: streaming writer producing compact, valid JSON; commas and
//    nesting are managed by a state stack and misuse (value without a key
//    inside an object, unbalanced close) throws InternalError at the call
//    site rather than emitting garbage.
//  * parse/Value: a small recursive-descent parser for reading documents
//    back — round-tripping metric snapshots, run manifests and BENCH_*.json
//    in tests and tooling. Malformed input throws IoError with an offset.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ropus::json {

/// Maximum container nesting depth parse() accepts. The parser recurses
/// per level, so this bounds stack use against adversarial "[[[[..."
/// input; no document the repo writes comes anywhere near it.
inline constexpr std::size_t kMaxParseDepth = 96;

class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Introduces the next member of the enclosing object. A string literal
  /// goes in as written, without emit_string's per-character escape test:
  /// no literal key in the repo needs an escape.
  template <std::size_t N>
  Writer& key(const char (&name)[N]) {
    return literal_key(std::string_view(name, N - 1));
  }
  /// A key built at run time is escaped like any string value.
  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double number);
  Writer& value(std::int64_t number);
  Writer& value(std::size_t number) {
    return value(static_cast<std::int64_t>(number));
  }
  Writer& value(bool boolean);
  Writer& null();
  /// Places `json`, one complete value that a Writer produced, as the next
  /// value: text serialized once can be spliced into many documents.
  Writer& raw(std::string_view json);

  /// Final document; throws InternalError when containers are unbalanced.
  std::string str() const&;
  /// The same, moved out of a writer that is done with it.
  std::string str() &&;

 private:
  enum class Frame { kObject, kArray };
  void before_value();
  void emit_string(std::string_view s);
  void open_key();
  Writer& literal_key(std::string_view name);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool pending_key_ = false;
  bool done_ = false;
};

/// A parsed JSON value. Objects keep member order; duplicate keys keep the
/// last occurrence on lookup (like most parsers).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw IoError when the value has another type.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Object member that must exist; throws IoError when absent.
  const Value& at(std::string_view key) const;

  static Value null();
  static Value boolean(bool b);
  static Value number(double n);
  static Value string(std::string s);
  static Value array(std::vector<Value> items);
  static Value object(std::vector<std::pair<std::string, Value>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Member `key` of object `obj` as a count: a whole number in [0, 2^53].
/// Throws IoError naming the key when it is absent, not a number,
/// negative, fractional, too large or NaN — the one reader for counts in
/// saved state.
std::size_t read_count(const Value& obj, std::string_view key);

/// Parses one JSON document (trailing whitespace allowed, trailing content
/// is an error). Throws IoError with a byte offset on malformed input.
Value parse(std::string_view text);

}  // namespace ropus::json
