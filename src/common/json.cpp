#include "common/json.h"

#include <charconv>
#include <cmath>

#include "common/error.h"

namespace ropus::json {

void Writer::before_value() {
  ROPUS_ASSERT(!done_, "document already complete");
  if (stack_.empty()) return;
  if (stack_.back() == Frame::kObject) {
    ROPUS_ASSERT(pending_key_, "object members need a key first");
    pending_key_ = false;
    return;
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
}

void Writer::emit_string(std::string_view s) {
  out_.push_back('"');
  // Each run of characters that needs no escape goes in with one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"':
        escape = "\\\"";
        break;
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\r':
        escape = "\\r";
        break;
      case '\t':
        escape = "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out_.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out_ += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_.push_back('"');
}

Writer& Writer::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  ROPUS_ASSERT(!stack_.empty() && stack_.back() == Frame::kObject,
               "end_object without matching begin_object");
  ROPUS_ASSERT(!pending_key_, "dangling key at end_object");
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  ROPUS_ASSERT(!stack_.empty() && stack_.back() == Frame::kArray,
               "end_array without matching begin_array");
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

void Writer::open_key() {
  ROPUS_ASSERT(!stack_.empty() && stack_.back() == Frame::kObject,
               "key outside an object");
  ROPUS_ASSERT(!pending_key_, "two keys in a row");
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  pending_key_ = true;
}

Writer& Writer::key(std::string_view name) {
  open_key();
  emit_string(name);
  out_.push_back(':');
  return *this;
}

Writer& Writer::literal_key(std::string_view name) {
  open_key();
  out_.push_back('"');
  out_ += name;
  out_ += "\":";
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value();
  emit_string(s);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(double number) {
  before_value();
  if (!std::isfinite(number)) {
    // JSON has no NaN/Inf; null is the conventional stand-in.
    out_ += "null";
  } else {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), number);
    ROPUS_ASSERT(ec == std::errc{}, "number formatting failed");
    out_.append(buf, ptr);
  }
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(std::int64_t number) {
  before_value();
  out_ += std::to_string(number);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(bool boolean) {
  before_value();
  out_ += boolean ? "true" : "false";
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  ROPUS_ASSERT(!json.empty(), "a spliced value cannot be empty");
  before_value();
  out_ += json;
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string Writer::str() const& {
  ROPUS_ASSERT(stack_.empty() && done_, "incomplete JSON document");
  return out_;
}

std::string Writer::str() && {
  ROPUS_ASSERT(stack_.empty() && done_, "incomplete JSON document");
  return std::move(out_);
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw IoError("JSON value is not a boolean");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw IoError("JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw IoError("JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) throw IoError("JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  if (type_ != Type::kObject) throw IoError("JSON value is not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const Value* found = nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) found = &value;  // last duplicate wins
  }
  return found;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  if (found == nullptr) {
    throw IoError("JSON object has no member '" + std::string(key) + "'");
  }
  return *found;
}

std::size_t read_count(const Value& obj, std::string_view key) {
  const double value = obj.at(key).as_number();
  if (!(value >= 0.0 && value <= 0x1p53 && value == std::floor(value))) {
    throw IoError("field '" + std::string(key) + "' is not a count");
  }
  return static_cast<std::size_t>(value);
}

Value Value::null() { return Value{}; }

Value Value::boolean(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double n) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("JSON parse error at offset " + std::to_string(pos_) +
                  ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // The parser recurses once per nesting level; without a cap an
        // adversarial "[[[[..." overflows the stack long before any
        // memory limit bites.
        if (depth_ >= kMaxParseDepth) {
          fail("nesting deeper than " + std::to_string(kMaxParseDepth) +
               " levels");
        }
        ++depth_;
        Value v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return Value::string(string());
      case 't':
        if (consume_literal("true")) return Value::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value::null();
        fail("invalid literal");
      default:
        return number();
    }
  }

  Value object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value::object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value::object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value array() {
    expect('[');
    std::vector<Value> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value::array(std::move(items));
    }
    while (true) {
      items.push_back(value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value::array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rejected:
          // the writer never emits them and accepting half a pair would
          // produce invalid UTF-8 silently).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double parsed = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, parsed);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      fail("malformed number");
    }
    return Value::number(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace ropus::json
