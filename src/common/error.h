// Error-handling primitives shared across R-Opus.
//
// Policy (see DESIGN.md):
//  * invalid arguments to public API functions throw ropus::InvalidArgument;
//  * violated internal invariants throw ropus::InternalError (these indicate
//    bugs, not user mistakes, and are never expected in a correct build);
//  * I/O failures throw ropus::IoError.
// All exception types derive from ropus::Error -> std::runtime_error so a
// caller may catch the whole family at once.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ropus {

/// Base class for all R-Opus exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  /// `what` whose own message starts at `message_at`, past a source
  /// location.
  Error(const std::string& what, std::size_t message_at)
      : std::runtime_error(what), message_at_(message_at) {}

  /// The error's own message: what() without the source file and line
  /// that a failed requirement or invariant starts with. Replies to
  /// clients carry this, so they do not depend on the build's path.
  std::string_view message() const noexcept {
    return std::string_view(what()).substr(message_at_);
  }

 private:
  std::size_t message_at_ = 0;
};

/// A caller passed an argument that violates a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// An internal invariant failed; indicates a bug in R-Opus itself.
class InternalError : public Error {
 public:
  using Error::Error;
};

/// A file could not be read, written, or parsed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

namespace detail {
/// Throws "<file>:<line>: <failed> <expr>[ — <msg>]", whose message() is
/// `msg`, or "<failed> <expr>" when `msg` is empty.
template <typename E>
[[noreturn]] void throw_located(const char* failed, const char* expr,
                                const char* file, int line,
                                const std::string& msg) {
  const std::string where = std::string(file) + ":" + std::to_string(line) +
                            ": ";
  std::string what = where + failed + " " + expr;
  std::size_t message_at = where.size();
  if (!msg.empty()) {
    what += " — ";
    message_at = what.size();
    what += msg;
  }
  throw E(what, message_at);
}

[[noreturn]] inline void throw_invalid_argument(const char* expr,
                                                const char* file, int line,
                                                const std::string& msg) {
  throw_located<InvalidArgument>("requirement failed:", expr, file, line,
                                 msg);
}

[[noreturn]] inline void throw_internal_error(const char* expr,
                                              const char* file, int line,
                                              const std::string& msg) {
  throw_located<InternalError>("invariant failed:", expr, file, line, msg);
}
}  // namespace detail

}  // namespace ropus

/// Validate a documented precondition on a public API; throws InvalidArgument.
#define ROPUS_REQUIRE(expr, msg)                                         \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::ropus::detail::throw_invalid_argument(#expr, __FILE__, __LINE__, \
                                              (msg));                    \
    }                                                                    \
  } while (false)

/// Check an internal invariant; throws InternalError (a bug if it fires).
#define ROPUS_ASSERT(expr, msg)                                        \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::ropus::detail::throw_internal_error(#expr, __FILE__, __LINE__, \
                                            (msg));                    \
    }                                                                  \
  } while (false)
