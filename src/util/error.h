// Error and Result types used across the VMPlants libraries.
//
// The middleware is service-oriented: most failures (a plant that cannot
// satisfy a request, a malformed DAG, an exhausted host-only network pool)
// are expected outcomes that must travel back to the client as data, not as
// exceptions.  Result<T> carries either a value or an Error with a stable
// category code that survives serialization into classads / XML responses.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace vmp::util {

/// Stable error categories; the numeric values appear in wire responses.
enum class ErrorCode : std::uint32_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kResourceExhausted = 4,
  kFailedPrecondition = 5,
  kUnavailable = 6,
  kTimeout = 7,
  kInternal = 8,
  kParseError = 9,
  kConfigActionFailed = 10,   // a DAG action node failed inside the guest
  kNoMatchingImage = 11,      // warehouse has no golden machine for the DAG
  kNoBids = 12,               // no plant produced a usable bid
  kPermissionDenied = 13,
  kCancelled = 14,
};

/// Human-readable name of an ErrorCode ("NOT_FOUND", ...).
const char* error_code_name(ErrorCode code) noexcept;

/// Inverse of error_code_name; nullopt for unknown names.  Used by the
/// fault-injection spec parser and by wire decoding.
std::optional<ErrorCode> error_code_from_name(const std::string& name);

/// An error with category, message, and optional nested context frames.
class Error {
 public:
  Error() = default;
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// Prepends a context frame: Error("x").wrap("while cloning vm42").
  Error&& wrap(const std::string& context) && {
    message_ = context + ": " + message_;
    return std::move(*this);
  }

  /// "NOT_FOUND: no golden machine matches request"
  std::string to_string() const;

  bool ok() const noexcept { return code_ == ErrorCode::kOk; }

  friend bool operator==(const Error& a, const Error& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Thrown only by Result::value() misuse; library code never throws this
/// across module boundaries.
class BadResultAccess : public std::logic_error {
 public:
  explicit BadResultAccess(const std::string& what) : std::logic_error(what) {}
};

/// Result<T>: a value or an Error.  Modeled on the usual expected<> shape;
/// kept minimal and dependency-free for C++20.
template <typename T>
class Result {
 public:
  Result(const T& value) : data_(value) {}              // NOLINT implicit
  Result(T&& value) : data_(std::move(value)) {}        // NOLINT implicit
  /// Constructs the value in place, for a T too large to move cheaply.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : data_(std::in_place_type<T>, std::forward<Args>(args)...) {}
  Result(Error error) : data_(std::move(error)) {}      // NOLINT implicit
  Result(ErrorCode code, std::string message)
      : data_(Error(code, std::move(message))) {}

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    require_ok();
    return std::get<T>(data_);
  }
  T& value() & {
    require_ok();
    return std::get<T>(data_);
  }
  T&& value() && {
    require_ok();
    return std::get<T>(std::move(data_));
  }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

  const Error& error() const& {
    if (ok()) throw BadResultAccess("Result holds a value, not an error");
    return std::get<Error>(data_);
  }

  /// Propagate the error into a Result of a different type.
  template <typename U>
  Result<U> propagate() const {
    return Result<U>(error());
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw BadResultAccess("Result access on error: " +
                            std::get<Error>(data_).to_string());
    }
  }
  std::variant<T, Error> data_;
};

/// Status: Result with no payload.
class Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)) {}  // NOLINT implicit
  Status(ErrorCode code, std::string message)
      : error_(Error(code, std::move(message))) {}

  static Status ok_status() { return Status(); }

  bool ok() const noexcept { return !error_ || error_->ok(); }
  explicit operator bool() const noexcept { return ok(); }

  const Error& error() const {
    static const Error kOkError{};
    return error_ ? *error_ : kOkError;
  }

  /// Propagate a failure status into a Result of any type.
  template <typename U>
  Result<U> propagate() const {
    return Result<U>(error());
  }
  std::string to_string() const {
    return ok() ? "OK" : error_->to_string();
  }

 private:
  std::optional<Error> error_;
};

#define VMP_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    auto vmp_status__ = (expr);                     \
    if (!vmp_status__.ok()) return vmp_status__;    \
  } while (false)

/// Propagate a failed Status out of a function returning Result<T>.
#define VMP_RETURN_IF_ERROR_AS(expr, T)                          \
  do {                                                           \
    auto vmp_status__ = (expr);                                  \
    if (!vmp_status__.ok()) return vmp_status__.propagate<T>();  \
  } while (false)

}  // namespace vmp::util
