// Error handling primitives.
//
// Two mechanisms, used per the C++ Core Guidelines:
//  - exceptions (rcs::Error hierarchy) for contract violations and failures
//    that callers are not expected to handle locally;
//  - Status / Result<T> for expected, recoverable outcomes (e.g. a script
//    that fails validation, a lookup that may miss).
//
// ScriptException mirrors the paper's FScript semantics (§5.3): a failed
// reconfiguration throws, the transaction rolls back, and the architecture is
// left in its initial configuration.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "rcs/common/strf.hpp"

namespace rcs {

/// Base class for all library exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Violated precondition / broken invariant: a programming error.
class LogicError : public Error {
 public:
  using Error::Error;
};

/// Malformed Value access or codec failure.
class ValueError : public Error {
 public:
  using Error::Error;
};

/// Component-model violation (illegal lifecycle transition, bad wiring, ...).
class ComponentError : public Error {
 public:
  using Error::Error;
};

/// Reconfiguration-script failure. Thrown after the transaction has been
/// rolled back, so the component architecture is unchanged (all-or-nothing).
class ScriptException : public Error {
 public:
  using Error::Error;
};

/// Fault-tolerance protocol violation (e.g. deploying a checkpointing FTM on
/// an application without state access).
class FtmError : public Error {
 public:
  using Error::Error;
};

/// Simulation misuse (scheduling in the past, unknown host, ...).
class SimError : public Error {
 public:
  using Error::Error;
};

namespace detail {
template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void ensure_failed(const Parts&... parts) {
  throw LogicError(strf(parts...));
}
}  // namespace detail

/// Throw LogicError when a precondition does not hold. The message is the
/// concatenation of `parts` (as strf formats them), built only on failure:
/// the parts are passed by reference, so a passing check never formats or
/// allocates, however many parts its message has.
template <typename... Parts>
inline void ensure(bool condition, const Parts&... parts) {
  if (!condition) [[unlikely]] detail::ensure_failed(parts...);
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

enum class ErrorCode {
  kOk,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnavailable,
  kAborted,
  kInternal,
};

[[nodiscard]] constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kFailedPrecondition: return "failed_precondition";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kAborted: return "aborted";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Outcome of an operation that can fail in an expected way.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return {}; }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Throw Error if this status is not ok; for callers that cannot recover.
  void check() const {
    if (!is_ok()) {
      throw Error(std::string(to_string(code_)) + ": " + message_);
    }
  }

  bool operator==(const Status&) const = default;

 private:
  ErrorCode code_{ErrorCode::kOk};
  std::string message_;
};

/// A value or a failure Status. Accessing value() on a failed Result throws.
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    ensure(!std::get<Status>(state_).is_ok(),
           "Result constructed from an ok Status carries no value");
  }
  Result(ErrorCode code, std::string message)
      : state_(Status(code, std::move(message))) {}

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(state_);
  }

 private:
  void require_ok() const {
    if (!is_ok()) {
      const auto& s = std::get<Status>(state_);
      throw Error("Result::value on error: " + std::string(to_string(s.code())) +
                  ": " + s.message());
    }
  }

  std::variant<T, Status> state_;
};

}  // namespace rcs
