#pragma once

/// \file expected.hpp
/// A small `Expected<T>` result type.
///
/// relap does not use exceptions for control flow (see DESIGN.md §5):
/// infeasibility of an optimization problem, a malformed instance file or an
/// out-of-budget enumeration are *normal* outcomes that callers must handle.
/// `Expected<T>` carries either a value or a human-readable `Error`.
/// It intentionally implements only the small surface the library needs
/// instead of replicating `std::expected` (C++23).

#include <optional>
#include <string>
#include <utility>

#include "relap/util/assert.hpp"

namespace relap::util {

/// Error payload: a short machine-checkable code plus a human message.
struct Error {
  /// Stable identifier, e.g. "infeasible", "parse", "budget".
  std::string code;
  /// Human-readable explanation, suitable for CLI output.
  std::string message;

  [[nodiscard]] std::string to_string() const { return code + ": " + message; }
};

/// Either a value of type `T` or an `Error`.
template <typename T>
class Expected {
 public:
  /*implicit*/ Expected(T value) : value_(std::move(value)) {}
  /*implicit*/ Expected(Error error) : error_(std::move(error)) {}

  [[nodiscard]] bool has_value() const { return value_.has_value(); }
  [[nodiscard]] explicit operator bool() const { return has_value(); }

  /// Precondition: `has_value()`.
  [[nodiscard]] const T& value() const& {
    RELAP_ASSERT(value_.has_value(), error_ ? error_->to_string().c_str() : "empty Expected");
    return *value_;
  }
  [[nodiscard]] T& value() & {
    RELAP_ASSERT(value_.has_value(), error_ ? error_->to_string().c_str() : "empty Expected");
    return *value_;
  }
  [[nodiscard]] T&& take() && {
    RELAP_ASSERT(value_.has_value(), error_ ? error_->to_string().c_str() : "empty Expected");
    return std::move(*value_);
  }

  /// Precondition: `!has_value()`.
  [[nodiscard]] const Error& error() const {
    RELAP_ASSERT(error_.has_value(), "Expected holds a value, not an error");
    return *error_;
  }

  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] const T& operator*() const { return value(); }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Convenience factories.
[[nodiscard]] Error make_error(std::string code, std::string message);
[[nodiscard]] Error infeasible(std::string message);
[[nodiscard]] Error budget_exceeded(std::string message);
[[nodiscard]] Error malformed(std::string message);
[[nodiscard]] Error parse_error(int line, std::string message);

}  // namespace relap::util
