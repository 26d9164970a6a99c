// Precondition / invariant checking helpers (Core Guidelines I.6 / E.12).
//
// The checks sit on per-step hot paths (store models, cold start, cell
// model), so a passing check must not allocate: the message is taken as
// a std::string_view and only copied into a std::string by the cold
// throw helpers below. test_alloc enforces it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace focv {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails (a library bug or a numerical
/// breakdown the caller cannot fix by changing arguments).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an iterative numerical method fails to converge.
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(std::string_view message) {
  throw PreconditionError(std::string(message));
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_invariant(std::string_view message) {
  throw InvariantError(std::string(message));
}

}  // namespace detail

/// Check a documented precondition on function arguments.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] detail::throw_precondition(message);
}

/// Check an internal invariant.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] detail::throw_invariant(message);
}

}  // namespace focv
