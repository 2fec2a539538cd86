#pragma once

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

/// \file result.h
/// Result<T>: value-or-Status, the return type of fallible producers.

namespace nipo {

/// \brief Holds either a successfully produced T or an error Status.
///
/// Usage:
/// \code
///   Result<Table> r = LoadTable(path);
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).ValueOrDie();
/// \endcode
template <typename T>
class Result {
 public:
  /// Constructs a success result (implicit so `return value;` works).
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs an error result from a non-OK status. Constructing from an
  /// OK status is a programming error and degrades to kInternal.
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    if (std::get<Status>(state_).ok()) {
      state_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// The error status; OK if this result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(state_);
  }

  /// Value accessors. Precondition: ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return std::get<T>(state_);
  }
  T& ValueOrDie() & {
    assert(ok());
    return std::get<T>(state_);
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::get<T>(std::move(state_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<Status, T> state_;
};

}  // namespace nipo

/// Assigns the value of a Result expression to `lhs`, propagating errors.
#define NIPO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).ValueOrDie()

#define NIPO_ASSIGN_OR_RETURN(lhs, rexpr) \
  NIPO_ASSIGN_OR_RETURN_IMPL(             \
      NIPO_CONCAT_(_nipo_result_, __LINE__), lhs, rexpr)

#define NIPO_CONCAT_INNER_(a, b) a##b
#define NIPO_CONCAT_(a, b) NIPO_CONCAT_INNER_(a, b)
