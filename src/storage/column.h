#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

/// \file column.h
/// Columnar storage. The engine is a column store (Section 2.1 of the
/// paper assumes a column-oriented layout): each attribute lives in its own
/// contiguous, densely packed array so a selection touches only the bytes
/// of the columns it evaluates.

namespace nipo {

/// Physical type of a column.
enum class DataType : int {
  kInt32,
  kInt64,
  kDouble,
};

/// \brief Human-readable type name ("int32", ...).
std::string_view DataTypeToString(DataType type);

/// \brief Width of one value of `type` in bytes.
size_t DataTypeWidth(DataType type);

template <typename T>
struct DataTypeOf;
template <>
struct DataTypeOf<int32_t> {
  static constexpr DataType value = DataType::kInt32;
};
template <>
struct DataTypeOf<int64_t> {
  static constexpr DataType value = DataType::kInt64;
};
template <>
struct DataTypeOf<double> {
  static constexpr DataType value = DataType::kDouble;
};

/// \brief Type-erased base of all columns. Owns the name and exposes the
/// type/size; typed access goes through Column<T>.
class ColumnBase {
 public:
  ColumnBase(std::string name, DataType type)
      : name_(std::move(name)), type_(type) {}
  virtual ~ColumnBase() = default;

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }

  /// Number of values in the column.
  virtual size_t size() const = 0;

  /// Address of the first value; used by the hardware simulator to derive
  /// cache-line addresses for accesses into this column.
  virtual const void* data() const = 0;

  /// Width of one value in bytes.
  size_t value_width() const { return DataTypeWidth(type_); }

 private:
  std::string name_;
  DataType type_;
};

/// \brief A densely packed, typed column.
template <typename T>
class Column : public ColumnBase {
 public:
  explicit Column(std::string name)
      : ColumnBase(std::move(name), DataTypeOf<T>::value) {}
  Column(std::string name, std::vector<T> values)
      : ColumnBase(std::move(name), DataTypeOf<T>::value),
        values_(std::move(values)) {}

  size_t size() const override { return values_.size(); }
  const void* data() const override { return values_.data(); }

  void Append(T value) { values_.push_back(value); }
  void Resize(size_t n) { values_.resize(n); }

  T operator[](size_t i) const { return values_[i]; }
  T& operator[](size_t i) { return values_[i]; }

  std::span<const T> values() const { return values_; }
  std::vector<T>& mutable_values() { return values_; }

 private:
  std::vector<T> values_;
};

/// \brief Downcasts a ColumnBase to Column<T>, checking the type.
/// Returns TypeMismatch if the physical type does not match T.
template <typename T>
Result<const Column<T>*> AsColumn(const ColumnBase* column) {
  if (column == nullptr) {
    return Status::InvalidArgument("null column");
  }
  if (column->type() != DataTypeOf<T>::value) {
    return Status::TypeMismatch(
        "column '" + column->name() + "' is " +
        std::string(DataTypeToString(column->type())));
  }
  return static_cast<const Column<T>*>(column);
}

}  // namespace nipo
