#pragma once

#include <cstdint>
#include <string>

/// \file date.h
/// Calendar date to day-number conversion.
///
/// The paper (Section 2.1) converts the TPC-H shipdate column from a date
/// string to an integer timestamp so the predicate becomes a cheap integer
/// comparison; this module provides that conversion. Dates are represented
/// as days since the civil epoch 1970-01-01 (negative for earlier dates),
/// using Howard Hinnant's proleptic-Gregorian algorithms.

namespace nipo {

/// Days since 1970-01-01 (may be negative).
using DayNumber = int32_t;

/// \brief A Gregorian calendar date.
struct Date {
  int32_t year = 1970;
  int32_t month = 1;  ///< 1..12
  int32_t day = 1;    ///< 1..31

  bool operator==(const Date&) const = default;
};

/// \brief Converts a calendar date to days since 1970-01-01.
/// Valid for the whole proleptic Gregorian calendar range used here.
DayNumber DateToDayNumber(const Date& date);

/// \brief Formats as "YYYY-MM-DD".
std::string FormatDate(const Date& date);

/// TPC-H date domain: orders/lineitem dates fall in [1992-01-01,
/// 1998-12-31] (shipdate extends ~4 months beyond orderdate's end but we
/// clamp generation inside the canonical window).
DayNumber TpchStartDay();
DayNumber TpchEndDay();

}  // namespace nipo
