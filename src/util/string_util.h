// Small string helpers used by the TSV/CSV readers and output formatters.

#ifndef REGCLUSTER_UTIL_STRING_UTIL_H_
#define REGCLUSTER_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace regcluster {
namespace util {

/// Splits `s` on `delim`, keeping empty fields.  "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses one text cell as a double, without allocating on success.  The
/// grammar (also the text matrix reader's, see matrix/matrix_io.h):
///   * leading and trailing ASCII whitespace is trimmed;
///   * "", "NA", "NaN", "nan" and "?" are missing values: quiet NaN, OK;
///   * one leading '+' is allowed; the rest must be a decimal number in
///     std::from_chars general format, consumed to the end of the field;
///   * "inf", "infinity", any other NaN spelling and "nan(...)" are
///     InvalidArgument ("not a finite number"); hex floats and anything
///     else that is not a whole decimal are InvalidArgument ("not a
///     number");
///   * overflow (1e309), underflow to zero (1e-400) and subnormal results
///     (1e-310) are OutOfRange.
/// Every accepted value has the bits strtod gives the same text.  The
/// verdicts agree too, except that a decimal just below DBL_MIN which
/// rounds up to it is accepted (strtod flags ERANGE before rounding).
StatusOr<double> ParseDouble(std::string_view s);

/// Parses a non-negative integer.
StatusOr<int64_t> ParseInt(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_STRING_UTIL_H_
