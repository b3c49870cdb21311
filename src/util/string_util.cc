#include "util/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace regcluster {
namespace util {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {

/// ' ', '\t', '\n', '\v', '\f' and '\r'.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A rejected field as an error message quotes it: at most kMaxQuoted
/// bytes, each non-printable byte as \xHH, then "..." when cut.  A binary
/// file fed to the text reader must not put raw bytes on a terminal.
std::string QuoteField(std::string_view field) {
  constexpr size_t kMaxQuoted = 32;
  std::string out = "'";
  for (const unsigned char c : field.substr(0, kMaxQuoted)) {
    out += c >= 0x20 && c < 0x7f ? std::string(1, static_cast<char>(c))
                                 : StrFormat("\\x%02x", c);
  }
  return out + (field.size() > kMaxQuoted ? "'..." : "'");
}

}  // namespace

std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsAsciiSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsAsciiSpace(s.back())) s.remove_suffix(1);
  return s;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

StatusOr<double> ParseDouble(std::string_view s) {
  const std::string_view t = Trim(s);
  if (t.empty() || t == "NA" || t == "NaN" || t == "nan" || t == "?") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const char* first = t.data();
  const char* const last = t.data() + t.size();
  // One leading '+' is accepted (from_chars takes only '-'); a sign after it
  // ("+-1", "++1") is not.
  if (*first == '+') {
    ++first;
    if (first != last && *first == '-') first = t.data();
  }
  double v = 0.0;
  const std::from_chars_result r =
      std::from_chars(first, last, v, std::chars_format::general);
  if (r.ptr != last || r.ec == std::errc::invalid_argument) {
    return Status::InvalidArgument("not a number: " + QuoteField(t));
  }
  // Overflow, underflow to zero and subnormal results are one verdict, the
  // one strtod's ERANGE gives: the value is not representable at full
  // precision.
  if (r.ec == std::errc::result_out_of_range ||
      (v != 0.0 && std::fabs(v) < std::numeric_limits<double>::min())) {
    return Status::OutOfRange("number out of range: " + QuoteField(t));
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("not a finite number: " + QuoteField(t));
  }
  return v;
}

StatusOr<int64_t> ParseInt(std::string_view s) {
  const std::string_view t = Trim(s);
  if (t.empty()) return Status::InvalidArgument("empty integer field");
  const std::string buf(t);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end == buf.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace util
}  // namespace regcluster
