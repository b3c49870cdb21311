// Minimal JSON value reader: the one JSON parser of the code base, used for
// the mining service's request bodies and for JSON-list sweep specs
// (io::ParseSweepSpec).
//
// Both take JSON from untrusted input, so the reader covers the full JSON
// grammar -- objects, arrays, strings with escapes, numbers, booleans,
// null -- because a protocol endpoint cannot dictate the shape of hostile
// input, but it is deliberately small: a tree of owning JsonValue nodes, a recursion-depth
// cap against stack exhaustion, and InvalidArgument errors carrying the
// byte offset (mirroring the matrix_io malformed-input contract).

#ifndef REGCLUSTER_UTIL_JSON_READER_H_
#define REGCLUSTER_UTIL_JSON_READER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace regcluster {
namespace util {

/// One parsed JSON value.  A tagged struct (not std::variant) keeps
/// accessors cheap and the error paths explicit.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  /// Object members in source order (duplicate keys are a parse error).
  std::vector<std::pair<std::string, JsonValue>> members;
  std::vector<JsonValue> elements;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses `text` as exactly one JSON value (trailing bytes are an error).
/// Nesting beyond 64 levels, duplicate object keys, unpaired surrogates
/// and every grammar violation return InvalidArgument with a byte offset.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_JSON_READER_H_
