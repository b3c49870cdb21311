// Machine-readable benchmark output.  Several harness binaries contribute to
// one JSON file (BENCH_miner.json): each owns a top-level section, and
// UpsertBenchSection() read-merges -- it loads the existing file, replaces
// only the caller's section, and rewrites the whole document -- so the
// harnesses can run in any order and the file always holds the latest result
// of each.
//
// The reader is a brace-matching scanner over this writer's own output (a
// flat object whose values are objects), not a general JSON parser; a file
// it cannot understand is replaced wholesale, which is the right recovery
// for a generated artifact.

#ifndef REGCLUSTER_BENCH_BENCH_JSON_H_
#define REGCLUSTER_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/json_export.h"

namespace regcluster {
namespace bench {

inline std::string JsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += io::JsonEscape(s);
  out += '"';
  return out;
}

inline std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

inline std::string JsonInt(int64_t v) { return std::to_string(v); }

inline std::string JsonBool(bool v) { return v ? "true" : "false"; }

/// Joins pre-rendered "key": value fields into an object literal.
inline std::string JsonObject(const std::vector<std::string>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    out += fields[i];
  }
  return out + "}";
}

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out + "]";
}

inline std::string JsonField(const std::string& key, const std::string& raw) {
  return JsonString(key) + ": " + raw;
}

/// One "provenance" object identifying what produced the file: the git
/// commit of the working tree, the compiler, and the flags the bench
/// binaries were compiled with (stamped by bench/CMakeLists.txt).  Every
/// harness upserts this section so a committed BENCH_miner.json can be
/// audited for comparability before being diffed (tools/bench_check.py).
inline std::string ProvenanceObject() {
  std::string sha = "unknown";
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe)) {
      sha.assign(buf);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    if (::pclose(pipe) != 0 || sha.empty()) sha = "unknown";
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef REGCLUSTER_BENCH_OPT_FLAGS
  const std::string flags = REGCLUSTER_BENCH_OPT_FLAGS;
#else
  const std::string flags = "";
#endif
#ifdef REGCLUSTER_BENCH_BUILD_TYPE
  const std::string build_type = REGCLUSTER_BENCH_BUILD_TYPE;
#else
  const std::string build_type = "";
#endif
  return JsonObject({
      JsonField("git_commit", JsonString(sha)),
      JsonField("compiler", JsonString(compiler)),
      JsonField("build_type", JsonString(build_type)),
      JsonField("cxx_flags", JsonString(flags)),
  });
}

namespace internal {

/// Splits a previously written document into (section name, raw value) pairs.
/// Returns false when the text is not in this writer's format.
inline bool ParseSections(
    const std::string& text,
    std::vector<std::pair<std::string, std::string>>* sections) {
  size_t i = text.find('{');
  if (i == std::string::npos) return false;
  ++i;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == '\r' || text[i] == '\t')) {
      ++i;
    }
  };
  skip_ws();
  while (i < text.size() && text[i] != '}') {
    if (text[i] == ',') {
      ++i;
      skip_ws();
      continue;
    }
    if (text[i] != '"') return false;
    const size_t key_start = ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') ++i;  // sections we write never need this
      ++i;
    }
    if (i >= text.size()) return false;
    const std::string key = text.substr(key_start, i - key_start);
    ++i;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= text.size() || text[i] != '{') return false;
    const size_t value_start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
    }
    if (depth != 0) return false;
    sections->emplace_back(key, text.substr(value_start, i - value_start));
    skip_ws();
  }
  return true;
}

}  // namespace internal

/// Writes `object_text` (a rendered JSON object) as the `section` entry of
/// the document at `path`, preserving every other section already there.
/// Returns false when the file could not be written.
inline bool UpsertBenchSection(const std::string& path,
                               const std::string& section,
                               const std::string& object_text) {
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::vector<std::pair<std::string, std::string>> parsed;
      if (internal::ParseSections(buf.str(), &parsed)) {
        sections = std::move(parsed);
      }
    }
  }
  bool replaced = false;
  for (auto& kv : sections) {
    if (kv.first == section) {
      kv.second = object_text;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(section, object_text);

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  " << JsonString(sections[i].first) << ": " << sections[i].second
        << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return out.good();
}

}  // namespace bench
}  // namespace regcluster

#endif  // REGCLUSTER_BENCH_BENCH_JSON_H_
