#include "server/request.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/threshold.h"
#include "util/string_util.h"

namespace regcluster {
namespace server {
namespace {

using util::Status;
using util::StatusOr;

Status FieldError(std::string_view field, std::string_view what) {
  return Status::InvalidArgument(util::StrFormat(
      "field '%.*s' %.*s", static_cast<int>(field.size()), field.data(),
      static_cast<int>(what.size()), what.data()));
}

Status ReadString(const JsonValue& v, std::string_view field,
                  std::string* out) {
  if (!v.is_string()) return FieldError(field, "must be a string");
  *out = v.string_value;
  return Status::OK();
}

Status ReadBool(const JsonValue& v, std::string_view field, bool* out) {
  if (!v.is_bool()) return FieldError(field, "must be a boolean");
  *out = v.bool_value;
  return Status::OK();
}

Status ReadDouble(const JsonValue& v, std::string_view field, double* out) {
  if (!v.is_number()) return FieldError(field, "must be a number");
  *out = v.number_value;
  return Status::OK();
}

Status ReadInt64(const JsonValue& v, std::string_view field, int64_t* out) {
  if (!v.is_number()) return FieldError(field, "must be a number");
  const double d = v.number_value;
  if (d != std::floor(d) || d < -9007199254740992.0 ||
      d > 9007199254740992.0) {
    return FieldError(field, "must be an integer");
  }
  *out = static_cast<int64_t>(d);
  return Status::OK();
}

Status ReadInt(const JsonValue& v, std::string_view field, int* out) {
  int64_t wide = 0;
  if (Status s = ReadInt64(v, field, &wide); !s.ok()) return s;
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return FieldError(field, "out of range");
  }
  *out = static_cast<int>(wide);
  return Status::OK();
}

StatusOr<MineRequest> ParseCommon(const JsonValue& body,
                                  const core::MinerOptions& defaults,
                                  bool sweep) {
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  MineRequest req;
  req.options = defaults;
  for (const auto& [key, value] : body.members) {
    Status s = Status::OK();
    if (key == "matrix") {
      s = ReadString(value, key, &req.matrix_path);
    } else if (key == "ming") {
      s = ReadInt(value, key, &req.options.min_genes);
    } else if (key == "minc") {
      s = ReadInt(value, key, &req.options.min_conditions);
    } else if (key == "gamma") {
      s = ReadDouble(value, key, &req.options.gamma);
    } else if (key == "gamma_policy") {
      std::string name;
      s = ReadString(value, key, &name);
      if (s.ok() &&
          !core::ParseGammaPolicy(name, &req.options.gamma_policy)) {
        s = FieldError(key, "names no gamma policy");
      }
    } else if (key == "epsilon") {
      s = ReadDouble(value, key, &req.options.epsilon);
    } else if (key == "remove_dominated") {
      s = ReadBool(value, key, &req.options.remove_dominated);
    } else if (key == "max_nodes") {
      s = ReadInt64(value, key, &req.options.max_nodes);
    } else if (key == "max_clusters") {
      s = ReadInt64(value, key, &req.options.max_clusters);
    } else if (key == "deadline_ms") {
      s = ReadDouble(value, key, &req.options.deadline_ms);
    } else if (key == "collect_stats") {
      bool ignored = false;  // every counter is always collected
      s = ReadBool(value, key, &ignored);
    } else if (key == "deterministic_output") {
      s = ReadBool(value, key, &req.deterministic_output);
    } else if (key == "spec" && sweep) {
      s = ReadString(value, key, &req.sweep_spec);
    } else {
      s = FieldError(key, "is not a recognized request field");
    }
    if (!s.ok()) return s;
  }
  if (req.matrix_path.empty()) {
    return Status::InvalidArgument("request needs a non-empty \"matrix\"");
  }
  if (sweep && req.sweep_spec.empty()) {
    return Status::InvalidArgument("sweep request needs a non-empty \"spec\"");
  }
  return req;
}

}  // namespace

util::StatusOr<MineRequest> ParseMineRequest(
    const JsonValue& body, const core::MinerOptions& defaults) {
  return ParseCommon(body, defaults, /*sweep=*/false);
}

util::StatusOr<MineRequest> ParseSweepRequest(
    const JsonValue& body, const core::MinerOptions& defaults) {
  return ParseCommon(body, defaults, /*sweep=*/true);
}

util::StatusOr<AppendRequest> ParseAppendRequest(const JsonValue& body) {
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  AppendRequest req;
  bool saw_names = false, saw_columns = false;
  for (const auto& [key, value] : body.members) {
    Status s = Status::OK();
    if (key == "matrix") {
      s = ReadString(value, key, &req.matrix_path);
    } else if (key == "names") {
      saw_names = true;
      if (value.kind != JsonValue::Kind::kArray) {
        s = FieldError(key, "must be an array of strings");
      }
      for (const JsonValue& e : value.elements) {
        if (!s.ok()) break;
        std::string name;
        s = ReadString(e, key, &name);
        if (s.ok()) req.names.push_back(std::move(name));
      }
    } else if (key == "columns") {
      saw_columns = true;
      if (value.kind != JsonValue::Kind::kArray) {
        s = FieldError(key, "must be an array of number arrays");
      }
      for (const JsonValue& col : value.elements) {
        if (!s.ok()) break;
        if (col.kind != JsonValue::Kind::kArray) {
          s = FieldError(key, "must be an array of number arrays");
          break;
        }
        std::vector<double> values;
        values.reserve(col.elements.size());
        for (const JsonValue& e : col.elements) {
          double d = 0.0;
          s = ReadDouble(e, key, &d);
          if (!s.ok()) break;
          values.push_back(d);
        }
        if (s.ok()) req.columns.push_back(std::move(values));
      }
    } else {
      s = FieldError(key, "is not a recognized request field");
    }
    if (!s.ok()) return s;
  }
  if (req.matrix_path.empty()) {
    return Status::InvalidArgument("request needs a non-empty \"matrix\"");
  }
  if (!saw_names || !saw_columns) {
    return Status::InvalidArgument(
        "append request needs \"names\" and \"columns\"");
  }
  if (req.names.size() != req.columns.size()) {
    return Status::InvalidArgument(
        "\"names\" and \"columns\" must have the same length");
  }
  if (req.names.empty()) {
    return Status::InvalidArgument(
        "append request needs at least one condition");
  }
  for (const auto& col : req.columns) {
    if (col.size() != req.columns.front().size()) {
      return Status::InvalidArgument(
          "all appended columns must have the same length");
    }
  }
  return req;
}

}  // namespace server
}  // namespace regcluster
