#include "io/sweep_io.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/threshold.h"
#include "io/json_export.h"
#include "io/metrics_export.h"
#include "util/json_reader.h"
#include "util/string_util.h"

namespace regcluster {
namespace io {
namespace {

using util::Status;
using util::StatusOr;

// One sweep axis: which option it overrides plus its expanded values.
enum class Axis { kGamma, kEps, kMinG, kMinC };

StatusOr<Axis> ParseAxisName(std::string_view name) {
  if (name == "gamma") return Axis::kGamma;
  if (name == "eps" || name == "epsilon") return Axis::kEps;
  if (name == "ming") return Axis::kMinG;
  if (name == "minc") return Axis::kMinC;
  return Status::InvalidArgument(util::StrFormat(
      "unknown sweep axis '%.*s' (want gamma|eps|ming|minc)",
      static_cast<int>(name.size()), name.data()));
}

bool IsIntAxis(Axis axis) { return axis == Axis::kMinG || axis == Axis::kMinC; }

Status ApplyAxis(Axis axis, double value, core::MinerOptions* opts) {
  if (IsIntAxis(axis)) {
    const double rounded = std::round(value);
    if (std::abs(value - rounded) > 1e-9) {
      return Status::InvalidArgument(util::StrFormat(
          "%s must be an integer, got %g",
          axis == Axis::kMinG ? "ming" : "minc", value));
    }
    if (axis == Axis::kMinG) {
      opts->min_genes = static_cast<int>(rounded);
    } else {
      opts->min_conditions = static_cast<int>(rounded);
    }
    return Status::OK();
  }
  if (axis == Axis::kGamma) {
    opts->gamma = value;
  } else {
    opts->epsilon = value;
  }
  return Status::OK();
}

/// Expands "lo:hi:step" / "v;v;v" / "v" into a value list.
// ParseDouble follows matrix-cell semantics where ""/NA mean "missing" and
// come back as NaN with an OK status; a sweep axis has no missing values, so
// anything non-finite is a spec error.
StatusOr<double> ParseAxisNumber(std::string_view axis_name,
                                 std::string_view text) {
  StatusOr<double> v = util::ParseDouble(text);
  if (!v.ok()) return v;
  if (!std::isfinite(*v)) {
    return Status::InvalidArgument(util::StrFormat(
        "sweep axis %.*s: '%.*s' is not a number",
        static_cast<int>(axis_name.size()), axis_name.data(),
        static_cast<int>(text.size()), text.data()));
  }
  return v;
}

StatusOr<std::vector<double>> ExpandValues(std::string_view axis_name,
                                           std::string_view text) {
  std::vector<double> values;
  const std::vector<std::string> range_parts =
      util::Split(std::string(text), ':');
  if (range_parts.size() == 3) {
    StatusOr<double> lo = ParseAxisNumber(axis_name, util::Trim(range_parts[0]));
    StatusOr<double> hi = ParseAxisNumber(axis_name, util::Trim(range_parts[1]));
    StatusOr<double> step =
        ParseAxisNumber(axis_name, util::Trim(range_parts[2]));
    if (!lo.ok()) return lo.status();
    if (!hi.ok()) return hi.status();
    if (!step.ok()) return step.status();
    if (*step <= 0) {
      return Status::InvalidArgument(
          util::StrFormat("sweep axis %.*s: step must be > 0",
                          static_cast<int>(axis_name.size()),
                          axis_name.data()));
    }
    if (*hi < *lo) {
      return Status::InvalidArgument(
          util::StrFormat("sweep axis %.*s: range is descending",
                          static_cast<int>(axis_name.size()),
                          axis_name.data()));
    }
    // Inclusive endpoints with an epsilon so 0.1:0.5:0.1 hits 0.5 despite
    // binary rounding.
    const int count = static_cast<int>(std::floor((*hi - *lo) / *step + 1e-9));
    for (int k = 0; k <= count; ++k) values.push_back(*lo + k * *step);
    return values;
  }
  if (range_parts.size() != 1) {
    return Status::InvalidArgument(util::StrFormat(
        "sweep axis %.*s: want lo:hi:step or v;v;...",
        static_cast<int>(axis_name.size()), axis_name.data()));
  }
  for (const std::string& item : util::Split(std::string(text), ';')) {
    StatusOr<double> v = ParseAxisNumber(axis_name, util::Trim(item));
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return values;
}

StatusOr<std::vector<core::MinerOptions>> ParseAxesSpec(
    std::string_view spec, const core::MinerOptions& base) {
  std::vector<std::pair<Axis, std::vector<double>>> axes;
  for (const std::string& field : util::Split(std::string(spec), ',')) {
    const std::string_view trimmed = util::Trim(field);
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(util::StrFormat(
          "sweep spec field '%.*s' has no '='",
          static_cast<int>(trimmed.size()), trimmed.data()));
    }
    const std::string_view name = util::Trim(trimmed.substr(0, eq));
    StatusOr<Axis> axis = ParseAxisName(name);
    if (!axis.ok()) return axis.status();
    for (const auto& [prev, unused] : axes) {
      if (prev == *axis) {
        return Status::InvalidArgument(util::StrFormat(
            "sweep axis '%.*s' listed twice", static_cast<int>(name.size()),
            name.data()));
      }
    }
    StatusOr<std::vector<double>> values =
        ExpandValues(name, util::Trim(trimmed.substr(eq + 1)));
    if (!values.ok()) return values.status();
    if (values->empty()) {
      return Status::InvalidArgument(util::StrFormat(
          "sweep axis '%.*s' has no values", static_cast<int>(name.size()),
          name.data()));
    }
    axes.emplace_back(*axis, std::move(*values));
  }
  if (axes.empty()) {
    return Status::InvalidArgument("empty sweep spec");
  }

  // Cross product, later axes varying fastest.
  std::vector<core::MinerOptions> points(1, base);
  for (const auto& [axis, values] : axes) {
    std::vector<core::MinerOptions> next;
    next.reserve(points.size() * values.size());
    for (const core::MinerOptions& p : points) {
      for (double v : values) {
        core::MinerOptions q = p;
        if (Status s = ApplyAxis(axis, v, &q); !s.ok()) return s;
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  return points;
}

// A JSON list of point objects, each overriding axes with numbers, e.g.
// [{"gamma": 0.1, "minc": 5}, {"gamma": 0.2}].
StatusOr<std::vector<core::MinerOptions>> ParseJsonSpec(
    std::string_view text, const core::MinerOptions& base) {
  StatusOr<util::JsonValue> list = util::ParseJson(text);
  if (!list.ok()) {
    return Status::InvalidArgument("sweep JSON: " + list.status().message());
  }
  if (list->kind != util::JsonValue::Kind::kArray) {
    return Status::InvalidArgument("sweep JSON: expected a list of points");
  }
  if (list->elements.empty()) {
    return Status::InvalidArgument("sweep JSON list is empty");
  }
  std::vector<core::MinerOptions> points;
  for (const util::JsonValue& object : list->elements) {
    if (!object.is_object()) {
      return Status::InvalidArgument("sweep JSON: each point is an object");
    }
    core::MinerOptions point = base;
    for (const auto& [key, value] : object.members) {
      if (!value.is_number()) {
        return Status::InvalidArgument("sweep JSON: " + key +
                                       " must be a number");
      }
      StatusOr<Axis> axis = ParseAxisName(key);
      if (!axis.ok()) return axis.status();
      REGCLUSTER_RETURN_IF_ERROR(ApplyAxis(*axis, value.number_value, &point));
    }
    points.push_back(std::move(point));
  }
  return points;
}

const char* MineStatusName(core::MineStatus status) {
  return status == core::MineStatus::kTruncated ? "truncated" : "complete";
}

}  // namespace

StatusOr<std::vector<core::MinerOptions>> ParseSweepSpec(
    const std::string& spec, const core::MinerOptions& base) {
  const std::string_view trimmed = util::Trim(spec);
  if (trimmed.empty()) return Status::InvalidArgument("empty sweep spec");
  if (trimmed.front() == '[') return ParseJsonSpec(trimmed, base);
  return ParseAxesSpec(trimmed, base);
}

Status WriteSweepJson(const core::SweepReport& report, std::ostream& out) {
  out << "{\n  \"sweep\": {\n"
      << "    \"status\": \"" << MineStatusName(report.status)
      << "\",\n    \"stop_reason\": \""
      << util::StopReasonName(report.stop_reason)
      << "\",\n    \"runs_total\": " << report.runs.size()
      << ",\n    \"runs_executed\": " << report.runs_executed
      << ",\n    \"first_unfinished\": " << report.first_unfinished
      << ",\n    \"index_builds\": " << report.index_builds
      << ",\n    \"shared_model_bytes\": " << report.shared_model_bytes
      << ",\n    \"nodes_total\": " << report.nodes_total
      << ",\n    \"clusters_total\": " << report.clusters_total
      << ",\n    \"wall_seconds\": " << report.wall_seconds
      << "\n  },\n  \"runs\": [\n";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const core::SweepRun& run = report.runs[i];
    const core::MinerOptions& o = run.options;
    out << "    {\n      \"run\": " << i << ",\n      \"options\": {"
        << "\"gamma\": " << o.gamma << ", \"gamma_policy\": \""
        << core::GammaPolicyName(o.gamma_policy)
        << "\", \"epsilon\": " << o.epsilon
        << ", \"min_genes\": " << o.min_genes
        << ", \"min_conditions\": " << o.min_conditions << "},\n"
        << "      \"executed\": " << (run.executed ? "true" : "false")
        << ",\n      \"shared_model\": "
        << (run.used_shared_model ? "true" : "false");
    if (!run.status.ok()) {
      out << ",\n      \"error\": \"" << JsonEscape(run.status.ToString())
          << "\"";
    }
    if (run.executed) {
      out << ",\n      \"outcome\": {\"status\": \""
          << MineStatusName(run.outcome.status) << "\", \"stop_reason\": \""
          << util::StopReasonName(run.outcome.stop_reason)
          << "\", \"wall_seconds\": " << run.outcome.wall_seconds << "},\n"
          << "      \"stats\": {\"nodes_expanded\": "
          << run.stats.nodes_expanded
          << ", \"extensions_tested\": " << run.stats.extensions_tested
          << ", \"clusters_emitted\": " << run.stats.clusters_emitted
          << ", \"mine_seconds\": " << run.stats.mine_seconds << "},\n"
          << "      \"num_clusters\": " << run.clusters.size()
          << ",\n      \"clusters\": [";
      for (size_t c = 0; c < run.clusters.size(); ++c) {
        const core::RegCluster& cluster = run.clusters[c];
        out << (c > 0 ? ",\n        " : "\n        ") << "{\"chain\": ";
        WriteIntArray(out, cluster.chain);
        out << ", \"p_genes\": ";
        WriteIntArray(out, cluster.p_genes);
        out << ", \"n_genes\": ";
        WriteIntArray(out, cluster.n_genes);
        out << "}";
      }
      out << (run.clusters.empty() ? "]" : "\n      ]");
    }
    out << "\n    }" << (i + 1 < report.runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status WriteSweepCsv(const core::SweepReport& report, std::ostream& out) {
  out << "run,gamma,gamma_policy,epsilon,min_genes,min_conditions,executed,"
         "shared_model,status,stop_reason,clusters,nodes_expanded,"
         "extensions_tested,mine_seconds,wall_seconds\n";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const core::SweepRun& run = report.runs[i];
    const core::MinerOptions& o = run.options;
    const char* status = "skipped";
    if (run.executed) {
      status = MineStatusName(run.outcome.status);
    } else if (!run.status.ok()) {
      status = "error";
    }
    out << i << ',' << o.gamma << ',' << core::GammaPolicyName(o.gamma_policy)
        << ',' << o.epsilon << ',' << o.min_genes << ',' << o.min_conditions
        << ',' << (run.executed ? 1 : 0) << ','
        << (run.used_shared_model ? 1 : 0) << ',' << status << ','
        << util::StopReasonName(run.executed ? run.outcome.stop_reason
                                             : util::StopReason::kNone)
        << ',' << run.clusters.size() << ',' << run.stats.nodes_expanded
        << ',' << run.stats.extensions_tested << ',' << run.stats.mine_seconds
        << ',' << run.outcome.wall_seconds << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status RegisterSweepMetrics(const core::SweepReport& report,
                            obs::MetricsRegistry* registry,
                            const CheckpointStats* checkpoint) {
  struct CounterSpec {
    const char* name;
    const char* help;
    int64_t value;
  };
  const CounterSpec counters[] = {
      {"regcluster_sweep_runs_total", "Grid points in the sweep",
       static_cast<int64_t>(report.runs.size())},
      {"regcluster_sweep_runs_executed", "Runs with output in the report",
       report.runs_executed},
      {"regcluster_sweep_index_builds",
       "Distinct gamma groups the engine built a shared model for",
       report.index_builds},
      {"regcluster_sweep_shared_model_bytes",
       "Heap bytes of the engine-built shared models",
       report.shared_model_bytes},
      {"regcluster_sweep_nodes_total",
       "Deterministic DFS nodes over executed runs", report.nodes_total},
      {"regcluster_sweep_clusters_total",
       "Deterministic emissions over executed runs", report.clusters_total},
      {"regcluster_sweep_truncated",
       "1 when a sweep-level budget/deadline/cancel cut the sweep",
       report.status == core::MineStatus::kTruncated ? 1 : 0},
  };
  for (const CounterSpec& spec : counters) {
    StatusOr<obs::Counter*> counter =
        registry->AddCounter(spec.name, spec.help);
    if (!counter.ok()) return counter.status();
    (*counter)->Add(spec.value);
  }
  StatusOr<obs::Gauge*> wall = registry->AddGauge(
      "regcluster_sweep_wall_seconds", "Wall clock of the whole sweep");
  if (!wall.ok()) return wall.status();
  (*wall)->Set(report.wall_seconds);
  return RegisterCheckpointMetrics(checkpoint, registry);
}

}  // namespace io
}  // namespace regcluster
