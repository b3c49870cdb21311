#include "matrix/matrix_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "util/string_util.h"

namespace regcluster {
namespace matrix {

namespace {

/// Bytes requested from the stream per read.  A line longer than the block
/// grows the buffer to hold it; the buffer never holds more than one block
/// plus the unfinished line carried over from the previous one.
constexpr size_t kReadBlockBytes = size_t{64} << 10;

/// Calls `on_line(line, line_no)` for every line of `in` -- '\n'-terminated
/// lines plus a final unterminated one, exactly the lines std::getline
/// yields -- with 1-based line numbers, stopping at the first non-OK status.
/// `*lines` receives the number of lines read.  Lines are views into a
/// reused block: a caller keeping any part of one must copy it.
template <typename OnLine>
util::Status ForEachLine(std::istream& in, int* lines, OnLine&& on_line) {
  std::vector<char> buf(kReadBlockBytes);
  size_t held = 0;  // bytes of an unfinished line at the front of buf
  int line_no = 0;
  bool more = true;
  while (more) {
    if (held == buf.size()) buf.resize(2 * buf.size());
    in.read(buf.data() + held, static_cast<std::streamsize>(buf.size() - held));
    const size_t got = static_cast<size_t>(in.gcount());
    more = got == buf.size() - held;
    const char* const end = buf.data() + held + got;
    const char* line = buf.data();
    while (const char* nl = static_cast<const char*>(
               std::memchr(line, '\n', static_cast<size_t>(end - line)))) {
      REGCLUSTER_RETURN_IF_ERROR(on_line(
          std::string_view(line, static_cast<size_t>(nl - line)), ++line_no));
      line = nl + 1;
    }
    held = static_cast<size_t>(end - line);
    if (!more && held > 0) {
      REGCLUSTER_RETURN_IF_ERROR(on_line(std::string_view(line, held),
                                         ++line_no));
    }
    std::memmove(buf.data(), line, held);
  }
  *lines = line_no;
  return util::Status::OK();
}

/// Calls `on_field(field, index)` for each `delim`-separated field of
/// `line`, empty fields included ("a,,b" has three), until it returns
/// false.
template <typename OnField>
void ForEachField(std::string_view line, char delim, OnField&& on_field) {
  for (int index = 0;; ++index) {
    const size_t pos = line.find(delim);
    if (!on_field(line.substr(0, pos), index)) return;
    if (pos == std::string_view::npos) return;
    line.remove_prefix(pos + 1);
  }
}

}  // namespace

util::StatusOr<ExpressionMatrix> ReadMatrix(std::istream& in,
                                            const TextFormat& format) {
  if (format.skip_annotation_columns < 0 || format.skip_leading_rows < 0) {
    return util::Status::InvalidArgument("negative skip counts");
  }
  const char delim = format.delimiter;
  std::vector<std::string> condition_names;
  std::vector<std::string> gene_names;
  std::vector<int> gene_lines;  // gene_names[i] was read on gene_lines[i]
  // Duplicate-label check: a set of indices into gene_names, hashed and
  // compared through the owned strings, so it holds no view into the
  // reused read block.
  const auto label_hash = [&gene_names](int i) {
    return std::hash<std::string_view>()(gene_names[static_cast<size_t>(i)]);
  };
  const auto label_eq = [&gene_names](int a, int b) {
    return gene_names[static_cast<size_t>(a)] ==
           gene_names[static_cast<size_t>(b)];
  };
  std::unordered_set<int, decltype(label_hash), decltype(label_eq)> labels(
      16, label_hash, label_eq);
  std::vector<double> values;
  int rows = 0;
  bool header_pending = format.has_header;
  int rows_to_skip = format.skip_leading_rows;
  int expected_fields = -1;
  int header_line = 0;

  const auto parse_line = [&](std::string_view line,
                              int line_no) -> util::Status {
    // Trailing carriage returns end the line: a last field never keeps one,
    // so every label WriteMatrix writes reads back unchanged.
    while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') return util::Status::OK();

    const int num_fields =
        1 + static_cast<int>(std::count(line.begin(), line.end(), delim));
    if (header_pending) {
      header_pending = false;
      header_line = line_no;
      const int first = (format.has_gene_names ? 1 : 0) +
                        format.skip_annotation_columns;
      if (num_fields < first) {
        return util::Status::Corruption(
            util::StrFormat("line %d: header narrower than the skipped "
                            "annotation columns", line_no));
      }
      condition_names.reserve(static_cast<size_t>(num_fields - first));
      ForEachField(line, delim, [&](std::string_view f, int i) {
        if (i >= first) condition_names.emplace_back(f);
        return true;
      });
      return util::Status::OK();
    }
    if (rows_to_skip > 0) {
      --rows_to_skip;
      return util::Status::OK();
    }

    if (expected_fields < 0) {
      expected_fields = num_fields;
    } else if (num_fields != expected_fields) {
      return util::Status::Corruption(
          util::StrFormat("line %d: expected %d fields, got %d", line_no,
                          expected_fields, num_fields));
    }

    int first = 0;
    if (format.has_gene_names) {
      gene_names.emplace_back(line.substr(0, line.find(delim)));
      gene_lines.push_back(line_no);
      const auto [it, inserted] =
          labels.insert(static_cast<int>(gene_names.size()) - 1);
      if (!inserted) {
        return util::Status::Corruption(util::StrFormat(
            "line %d, column 1: duplicate gene label \"%s\" (first seen on "
            "line %d)",
            line_no, gene_names.back().c_str(),
            gene_lines[static_cast<size_t>(*it)]));
      }
      first = 1;
    }
    first += format.skip_annotation_columns;
    if (num_fields < first) {
      return util::Status::Corruption(util::StrFormat(
          "line %d: row narrower than the skipped annotation columns",
          line_no));
    }
    ++rows;
    util::Status cell_error;
    ForEachField(line, delim, [&](std::string_view f, int i) {
      if (i < first) return true;
      const util::StatusOr<double> v = util::ParseDouble(f);
      if (!v.ok()) {
        // 1-based column over *all* fields of the line (including any gene
        // label / annotation columns), matching what an editor shows.
        cell_error = util::Status::Corruption(
            util::StrFormat("line %d, column %d: %s", line_no, i + 1,
                            v.status().message().c_str()));
        return false;
      }
      values.push_back(*v);
      return true;
    });
    return cell_error;
  };
  int line_count = 0;
  REGCLUSTER_RETURN_IF_ERROR(ForEachLine(in, &line_count, parse_line));

  if (rows == 0) {
    return util::Status::Corruption(util::StrFormat(
        "no data rows in %d line(s) of input: the matrix is empty",
        line_count));
  }
  const int cols = static_cast<int>(values.size()) / rows;
  if (format.has_header && static_cast<int>(condition_names.size()) != cols) {
    return util::Status::Corruption(util::StrFormat(
        "line %d: header has %d condition names but rows have %d values",
        header_line, static_cast<int>(condition_names.size()), cols));
  }
  // The cache and the memory budget charge the payload by capacity, so the
  // growth slack goes before the vector becomes the matrix's storage.
  values.shrink_to_fit();
  return ExpressionMatrix::FromValues(rows, cols, std::move(values),
                                      std::move(gene_names),
                                      std::move(condition_names));
}

util::StatusOr<ExpressionMatrix> ReadMatrixFromString(
    const std::string& text, const TextFormat& format) {
  std::istringstream in(text);
  return ReadMatrix(in, format);
}

util::StatusOr<ExpressionMatrix> LoadMatrix(const std::string& path,
                                            const TextFormat& format) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open for reading: " + path);
  return ReadMatrix(in, format);
}

util::Status WriteMatrix(const ExpressionMatrix& m, std::ostream& out,
                         const TextFormat& format) {
  const char d = format.delimiter;
  if (format.has_header) {
    if (format.has_gene_names) out << "gene";
    for (int j = 0; j < m.num_conditions(); ++j) {
      if (j > 0 || format.has_gene_names) out << d;
      out << m.condition_name(j);
    }
    out << "\n";
  }
  for (int i = 0; i < m.num_genes(); ++i) {
    if (format.has_gene_names) out << m.gene_name(i);
    for (int j = 0; j < m.num_conditions(); ++j) {
      if (j > 0 || format.has_gene_names) out << d;
      const double v = m(i, j);
      if (std::isnan(v)) {
        out << "NA";
      } else {
        out << util::StrFormat("%.10g", v);
      }
    }
    out << "\n";
  }
  if (!out) return util::Status::IoError("stream write failed");
  return util::Status::OK();
}

util::Status SaveMatrix(const ExpressionMatrix& m, const std::string& path,
                        const TextFormat& format) {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open for writing: " + path);
  return WriteMatrix(m, out, format);
}

util::StatusOr<MatrixFormat> ResolveMatrixFormat(const std::string& path,
                                                 const std::string& name) {
  if (name == "text") return MatrixFormat::kText;
  if (name == "bin") return MatrixFormat::kBinary;
  if (name != "auto") {
    return util::Status::InvalidArgument("unknown matrix format '" + name +
                                         "' (want auto, bin or text)");
  }
  auto is_bin = IsBinaryMatrixFile(path);
  return is_bin.ok() && *is_bin ? MatrixFormat::kBinary : MatrixFormat::kText;
}

util::Status RejectInfiniteCells(const MatrixStore& data) {
  for (int g = 0; g < data.num_genes(); ++g) {
    const double* row = data.row_data(g);
    for (int c = 0; c < data.num_conditions(); ++c) {
      if (!std::isinf(row[c])) continue;
      return util::Status::FailedPrecondition(util::StrFormat(
          "matrix cell of gene '%s' at condition '%s' is %s; every "
          "expression value must be finite",
          data.gene_name(g).c_str(), data.condition_name(c).c_str(),
          row[c] > 0 ? "+inf" : "-inf"));
    }
  }
  return util::Status::OK();
}

util::StatusOr<std::shared_ptr<const MatrixStore>> OpenMatrixStore(
    const std::string& path, MatrixFormat format) {
  if (format == MatrixFormat::kAuto) {
    format = *ResolveMatrixFormat(path, "auto");
  }
  if (format == MatrixFormat::kBinary) {
    auto m = MappedMatrix::Open(path);
    if (!m.ok()) return m.status();
    REGCLUSTER_RETURN_IF_ERROR(RejectInfiniteCells(*m));
    return std::shared_ptr<const MatrixStore>(
        std::make_shared<const MappedMatrix>(*std::move(m)));
  }
  auto m = ReadMatrixFile(path, format);
  if (!m.ok()) return m.status();
  return std::shared_ptr<const MatrixStore>(
      std::make_shared<const ExpressionMatrix>(*std::move(m)));
}

util::StatusOr<ExpressionMatrix> ReadMatrixFile(const std::string& path,
                                                MatrixFormat format,
                                                const TextFormat& text) {
  if (format == MatrixFormat::kAuto) {
    format = *ResolveMatrixFormat(path, "auto");
  }
  if (format == MatrixFormat::kBinary) {
    auto m = ReadBinaryMatrix(path);
    if (m.ok()) REGCLUSTER_RETURN_IF_ERROR(RejectInfiniteCells(*m));
    return m;
  }
  auto m = LoadMatrix(path, text);
  if (!m.ok()) {
    return util::Status(m.status().code(),
                        "loading " + path + ": " + m.status().message());
  }
  return m;
}

}  // namespace matrix
}  // namespace regcluster
