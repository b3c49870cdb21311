#include "matrix/expression_matrix.h"

#include <cstring>

#include "util/string_util.h"

namespace regcluster {
namespace matrix {
namespace {

std::vector<std::string> DefaultNames(const char* prefix, int n) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    names.push_back(util::StrFormat("%s%d", prefix, i));
  }
  return names;
}

}  // namespace

ExpressionMatrix::ExpressionMatrix(int rows, int cols, double fill)
    : data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
  assert(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  values_ = data_.data();
  gene_names_ = DefaultNames("g", rows);
  condition_names_ = DefaultNames("c", cols);
}

util::StatusOr<ExpressionMatrix> ExpressionMatrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  const int r = static_cast<int>(rows.size());
  const int c = rows.empty() ? 0 : static_cast<int>(rows[0].size());
  for (const auto& row : rows) {
    if (static_cast<int>(row.size()) != c) {
      return util::Status::InvalidArgument("ragged row data");
    }
  }
  ExpressionMatrix m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = rows[static_cast<size_t>(i)][static_cast<size_t>(j)];
  }
  return m;
}

util::StatusOr<ExpressionMatrix> ExpressionMatrix::FromValues(
    int rows, int cols, std::vector<double> values,
    std::vector<std::string> gene_names,
    std::vector<std::string> condition_names) {
  if (rows < 0 || cols < 0 ||
      values.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    return util::Status::InvalidArgument("value count does not match shape");
  }
  ExpressionMatrix m;
  m.data_ = std::move(values);
  m.values_ = m.data_.data();
  m.rows_ = rows;
  m.cols_ = cols;
  m.gene_names_ = gene_names.empty() ? DefaultNames("g", rows)
                                     : std::move(gene_names);
  m.condition_names_ = condition_names.empty() ? DefaultNames("c", cols)
                                               : std::move(condition_names);
  if (static_cast<int>(m.gene_names_.size()) != rows ||
      static_cast<int>(m.condition_names_.size()) != cols) {
    return util::Status::InvalidArgument("label count does not match shape");
  }
  return m;
}

ExpressionMatrix ExpressionMatrix::Submatrix(
    const std::vector<int>& genes, const std::vector<int>& conds) const {
  ExpressionMatrix out(static_cast<int>(genes.size()),
                       static_cast<int>(conds.size()));
  std::vector<std::string> gnames, cnames;
  gnames.reserve(genes.size());
  cnames.reserve(conds.size());
  for (size_t i = 0; i < genes.size(); ++i) {
    gnames.push_back(gene_name(genes[i]));
    for (size_t j = 0; j < conds.size(); ++j) {
      out(static_cast<int>(i), static_cast<int>(j)) =
          (*this)(genes[i], conds[j]);
    }
  }
  for (int c : conds) cnames.push_back(condition_name(c));
  // Sizes match by construction.
  (void)out.SetGeneNames(std::move(gnames));
  (void)out.SetConditionNames(std::move(cnames));
  return out;
}

util::Status ExpressionMatrix::AppendConditions(
    const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& columns) {
  if (names.size() != columns.size()) {
    return util::Status::InvalidArgument(
        "appended condition names and columns must pair up");
  }
  for (const auto& col : columns) {
    if (static_cast<int>(col.size()) != rows_) {
      return util::Status::InvalidArgument(
          "appended column length must equal num_genes()");
    }
  }
  const int added = static_cast<int>(columns.size());
  if (added == 0) return util::Status::OK();
  const int new_cols = cols_ + added;
  // Re-layout at the wider stride, back to front so each gene's old profile
  // is read before anything overwrites it.
  data_.resize(static_cast<size_t>(rows_) * static_cast<size_t>(new_cols));
  for (int g = rows_ - 1; g >= 0; --g) {
    double* dst = data_.data() + static_cast<size_t>(g) * new_cols;
    const double* src = data_.data() + static_cast<size_t>(g) * cols_;
    std::memmove(dst, src, static_cast<size_t>(cols_) * sizeof(double));
    for (int k = 0; k < added; ++k) {
      dst[cols_ + k] = columns[static_cast<size_t>(k)][static_cast<size_t>(g)];
    }
  }
  condition_names_.insert(condition_names_.end(), names.begin(), names.end());
  cols_ = new_cols;
  values_ = data_.data();
  return util::Status::OK();
}

int64_t ExpressionMatrix::resident_bytes() const {
  return MatrixStore::resident_bytes() +
         static_cast<int64_t>(data_.capacity() * sizeof(double));
}

}  // namespace matrix
}  // namespace regcluster
