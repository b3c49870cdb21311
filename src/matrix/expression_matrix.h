// Dense gene-expression matrix: genes (rows) x conditions (columns).
//
// The matrix is the single input type of every miner in this library.  Rows
// and columns carry human-readable labels (gene / condition names); all
// algorithms address them by dense integer index.  Values are doubles;
// missing values are quiet NaN and are imputed (or rejected) explicitly by
// the caller -- see transforms.h.
//
// ExpressionMatrix is the mutable, heap-owned implementation of the
// MatrixStore view (store.h); mmap-backed matrices (MappedMatrix) present
// the same read interface without owning their payload.

#ifndef REGCLUSTER_MATRIX_EXPRESSION_MATRIX_H_
#define REGCLUSTER_MATRIX_EXPRESSION_MATRIX_H_

#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "matrix/store.h"
#include "util/status.h"

namespace regcluster {
namespace matrix {

/// Dense row-major matrix of expression levels with named rows and columns.
class ExpressionMatrix : public MatrixStore {
 public:
  /// Creates an empty matrix (0 x 0).
  ExpressionMatrix() = default;

  /// Creates a rows x cols matrix filled with `fill`, with auto-generated
  /// labels ("g0", "g1", ... / "c0", "c1", ...).
  ExpressionMatrix(int rows, int cols, double fill = 0.0);

  // The base caches a raw pointer into data_, so every copy/move rebinds it
  // to the destination's own storage.
  ExpressionMatrix(const ExpressionMatrix& other)
      : MatrixStore(other), data_(other.data_) {
    values_ = data_.data();
  }
  ExpressionMatrix(ExpressionMatrix&& other) noexcept
      : MatrixStore(std::move(other)), data_(std::move(other.data_)) {
    values_ = data_.data();
    other.values_ = other.data_.data();
  }
  ExpressionMatrix& operator=(const ExpressionMatrix& other) {
    MatrixStore::operator=(other);
    data_ = other.data_;
    values_ = data_.data();
    return *this;
  }
  ExpressionMatrix& operator=(ExpressionMatrix&& other) noexcept {
    MatrixStore::operator=(std::move(other));
    data_ = std::move(other.data_);
    values_ = data_.data();
    other.values_ = other.data_.data();
    return *this;
  }

  /// Builds a matrix from explicit row data.  Every row must have the same
  /// length.  Labels are auto-generated.
  static util::StatusOr<ExpressionMatrix> FromRows(
      const std::vector<std::vector<double>>& rows);

  /// Adopts `values` (row-major, rows x cols) and the label lists without
  /// copying them.  An empty label list gets auto-generated labels.
  /// InvalidArgument when a size disagrees with the shape.
  static util::StatusOr<ExpressionMatrix> FromValues(
      int rows, int cols, std::vector<double> values,
      std::vector<std::string> gene_names = {},
      std::vector<std::string> condition_names = {});

  /// Element access (unchecked in release builds).  The const overload
  /// comes from MatrixStore.
  using MatrixStore::operator();
  double& operator()(int gene, int cond) {
    assert(gene >= 0 && gene < rows_ && cond >= 0 && cond < cols_);
    return data_[static_cast<size_t>(gene) * cols_ + cond];
  }

  /// Returns the submatrix restricted to the given genes and conditions (in
  /// the given orders), carrying labels along.
  ExpressionMatrix Submatrix(const std::vector<int>& genes,
                             const std::vector<int>& conds) const;

  /// Appends conditions (columns) at the end of the matrix: columns[k] is
  /// the new column k, one value per gene, and names[k] its label.  The
  /// gene-major payload is re-laid out at the new stride in place.  Fails
  /// (InvalidArgument) on a name/column count mismatch or a column whose
  /// length is not num_genes(); the matrix is unchanged on failure.
  util::Status AppendConditions(const std::vector<std::string>& names,
                                const std::vector<std::vector<double>>& columns);

  int64_t resident_bytes() const override;

 private:
  std::vector<double> data_;
};

}  // namespace matrix
}  // namespace regcluster

#endif  // REGCLUSTER_MATRIX_EXPRESSION_MATRIX_H_
