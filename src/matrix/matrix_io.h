// Reading and writing expression matrices as delimited text.
//
// The on-disk format matches the usual microarray distribution format (and
// the Church-lab yeast file the paper uses): a header line
//
//     <id-col-name> <TAB> cond1 <TAB> cond2 ...
//
// followed by one line per gene: gene name, then one value per condition.
// Lines whose first non-blank character is '#' are comments, blank lines
// are skipped, and trailing carriage returns end a line (CRLF input).
//
// Cell grammar (util::ParseDouble, one std::from_chars per cell):
//   * leading and trailing ASCII whitespace is trimmed;
//   * "", "NA", "NaN", "nan" and "?" are missing values (NaN);
//   * one leading '+' is allowed, and the rest must be a whole decimal
//     number in std::from_chars general format;
//   * "inf", "infinity", other NaN spellings and "nan(...)" are rejected
//     as non-finite; hex floats and any other text as not a number;
//     overflow (1e309), underflow to zero (1e-400) and subnormal values
//     (1e-310) as out of range.
// Every rejection is a Corruption naming the line, and for a cell the
// 1-based column over all fields of the line.  Accepted values have the
// bits strtod gives the same text.
//
// The reader reads the stream in fixed-size blocks, carrying a partial
// last line over to the next block, and parses each cell once into one
// flat vector that becomes the matrix's storage.

#ifndef REGCLUSTER_MATRIX_MATRIX_IO_H_
#define REGCLUSTER_MATRIX_MATRIX_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "matrix/expression_matrix.h"
#include "matrix/store.h"
#include "util/status.h"

namespace regcluster {
namespace matrix {

/// Options controlling delimited-text parsing.
struct TextFormat {
  /// Field delimiter ('\t' for TSV, ',' for CSV).
  char delimiter = '\t';
  /// Whether the first line is a header with condition names.
  bool has_header = true;
  /// Whether the first column holds gene names.
  bool has_gene_names = true;
  /// Annotation columns to skip between the gene name and the first value
  /// (the Church-lab yeast distribution has NAME and GWEIGHT columns).
  int skip_annotation_columns = 0;
  /// Data rows to skip after the header (e.g. an EWEIGHT row).
  int skip_leading_rows = 0;
};

/// Parses a matrix from an input stream.
util::StatusOr<ExpressionMatrix> ReadMatrix(std::istream& in,
                                            const TextFormat& format = {});

/// Parses a matrix from a string (convenience for tests).
util::StatusOr<ExpressionMatrix> ReadMatrixFromString(
    const std::string& text, const TextFormat& format = {});

/// Loads a matrix from a file path.
util::StatusOr<ExpressionMatrix> LoadMatrix(const std::string& path,
                                            const TextFormat& format = {});

/// Writes a matrix to a stream in the same format.
util::Status WriteMatrix(const ExpressionMatrix& m, std::ostream& out,
                         const TextFormat& format = {});

/// Saves a matrix to a file path.
util::Status SaveMatrix(const ExpressionMatrix& m, const std::string& path,
                        const TextFormat& format = {});

// The one matrix opener: every driver that reads a matrix file (the CLI's
// subcommands, the daemon's resource cache) picks the text format or the
// binary one (store.h) here.  Format names are the CLI's: "text", "bin" and
// "auto", which sniffs the binary magic.  Text-reader errors are prefixed
// "loading PATH: "; binary-reader errors name the file already.  Neither
// format admits a +-inf cell: the text reader rejects one as it parses, and
// the binary branch, whose format carries no checksum over its cells, scans
// for one with RejectInfiniteCells.  NaN stays a missing value in both.
enum class MatrixFormat { kAuto, kText, kBinary };

/// FailedPrecondition naming the first +-inf cell of `data` by its gene and
/// condition; OK when every cell is finite or NaN.  A +-inf cell has no
/// RWave order, so every reader rejects it (core::ValidateMatrixValues too).
util::Status RejectInfiniteCells(const MatrixStore& data);

/// Resolves the format `name` for the file at `path`; never kAuto.  A file
/// "auto" cannot read resolves to text, so the text reader names the error.
/// An unknown name is InvalidArgument.
util::StatusOr<MatrixFormat> ResolveMatrixFormat(const std::string& path,
                                                 const std::string& name);

/// Read-only: a binary matrix maps, a text matrix loads resident.
util::StatusOr<std::shared_ptr<const MatrixStore>> OpenMatrixStore(
    const std::string& path, MatrixFormat format = MatrixFormat::kAuto);

/// Resident and mutable: ReadBinaryMatrix, or LoadMatrix with `text`.
util::StatusOr<ExpressionMatrix> ReadMatrixFile(
    const std::string& path, MatrixFormat format = MatrixFormat::kAuto,
    const TextFormat& text = {});

}  // namespace matrix
}  // namespace regcluster

#endif  // REGCLUSTER_MATRIX_MATRIX_IO_H_
