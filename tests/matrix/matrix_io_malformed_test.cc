// Hardened matrix_io error paths: every parse failure over a corpus of
// broken TSVs must come back as a Status (never a crash or a silently
// truncated matrix) whose message pinpoints the problem with 1-based
// line/column coordinates.

#include <string>

#include "gmock/gmock.h"
#include "gtest/gtest.h"
#include "matrix/matrix_io.h"
#include "util/status.h"

namespace regcluster {
namespace matrix {
namespace {

using ::testing::AllOf;
using ::testing::HasSubstr;

TEST(MatrixIoMalformedTest, RaggedRowReportsLineAndWidths) {
  auto m = ReadMatrixFromString("gene\ta\tb\ng1\t1\t2\ng2\t3\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 3"), HasSubstr("expected 3 fields"),
                    HasSubstr("got 2")));
}

TEST(MatrixIoMalformedTest, RaggedRowTooWideAlsoRejected) {
  auto m = ReadMatrixFromString("gene\ta\ng1\t1\ng2\t2\t3\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(), HasSubstr("line 3"));
}

TEST(MatrixIoMalformedTest, NonNumericFieldReportsOneBasedColumn) {
  // "bogus" sits on line 2 and is the 2nd field of its line (after the gene
  // label), so the report must say line 2, column 2.
  auto m = ReadMatrixFromString("gene\ta\tb\ng1\t1\tbogus\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 2"), HasSubstr("column 3")));
}

TEST(MatrixIoMalformedTest, NonNumericFirstDataColumn) {
  TextFormat fmt;
  fmt.has_header = false;
  fmt.has_gene_names = false;
  auto m = ReadMatrixFromString("1\t2\nx\t4\n", fmt);
  ASSERT_FALSE(m.ok());
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 2"), HasSubstr("column 1")));
}

TEST(MatrixIoMalformedTest, CommentAndBlankLinesDoNotShiftLineNumbers) {
  // The bad value lives on physical line 5; blank/comment lines before it
  // must still be counted.
  auto m = ReadMatrixFromString("gene\ta\n\n# note\ng1\t1\ng2\tNaNarama\n");
  ASSERT_FALSE(m.ok());
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 5"), HasSubstr("column 2")));
}

TEST(MatrixIoMalformedTest, DuplicateGeneLabelReportsBothLines) {
  auto m = ReadMatrixFromString("gene\ta\ng1\t1\ng2\t2\ng1\t3\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 4"), HasSubstr("duplicate gene label"),
                    HasSubstr("\"g1\""), HasSubstr("line 2")));
}

TEST(MatrixIoMalformedTest, DuplicateLabelsAllowedWithoutGeneNameColumn) {
  // Without a gene-name column there are no labels to collide.
  TextFormat fmt;
  fmt.has_header = false;
  fmt.has_gene_names = false;
  auto m = ReadMatrixFromString("1\t2\n1\t2\n", fmt);
  ASSERT_TRUE(m.ok()) << m.status().message();
  EXPECT_EQ(m->num_genes(), 2);
}

TEST(MatrixIoMalformedTest, EmptyInputIsCorruptionNotCrash) {
  auto m = ReadMatrixFromString("");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(), HasSubstr("no data rows"));
}

TEST(MatrixIoMalformedTest, HeaderOnlyInputIsCorruption) {
  auto m = ReadMatrixFromString("gene\ta\tb\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(), HasSubstr("no data rows"));
}

TEST(MatrixIoMalformedTest, CommentsOnlyInputIsCorruption) {
  auto m = ReadMatrixFromString("# a\n# b\n\n");
  ASSERT_FALSE(m.ok());
  EXPECT_THAT(m.status().message(), HasSubstr("no data rows"));
}

TEST(MatrixIoMalformedTest, HeaderNarrowerThanAnnotationColumns) {
  TextFormat fmt;
  fmt.skip_annotation_columns = 3;
  auto m = ReadMatrixFromString("gene\ta\ng1\tx\ty\tz\t1\n", fmt);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(), HasSubstr("line 1"));
}

TEST(MatrixIoMalformedTest, MissingValueTokensStillAccepted) {
  // NA / NaN / ? / empty are missing-value tokens, not parse failures; the
  // hardened paths must not over-reject them.
  auto m = ReadMatrixFromString("gene\ta\tb\tc\td\ng1\tNA\tNaN\t?\t\n");
  ASSERT_TRUE(m.ok()) << m.status().message();
  EXPECT_TRUE(m->HasMissingValues());
}


TEST(MatrixIoMalformedTest, CellGrammarRejectionsNameLineAndColumn) {
  // Non-finite, hex, overflowing and subnormal cells -- all of which strtod
  // read -- are rejected at read time, each a Corruption pointing at its
  // cell (line 3, column 3) with the parser's reason.
  const struct {
    const char* cell;
    const char* reason;
  } cases[] = {
      {"inf", "not a finite number"},   {"-Infinity", "not a finite number"},
      {"nan(1)", "not a finite number"}, {"NAN", "not a finite number"},
      {"0x1p3", "not a number"},         {"++1", "not a number"},
      {"1e309", "out of range"},         {"1e-310", "out of range"},
  };
  for (const auto& c : cases) {
    const std::string text =
        std::string("gene\ta\tb\ng1\t1\t2\ng2\t3\t") + c.cell + "\n";
    auto m = ReadMatrixFromString(text);
    ASSERT_FALSE(m.ok()) << c.cell;
    EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption) << c.cell;
    EXPECT_THAT(m.status().message(),
                AllOf(HasSubstr("line 3, column 3"), HasSubstr(c.reason),
                      HasSubstr(c.cell)));
  }
  // A leading '+' and the largest finite value are fine.
  auto m = ReadMatrixFromString(
      "gene\ta\tb\ng1\t+1\t1.7976931348623157e308\n");
  ASSERT_TRUE(m.ok()) << m.status().message();
  EXPECT_EQ((*m)(0, 0), 1.0);
}

TEST(MatrixIoMalformedTest, HeaderWidthMismatchNamesTheHeaderLine) {
  auto m = ReadMatrixFromString("# comment\ngene\ta\ng1\t1\t2\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
  EXPECT_THAT(m.status().message(),
              AllOf(HasSubstr("line 2"),
                    HasSubstr("header has 1 condition names but rows have 2")));
}

}  // namespace
}  // namespace matrix
}  // namespace regcluster
