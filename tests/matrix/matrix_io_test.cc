#include "matrix/matrix_io.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

namespace regcluster {
namespace matrix {
namespace {

TEST(MatrixIoTest, ParseTsvWithHeaderAndNames) {
  const std::string text =
      "gene\tcold\theat\tacid\n"
      "g1\t1.5\t-2\t0\n"
      "g2\t3\t4\t5\n";
  auto m = ReadMatrixFromString(text);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_genes(), 2);
  EXPECT_EQ(m->num_conditions(), 3);
  EXPECT_EQ(m->gene_name(0), "g1");
  EXPECT_EQ(m->condition_name(1), "heat");
  EXPECT_DOUBLE_EQ((*m)(0, 1), -2.0);
}

TEST(MatrixIoTest, ParseCsv) {
  TextFormat fmt;
  fmt.delimiter = ',';
  auto m = ReadMatrixFromString("gene,a,b\nx,1,2\n", fmt);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 1), 2.0);
}

TEST(MatrixIoTest, ParseWithoutHeaderOrNames) {
  TextFormat fmt;
  fmt.has_header = false;
  fmt.has_gene_names = false;
  auto m = ReadMatrixFromString("1\t2\n3\t4\n", fmt);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_genes(), 2);
  EXPECT_EQ(m->num_conditions(), 2);
  EXPECT_EQ(m->gene_name(0), "g0");  // auto-generated
}

TEST(MatrixIoTest, MissingValuesBecomeNaN) {
  auto m = ReadMatrixFromString("gene\ta\tb\tc\ng\tNA\t\t1\n");
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(std::isnan((*m)(0, 0)));
  EXPECT_TRUE(std::isnan((*m)(0, 1)));
  EXPECT_DOUBLE_EQ((*m)(0, 2), 1.0);
}

TEST(MatrixIoTest, SkipsCommentsAndBlankLines) {
  auto m = ReadMatrixFromString(
      "# yeast benchmark\n\ngene\ta\n# comment\ng1\t5\n\n");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_genes(), 1);
  EXPECT_DOUBLE_EQ((*m)(0, 0), 5.0);
}

TEST(MatrixIoTest, HandlesCrlf) {
  auto m = ReadMatrixFromString("gene\ta\r\ng1\t5\r\n");
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 0), 5.0);
}

TEST(MatrixIoTest, RejectsRaggedRows) {
  auto m = ReadMatrixFromString("gene\ta\tb\ng1\t1\t2\ng2\t3\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
}

TEST(MatrixIoTest, RejectsNonNumericField) {
  auto m = ReadMatrixFromString("gene\ta\ng1\tbogus\n");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kCorruption);
}

TEST(MatrixIoTest, RejectsHeaderWidthMismatch) {
  auto m = ReadMatrixFromString("gene\ta\tb\tc\ng1\t1\t2\n");
  EXPECT_FALSE(m.ok());
}

TEST(MatrixIoTest, ChurchLabStyleAnnotationsSkipped) {
  // The arep.med.harvard.edu distribution format: ORF, NAME, GWEIGHT
  // columns and an EWEIGHT row before the data.
  const std::string text =
      "ORF\tNAME\tGWEIGHT\tcdc15_10\tcdc15_30\tcdc15_50\n"
      "EWEIGHT\t\t\t1\t1\t1\n"
      "YAL001C\tTFC3\t1\t0.15\t-0.22\t0.07\n"
      "YAL002W\tVPS8\t1\t-0.4\t0.12\tNA\n";
  TextFormat fmt;
  fmt.skip_annotation_columns = 2;
  fmt.skip_leading_rows = 1;
  auto m = ReadMatrixFromString(text, fmt);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_genes(), 2);
  EXPECT_EQ(m->num_conditions(), 3);
  EXPECT_EQ(m->gene_name(0), "YAL001C");
  EXPECT_EQ(m->condition_name(0), "cdc15_10");
  EXPECT_DOUBLE_EQ((*m)(0, 1), -0.22);
  EXPECT_TRUE(std::isnan((*m)(1, 2)));
}

TEST(MatrixIoTest, SkipCountsValidated) {
  TextFormat fmt;
  fmt.skip_annotation_columns = -1;
  EXPECT_FALSE(ReadMatrixFromString("gene\ta\ng\t1\n", fmt).ok());
  fmt = TextFormat();
  fmt.skip_annotation_columns = 5;  // wider than the rows
  EXPECT_FALSE(ReadMatrixFromString("gene\ta\ng\t1\n", fmt).ok());
}

TEST(MatrixIoTest, RoundTripThroughStream) {
  auto m = ExpressionMatrix::FromRows({{1.25, -3}, {0, 42}});
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->SetGeneNames({"alpha", "beta"}).ok());
  ASSERT_TRUE(m->SetConditionNames({"t0", "t1"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteMatrix(*m, out).ok());
  auto back = ReadMatrixFromString(out.str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_genes(), 2);
  EXPECT_EQ(back->gene_name(1), "beta");
  EXPECT_EQ(back->condition_name(0), "t0");
  EXPECT_DOUBLE_EQ((*back)(0, 0), 1.25);
  EXPECT_DOUBLE_EQ((*back)(1, 1), 42.0);
}

TEST(MatrixIoTest, RoundTripPreservesNaN) {
  ExpressionMatrix m(1, 2);
  m(0, 1) = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream out;
  ASSERT_TRUE(WriteMatrix(m, out).ok());
  EXPECT_NE(out.str().find("NA"), std::string::npos);
  auto back = ReadMatrixFromString(out.str());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::isnan((*back)(0, 1)));
}

TEST(MatrixIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/regcluster_io_test.tsv";
  auto m = ExpressionMatrix::FromRows({{7, 8, 9}});
  ASSERT_TRUE(SaveMatrix(*m, path).ok());
  auto back = LoadMatrix(path);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)(0, 2), 9.0);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, LoadMissingFileFails) {
  auto m = LoadMatrix("/nonexistent/path/to/matrix.tsv");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kIoError);
}

TEST(MatrixIoTest, BinaryOpenersRejectInfiniteCellsAndKeepNaN) {
  // RGCXMAT1 has no checksum over its cells, so both openers scan the
  // binary payload: a +-inf cell is named, a NaN cell stays missing.
  const std::string path = ::testing::TempDir() + "/regcluster_io_inf.rgx";
  auto m = ExpressionMatrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  ASSERT_TRUE(m.ok());
  (*m)(1, 2) = -INFINITY;
  ASSERT_TRUE(WriteBinaryMatrix(*m, path).ok());
  const auto store = OpenMatrixStore(path);
  const auto resident = ReadMatrixFile(path);
  for (const util::Status& st : {store.status(), resident.status()}) {
    EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(st.message().find("gene 'g1' at condition 'c2' is -inf"),
              std::string::npos)
        << st.ToString();
  }

  (*m)(1, 2) = NAN;
  ASSERT_TRUE(WriteBinaryMatrix(*m, path).ok());
  const auto store_nan = OpenMatrixStore(path);
  const auto resident_nan = ReadMatrixFile(path);
  ASSERT_TRUE(store_nan.ok()) << store_nan.status().ToString();
  ASSERT_TRUE(resident_nan.ok()) << resident_nan.status().ToString();
  EXPECT_TRUE(std::isnan((*resident_nan)(1, 2)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace matrix
}  // namespace regcluster
