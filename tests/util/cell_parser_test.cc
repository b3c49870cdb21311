// The text-cell parser (util::ParseDouble, the matrix reader's cell grammar)
// against strtod.  Over a committed corpus and PRNG-generated decimal
// strings, the parser must accept exactly what strtod accepts in full
// without ERANGE, with the same bits; each deliberate departure from
// strtod's grammar is pinned by its own case below.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/prng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace regcluster {
namespace util {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// strtod's verdict on a whole cell: the value when it consumes every byte
/// without ERANGE, else nothing.
bool StrtodAccepts(const std::string& cell, double* value) {
  errno = 0;
  char* end = nullptr;
  *value = std::strtod(cell.c_str(), &end);
  return end != cell.c_str() && *end == '\0' && errno == 0;
}

/// Parser and strtod agree on `cell`: same verdict, and bit-equal values
/// when both accept.
void ExpectAgreesWithStrtod(const std::string& cell) {
  double want = 0.0;
  const bool accepts = StrtodAccepts(cell, &want);
  const StatusOr<double> got = ParseDouble(cell);
  ASSERT_EQ(accepts, got.ok())
      << "'" << cell << "': strtod " << (accepts ? "accepts" : "rejects")
      << ", parser says " << (got.ok() ? "OK" : got.status().ToString());
  if (accepts) {
    EXPECT_EQ(Bits(want), Bits(*got)) << "'" << cell << "'";
  }
}

TEST(CellParserTest, CommittedCorpusMatchesStrtod) {
  std::ifstream in(REGCLUSTER_CELL_CORPUS);
  ASSERT_TRUE(in) << "cannot open " << REGCLUSTER_CELL_CORPUS;
  std::string line;
  int cells = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ExpectAgreesWithStrtod(line);
    ++cells;
  }
  EXPECT_GT(cells, 50);
}

TEST(CellParserTest, RandomDecimalsMatchStrtod) {
  // 1-17 significant digits with the point anywhere (or absent), exponents
  // -307..308 in either case and sign style, and an optional sign -- the
  // whole range where strtod and the parser must agree bit for bit,
  // overflow at the top included.
  Prng prng(20260917);
  int accepted = 0;
  for (int trial = 0; trial < 200000; ++trial) {
    std::string cell;
    switch (prng.UniformInt(0, 2)) {
      case 0: break;
      case 1: cell += '-'; break;
      default: cell += '+'; break;
    }
    const int digits = static_cast<int>(prng.UniformInt(1, 17));
    const int point = static_cast<int>(prng.UniformInt(0, digits + 1));
    for (int d = 0; d < digits; ++d) {
      if (d == point) cell += '.';
      cell += static_cast<char>('0' + prng.UniformInt(d == 0 ? 1 : 0, 9));
    }
    if (point == digits) cell += '.';
    if (prng.UniformInt(0, 3) != 0) {
      cell += prng.UniformInt(0, 1) == 0 ? 'e' : 'E';
      const int64_t exp = prng.UniformInt(-307, 308);
      if (exp >= 0 && prng.UniformInt(0, 1) == 0) cell += '+';
      cell += std::to_string(exp);
    }
    double ref = 0.0;
    accepted += StrtodAccepts(cell, &ref) ? 1 : 0;
    ExpectAgreesWithStrtod(cell);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, 190000);  // the sample is mostly in range
}

TEST(CellParserTest, TrimsAsciiWhitespace) {
  EXPECT_EQ(*ParseDouble(" \t 2.5 \r\n\v\f"), 2.5);
  EXPECT_EQ(*ParseDouble("\t-1e3\t"), -1000.0);
  EXPECT_FALSE(ParseDouble("1 5").ok());  // inner whitespace is not trimmed
}

TEST(CellParserTest, MissingValueTokens) {
  for (const char* tok : {"", "   ", "NA", "NaN", "nan", "?", " NA "}) {
    const StatusOr<double> v = ParseDouble(tok);
    ASSERT_TRUE(v.ok()) << "'" << tok << "'";
    EXPECT_TRUE(std::isnan(*v)) << "'" << tok << "'";
  }
}

TEST(CellParserTest, OneLeadingPlusOnly) {
  EXPECT_EQ(*ParseDouble("+7"), 7.0);
  EXPECT_EQ(*ParseDouble("+.5e1"), 5.0);
  for (const char* bad : {"+", "++1", "+-1", "-+1", "+ 1", "--1"}) {
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CellParserTest, RejectsNonFiniteSpellings) {
  // strtod reads all of these; a matrix cell must be finite or missing, and
  // only the five missing-value tokens above spell "missing".
  for (const char* bad : {"inf", "-inf", "+inf", "INF", "infinity",
                          "-Infinity", "NAN", "-nan", "nan(123)", "NaN(0)"}) {
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(v.status().message().find("not a finite number"),
              std::string::npos)
        << v.status().message();
  }
}

TEST(CellParserTest, RejectsHexFloats) {
  // strtod accepted these; the grammar is decimal only (a declared change).
  for (const char* bad : {"0x1p3", "0X1A", "-0x10", "0x1.8p-2", "0x"}) {
    double ref = 0.0;
    (void)StrtodAccepts(bad, &ref);
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(v.status().message().find("not a number"), std::string::npos);
  }
}

TEST(CellParserTest, RejectsOverflow) {
  for (const char* bad : {"1e309", "-1e309", "1.7976931348623159e308",
                          "1e99999"}) {
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange) << bad;
    EXPECT_NE(v.status().message().find("out of range"), std::string::npos);
  }
  EXPECT_EQ(*ParseDouble("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
}

TEST(CellParserTest, RejectsSubnormalAndUnderflow) {
  // strtod flags these with ERANGE and the reader always rejected them;
  // the verdict is kept.  Exact zeros and the smallest normal pass.
  for (const char* bad : {"1e-310", "-1e-310", "4.9e-324", "1e-400",
                          "-1e-400", "2.2250738585072009e-308"}) {
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange) << bad;
  }
  EXPECT_EQ(*ParseDouble("0e-999"), 0.0);
  EXPECT_TRUE(std::signbit(*ParseDouble("-0")));
  EXPECT_EQ(*ParseDouble("2.2250738585072014e-308"),
            std::numeric_limits<double>::min());
}

TEST(CellParserTest, AcceptsDecimalsThatRoundUpToTheSmallestNormal) {
  // A decimal just below DBL_MIN that rounds *up* to it: strtod returns the
  // same bits but flags ERANGE (its tininess test runs before rounding);
  // the parser judges the rounded result, which is normal, and accepts.
  // The one place the verdicts differ -- the value never does.
  const std::string cell = "2.2250738585072012e-308";
  double ref = 0.0;
  EXPECT_FALSE(StrtodAccepts(cell, &ref));
  const StatusOr<double> v = ParseDouble(cell);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, std::numeric_limits<double>::min());
  EXPECT_EQ(Bits(*v), Bits(ref));
}

TEST(CellParserTest, RequiresTheWholeField) {
  for (const char* bad : {"1e", "1e+", "1.5x", ".", "e5", "1..5", "1e5.0",
                          "1,5", "abc", "#1"}) {
    const StatusOr<double> v = ParseDouble(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(v.status().message(),
              "not a number: '" + std::string(bad) + "'");
  }
}

// A rejected field is quoted printable and short: a binary matrix fed to
// the text reader must not put raw bytes on the terminal.
TEST(CellParserTest, ErrorQuotesEscapeAndCapTheField) {
  const StatusOr<double> binary =
      ParseDouble(std::string("\x01\xff" "A\x7f", 4));
  ASSERT_FALSE(binary.ok());
  EXPECT_EQ(binary.status().message(), "not a number: '\\x01\\xffA\\x7f'");

  const std::string long_field(100, 'z');
  const StatusOr<double> long_cell = ParseDouble(long_field);
  ASSERT_FALSE(long_cell.ok());
  EXPECT_EQ(long_cell.status().message(),
            "not a number: '" + std::string(32, 'z') + "'...");

  // Exactly at the cap: whole, no ellipsis.
  const StatusOr<double> at_cap = ParseDouble(std::string(32, 'y'));
  ASSERT_FALSE(at_cap.ok());
  EXPECT_EQ(at_cap.status().message(),
            "not a number: '" + std::string(32, 'y') + "'");

  const std::string huge = "1e999" + std::string(40, '0');
  const StatusOr<double> out_of_range = ParseDouble(huge);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().message(),
            "number out of range: '" + huge.substr(0, 32) + "'...");
}

}  // namespace
}  // namespace util
}  // namespace regcluster
