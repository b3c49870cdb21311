// Seeded byte-mutation battery for the text matrix reader.  Valid TSV and
// CSV inputs are flipped, truncated and spliced at PRNG-chosen offsets; for
// every mutant the reader must
//   * return (no crash, no hang -- ctest's timeout backstops the latter);
//   * on rejection, give a Status whose message names a line;
//   * on acceptance, produce a matrix that WriteMatrix writes and
//     ReadMatrix reads back with the same shape, labels and missing cells.
// Runs under ASan+UBSan in CI (.github/workflows/ci.yml).

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/matrix_io.h"
#include "util/prng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace regcluster {
namespace matrix {
namespace {

/// A small valid input: header, comment and blank lines, missing-value
/// tokens, exponents, signs and a CRLF line, in `delim`-separated form.
std::string ValidInput(char delim, uint64_t seed) {
  util::Prng prng(seed);
  std::string text = "# synthetic expression matrix\n";
  text += "gene";
  for (int c = 0; c < 6; ++c) text += util::StrFormat("%ccond%d", delim, c);
  text += "\n\n";
  for (int g = 0; g < 10; ++g) {
    text += util::StrFormat("g%d", g);
    for (int c = 0; c < 6; ++c) {
      text += delim;
      switch (prng.UniformInt(0, 9)) {
        case 0: text += "NA"; break;
        case 1: text += util::StrFormat("%.3e", prng.Uniform(-1e3, 1e3)); break;
        case 2: text += util::StrFormat("+%.2f", prng.Uniform(0, 9)); break;
        default: text += util::StrFormat("%.4f", prng.Uniform(-10, 10)); break;
      }
    }
    text += g == 4 ? "\r\n" : "\n";
  }
  return text;
}

/// Applies 1-4 random mutations: byte flips, truncation, and splices of a
/// chunk of `donor` (insert or overwrite).
std::string Mutate(std::string text, const std::string& donor,
                   util::Prng* prng) {
  const int rounds = static_cast<int>(prng->UniformInt(1, 4));
  for (int r = 0; r < rounds; ++r) {
    const auto pos = [&](size_t n) {
      return static_cast<size_t>(prng->UniformInt(0, static_cast<int64_t>(n)));
    };
    switch (prng->UniformInt(0, 3)) {
      case 0:  // flip one byte to an arbitrary value
        if (!text.empty()) {
          text[pos(text.size() - 1)] =
              static_cast<char>(prng->UniformInt(0, 255));
        }
        break;
      case 1:  // flip one bit
        if (!text.empty()) {
          text[pos(text.size() - 1)] ^=
              static_cast<char>(1 << prng->UniformInt(0, 7));
        }
        break;
      case 2:  // truncate
        text.resize(pos(text.size()));
        break;
      default: {  // splice a donor chunk in, inserted or overwriting
        const size_t at = pos(text.size());
        const size_t cut = r % 2 == 0 ? 0 : pos(text.size() - at);
        const size_t from = pos(donor.size());
        const size_t len = pos(std::min<size_t>(40, donor.size() - from));
        text = text.substr(0, at) + donor.substr(from, len) +
               text.substr(at + cut);
        break;
      }
    }
  }
  return text;
}

void CheckMutants(char delim) {
  TextFormat format;
  format.delimiter = delim;
  util::Prng prng(delim == '\t' ? 1701 : 1702);
  const std::string donor = ValidInput(delim == '\t' ? ',' : '\t', 99);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string input =
        Mutate(ValidInput(delim, static_cast<uint64_t>(trial % 16)), donor,
               &prng);
    const auto m = ReadMatrixFromString(input, format);
    if (!m.ok()) {
      ++rejected;
      ASSERT_NE(m.status().message().find("line"), std::string::npos)
          << "trial " << trial << ": " << m.status().ToString();
      continue;
    }
    ++accepted;
    std::ostringstream out;
    ASSERT_TRUE(WriteMatrix(*m, out, format).ok());
    const auto again = ReadMatrixFromString(out.str(), format);
    ASSERT_TRUE(again.ok()) << "trial " << trial << ": "
                            << again.status().ToString() << "\n"
                            << out.str();
    ASSERT_EQ(again->num_genes(), m->num_genes()) << "trial " << trial;
    ASSERT_EQ(again->num_conditions(), m->num_conditions())
        << "trial " << trial;
    ASSERT_EQ(again->gene_names(), m->gene_names()) << "trial " << trial;
    ASSERT_EQ(again->condition_names(), m->condition_names())
        << "trial " << trial;
    for (int g = 0; g < m->num_genes(); ++g) {
      for (int c = 0; c < m->num_conditions(); ++c) {
        ASSERT_EQ(std::isnan((*again)(g, c)), std::isnan((*m)(g, c)))
            << "trial " << trial << " cell " << g << "," << c;
      }
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

TEST(MatrixIoMutationTest, TsvMutantsRejectByLineOrRoundTrip) {
  CheckMutants('\t');
}

TEST(MatrixIoMutationTest, CsvMutantsRejectByLineOrRoundTrip) {
  CheckMutants(',');
}

TEST(MatrixIoMutationTest, LinesLongerThanTheReadBlockParse) {
  // One 200 KiB row: longer than the reader's block, so the carried-over
  // partial line must grow the buffer rather than split the row.
  std::string text = "gene";
  const int conds = 20000;
  for (int c = 0; c < conds; ++c) text += util::StrFormat("\tc%d", c);
  text += "\ng0";
  for (int c = 0; c < conds; ++c) text += "\t1.25";
  text += "\ng1";
  for (int c = 0; c < conds; ++c) text += "\t-2";
  const auto m = ReadMatrixFromString(text);  // no trailing newline
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_genes(), 2);
  EXPECT_EQ(m->num_conditions(), conds);
  EXPECT_EQ((*m)(0, conds - 1), 1.25);
  EXPECT_EQ((*m)(1, 0), -2.0);
  EXPECT_EQ(m->condition_name(conds - 1), "c19999");
}

}  // namespace
}  // namespace matrix
}  // namespace regcluster
