// Differential tests of the coherence pre-screen (CoherenceWindowPossible)
// against an exact check: sort the column, then run the miner's sliding
// window.  The screen may answer "possible" for a window-less column; it
// must never answer "impossible" for a column that has a window.  A
// catch-rate floor keeps it from decaying into a no-op that always says
// "possible".

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "core/coherence.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The miner's window scan (RegClusterMiner::Extend, step 5) over the
/// sorted column: is there a maximal window of span <= eps holding at least
/// min_g scores?  Finite columns only.
bool ExactWindowExists(std::vector<double> hs, double eps, int min_g) {
  std::sort(hs.begin(), hs.end());
  const size_t n = hs.size();
  size_t hi = 0;
  size_t prev_hi = 0;
  for (size_t lo = 0; lo < n; ++lo) {
    if (hi < lo + 1) hi = lo + 1;
    while (hi < n && hs[hi] - hs[lo] <= eps) ++hi;
    const bool maximal = lo == 0 || hi > prev_hi;
    prev_hi = hi;
    if (maximal && static_cast<int>(hi - lo) >= min_g) return true;
  }
  return false;
}

bool Screen(const std::vector<double>& h, double eps, int min_g) {
  std::vector<int> counts;
  return CoherenceWindowPossible(h.data(), static_cast<int>(h.size()), eps,
                                 min_g, &counts);
}

/// Asserts the screen's one-sided contract on a finite column and returns
/// the exact answer.
bool ExpectSound(const std::vector<double>& h, double eps, int min_g) {
  const bool exact = ExactWindowExists(h, eps, min_g);
  if (exact) {
    EXPECT_TRUE(Screen(h, eps, min_g))
        << "rejected a column with a window: n=" << h.size()
        << " eps=" << eps << " min_g=" << min_g;
  }
  return exact;
}

/// A scored column shaped like the miner's: scores H = num / den of Eq. 7
/// for members whose steps exceed gamma * range (gamma = 0.1), so a spread
/// over about (0.1, 10), plus -- half the time -- a coherent group of up to
/// half the members packed within a few epsilons of one score.
std::vector<double> MinerShapedColumn(int n, double eps, util::Prng* prng) {
  std::vector<double> h(static_cast<size_t>(n));
  for (double& x : h) x = prng->Uniform(0.1, 1.0) / prng->Uniform(0.1, 1.0);
  if (n > 1 && prng->Bernoulli(0.5)) {
    const int group = static_cast<int>(prng->UniformInt(2, n / 2 + 1));
    const double center = h[0];
    const double spread = eps * prng->Uniform(0.0, 3.0);
    for (int i = 0; i < group; ++i) {
      h[static_cast<size_t>(prng->UniformInt(0, n - 1))] =
          center + prng->Uniform(0.0, spread);
    }
  }
  return h;
}

/// Window-less columns as a Section 5 matrix (uniform [0, 10] background,
/// gamma = 0.1) produces them: each score is H = (v[m] - v[m-1]) /
/// (v[1] - v[0]) of a p-member whose values v[0] < ... < v[m] at the chain
/// and the candidate all step up by more than gamma * range = 1.
std::vector<double> BackgroundColumn(int n, util::Prng* prng) {
  std::vector<double> h;
  std::vector<double> v;
  while (static_cast<int>(h.size()) < n) {
    const int m = static_cast<int>(prng->UniformInt(2, 4));
    v.resize(static_cast<size_t>(m) + 1);
    for (double& x : v) x = prng->Uniform(0.0, 10.0);
    std::sort(v.begin(), v.end());
    bool regulated = true;
    for (int i = 0; i < m; ++i) regulated &= v[i + 1] - v[i] > 1.0;
    if (regulated) h.push_back((v[m] - v[m - 1]) / (v[1] - v[0]));
  }
  return h;
}

/// MinG values to try on a column of n >= 2 scores, including n - 1, n and
/// the trivially window-less n + 1.
std::vector<int> MinGenesFor(int n) {
  return {1, 2, 3, std::max(1, n / 10), std::max(1, n / 4), n / 2, n - 1, n,
          n + 1};
}

TEST(CoherenceScreen, MinerShapedColumnsAreNeverFalselyRejected) {
  util::Prng prng(16);
  std::vector<int> sizes = {2, 3, 5, 8, 31, 32, 33, 64, 80, 150, 320, 321,
                            600};
  for (int i = 0; i < 20; ++i) {
    sizes.push_back(static_cast<int>(prng.UniformInt(2, 600)));
  }
  int with_window = 0;
  int without = 0;
  for (int n : sizes) {
    for (double eps : {0.0, 1e-3, 0.01, 0.05, 0.1, 1.0}) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::vector<double> h = MinerShapedColumn(n, eps, &prng);
        for (int min_g : MinGenesFor(n)) {
          (ExpectSound(h, eps, min_g) ? with_window : without)++;
        }
      }
    }
  }
  // Both outcomes occur, so the battery exercises the reject path too.
  EXPECT_GT(with_window, 1000);
  EXPECT_GT(without, 1000);
}

TEST(CoherenceScreen, ScoresExactlyEpsilonApart) {
  EXPECT_TRUE(Screen({0.0, 0.1, 0.2}, 0.1, 2));
  ExpectSound({0.0, 0.1, 0.2}, 0.1, 3);
  EXPECT_TRUE(Screen({0.1, 0.2, 0.3}, 0.1, 2));
  // 0.1 + 0.2 rounds above 0.3: spans that are epsilon in decimal and a few
  // ulps off in binary, in both directions.
  for (double eps : {0.1, 0.2, 0.3 - 0.1, (0.1 + 0.2) - 0.1}) {
    for (int min_g : {2, 3, 4}) {
      ExpectSound({0.1, 0.1 + 0.2, 0.3, 0.4, 0.5}, eps, min_g);
      ExpectSound({-0.3, 0.1 + 0.2, 0.5 - 0.2, 0.7, 1.1}, eps, min_g);
    }
  }
}

TEST(CoherenceScreen, WindowsStraddlingABucketBoundary) {
  // The only window holds five copies each of a and b, where a sits a few
  // ulps below a bucket boundary lo + k * base * (1 + shift) (base =
  // max(eps, range / n), the unwidened bucket width; shift probes a few
  // wrong margins) and b is as far above a as fl(b - a) <= eps allows.
  // Without the margin, rounding puts a and b two buckets apart and the
  // screen rejects the window.
  util::Prng prng(3);
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = static_cast<int>(prng.UniformInt(12, 3000));
    const double eps = std::ldexp(prng.Uniform(1.0, 2.0),
                                  static_cast<int>(prng.UniformInt(-30, 10)));
    const double lo = prng.Bernoulli(0.5) ? 0.0 : prng.Uniform(-1e3, 1e3) * eps;
    const double range = prng.Bernoulli(0.5)
                             ? eps * n * prng.Uniform(1.0, 3.0)
                             : eps * prng.Uniform(1.5, 0.999 * n);
    const double base = std::max(eps, range / n);
    const int buckets = static_cast<int>(range / base);
    if (buckets < 3) continue;
    const double shift = std::array<double, 5>{0.0, 0.0, -1e-12, -1e-9,
                                               -1e-6}[prng.UniformInt(0, 4)];
    double a = lo + static_cast<double>(prng.UniformInt(1, buckets - 2)) *
                        base * (1.0 + shift);
    for (int64_t ulps = prng.UniformInt(0, 3); ulps > 0; --ulps) {
      a = std::nextafter(a, -kInf);
    }
    double b = a + eps;
    while (std::nextafter(b, kInf) - a <= eps) b = std::nextafter(b, kInf);
    while (b - a > eps) b = std::nextafter(b, -kInf);
    std::vector<double> h = {lo, lo + range};
    h.insert(h.end(), 5, a);
    h.insert(h.end(), 5, b);
    while (static_cast<int>(h.size()) < n) {
      h.push_back(lo + prng.Uniform(0.0, 1.0) * range);
    }
    prng.Shuffle(&h);
    ASSERT_TRUE(ExpectSound(h, eps, 10));
  }
}

TEST(CoherenceScreen, ZeroEpsilonNeedsExactTies) {
  const std::vector<double> h = {0.5, 1.0, 1.5, 1.0, 2.0, 1.0, 3.0};
  EXPECT_TRUE(Screen(h, 0.0, 3));
  EXPECT_FALSE(ExpectSound(h, 0.0, 4));
  // Distinct scores a bucket width apart: no ties, so no window of two.
  EXPECT_FALSE(Screen({0.0, 1.0, 2.0, 3.0, 4.0}, 0.0, 3));
  util::Prng prng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(prng.UniformInt(2, 200));
    std::vector<double> col(static_cast<size_t>(n));
    for (double& x : col) x = std::round(prng.Uniform(0.0, 30.0)) / 7.0;
    for (int min_g : MinGenesFor(n)) ExpectSound(col, 0.0, min_g);
  }
}

TEST(CoherenceScreen, InfiniteEpsilonIsOneWindow) {
  util::Prng prng(11);
  for (int n : {1, 2, 33, 321}) {
    std::vector<double> h(static_cast<size_t>(n));
    for (double& x : h) x = prng.Uniform(-1e300, 1e300);
    EXPECT_TRUE(Screen(h, kInf, n));
    EXPECT_FALSE(Screen(h, kInf, n + 1));
  }
}

TEST(CoherenceScreen, DegenerateColumns) {
  // All equal, signed zeros and one-element columns: a single window.
  EXPECT_TRUE(Screen(std::vector<double>(50, 1.25), 0.0, 50));
  EXPECT_TRUE(Screen({0.0, -0.0, 0.0, -0.0}, 0.0, 4));
  EXPECT_TRUE(Screen({-0.0}, 0.0, 1));
  EXPECT_FALSE(Screen({}, 0.1, 1));
  // Subnormal scores and epsilons.
  const double tiny = std::numeric_limits<double>::denorm_min();
  util::Prng prng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(prng.UniformInt(2, 100));
    std::vector<double> h(static_cast<size_t>(n));
    for (double& x : h) {
      x = tiny * static_cast<double>(prng.UniformInt(-200, 200));
    }
    for (double eps : {0.0, tiny, 3 * tiny, 50 * tiny, 1e-310}) {
      for (int min_g : MinGenesFor(n)) ExpectSound(h, eps, min_g);
    }
  }
  // Magnitudes near 1e300 and near the overflow threshold, where max - min
  // can itself overflow to +inf.
  for (double scale : {1e300, 8e307, 1.7e308}) {
    for (int trial = 0; trial < 100; ++trial) {
      const int n = static_cast<int>(prng.UniformInt(2, 100));
      std::vector<double> h(static_cast<size_t>(n));
      for (double& x : h) x = scale * prng.Uniform(-1.0, 1.0);
      h[0] = h[1];  // at least one tie
      for (double eps : {0.0, 1e-3 * scale, 0.1 * scale, scale}) {
        for (int min_g : MinGenesFor(n)) ExpectSound(h, eps, min_g);
      }
    }
  }
}

TEST(CoherenceScreen, NonFiniteScoresAnswerPossible) {
  for (double bad : {kInf, -kInf, kNaN}) {
    for (size_t at : {size_t{0}, size_t{5}, size_t{9}}) {
      std::vector<double> h(10);
      for (size_t i = 0; i < h.size(); ++i) h[i] = static_cast<double>(i);
      h[at] = bad;
      EXPECT_TRUE(Screen(h, 0.01, 2)) << bad << " at " << at;
      EXPECT_TRUE(Screen(h, 0.01, 10)) << bad << " at " << at;
    }
  }
  EXPECT_TRUE(Screen({kInf, -kInf}, 0.0, 2));
  EXPECT_TRUE(Screen({kNaN, kNaN, kNaN}, 0.1, 3));
}

TEST(CoherenceScreen, MinGenesAtAndBelowTheColumnSize) {
  util::Prng prng(21);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(prng.UniformInt(2, 120));
    const double eps = prng.Uniform(0.0, 0.5);
    const std::vector<double> h = MinerShapedColumn(n, eps, &prng);
    ExpectSound(h, eps, n);
    ExpectSound(h, eps, n - 1);
  }
  EXPECT_TRUE(Screen({1.0, 1.05, 1.1}, 0.1, 3));
  EXPECT_FALSE(Screen({1.0, 1.05, 1.3}, 0.1, 3));
}

TEST(CoherenceScreen, RejectsMostWindowlessMinerShapedColumns) {
  // Background columns of the search-bound workloads' shape: 60 to 160
  // scored members, MinG a quarter of them (about a third in the miner on a
  // Section 5 matrix), epsilon = 0.01.  The screen must reject the large
  // majority, or the miner pays the sort again.
  util::Prng prng(2026);
  int windowless = 0;
  int rejected = 0;
  while (windowless < 2000) {
    const int n = static_cast<int>(prng.UniformInt(60, 160));
    const double eps = 0.01;
    const int min_g = n / 4;
    const std::vector<double> h = BackgroundColumn(n, &prng);
    if (ExpectSound(h, eps, min_g)) continue;
    ++windowless;
    if (!Screen(h, eps, min_g)) ++rejected;
  }
  EXPECT_GE(rejected, windowless * 9 / 10)
      << rejected << " of " << windowless << " rejected";
}

}  // namespace
}  // namespace core
}  // namespace regcluster
