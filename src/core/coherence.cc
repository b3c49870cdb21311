#include "core/coherence.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>

#include "util/bitset.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace regcluster {
namespace core {

bool CoherenceWindowPossible(const double* h, int n, double eps, int min_g,
                             std::vector<int>* counts) {
  if (n < min_g) return false;  // no window can hold min_g scores
  if (min_g <= 1) return true;   // any single score is a window
  // x - x is NaN exactly for a NaN or infinite x, so `probe` stays finite
  // iff every score is.
  double lo = h[0];
  double hi = h[0];
  double probe = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = h[i];
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
    probe += x - x;
  }
  const double range = hi - lo;
  // A whole column of span <= eps is one window; a NaN or infinite score or
  // an overflowing range falls through to the exact scan.
  if (probe != 0.0 || !(range > eps) || !std::isfinite(range)) return true;
  // The margin absorbs the rounding of the scan's `hs[hi] - hs[lo]` and of
  // the index arithmetic below: the computed indices of two scores a <= b
  // with fl(b - a) <= eps differ by at most one (DESIGN.md derives the
  // 8 (n + 2) u bound, u = DBL_EPSILON / 2).
  const double base = std::max(eps, range / n);
  if (!(base >= std::numeric_limits<double>::min())) return true;
  const double margin = 4.0 * (n + 2) * DBL_EPSILON;
  const double inv_w = 1.0 / (base * (1.0 + margin));
  // 0 <= (x - lo) * inv_w <= range * inv_w < n + 1, so the casts are exact
  // truncations (floors) and stay in range.
  const int buckets = std::min(static_cast<int>(range * inv_w) + 1, n + 1);
  if (buckets < 2) return true;
  counts->assign(static_cast<size_t>(buckets), 0);
  int* c = counts->data();
  for (int i = 0; i < n; ++i) {
    const int k = static_cast<int>((h[i] - lo) * inv_w);
    ++c[std::min(k, buckets - 1)];
  }
  int best = 0;  // a max-reduction, not an early exit: it vectorizes
  for (int k = 0; k + 1 < buckets; ++k) best = std::max(best, c[k] + c[k + 1]);
  return best >= min_g;
}

namespace {

/// Members the fill runs ahead when prefetching matrix rows: rows are
/// scattered across the matrix, so each member's first touch would
/// otherwise be a cache miss the loop waits on.
constexpr int kRowPrefetchAhead = 4;
constexpr int64_t kCacheLineDoubles = 64 / sizeof(double);

}  // namespace

void FillScorePanel(const PanelMembers& members, const double* matrix,
                    int64_t stride, int head, const uint64_t* mask,
                    int* cursor, double* h, int32_t* idx) {
  for (int i = 0; i < members.count; ++i) {
    if (i + kRowPrefetchAhead < members.count) {
      const double* ahead =
          matrix + members.gene[i + kRowPrefetchAhead] * stride;
      for (int64_t off = 0; off < stride; off += kCacheLineDoubles) {
        __builtin_prefetch(ahead + off);
      }
    }
    const uint64_t* live =
        members.live + static_cast<int64_t>(i) * members.words;
    uint64_t any = 0;
    for (int w = 0; w < members.words; ++w) any |= live[w] & mask[w];
    if (any == 0) continue;  // no filled column: leave the row alone
    const double* row = matrix + members.gene[i] * stride;
    const double base = row[head];
    const double denom = members.denom[i];
    for (int w = 0; w < members.words; ++w) {
      uint64_t bits = live[w] & mask[w];
      while (bits != 0) {
        const int c = w * util::kBitsPerWord + std::countr_zero(bits);
        bits &= bits - 1;
        const int slot = cursor[c]++;
        h[slot] = (row[c] - base) / denom;
        idx[slot] = i;
      }
    }
  }
}

std::vector<double> ChainCoherenceScores(const double* row,
                                         const std::vector<int>& chain) {
  std::vector<double> out;
  if (chain.size() < 2) return out;
  out.reserve(chain.size() - 1);
  for (size_t k = 0; k + 1 < chain.size(); ++k) {
    out.push_back(
        CoherenceScore(row, chain[0], chain[1], chain[k], chain[k + 1]));
  }
  return out;
}

bool FitPairShiftScale(const matrix::MatrixStore& data, int gene_i,
                       int gene_j, const std::vector<int>& conds, double* s1,
                       double* s2) {
  const std::vector<double> x = data.RowOnConditions(gene_i, conds);
  const std::vector<double> y = data.RowOnConditions(gene_j, conds);
  return util::FitShiftScale(x, y, s1, s2);
}

namespace {

/// Checks constraint (1) for one gene: expression strictly monotone along
/// the chain in the given direction, with all pairwise gaps > gamma_abs.
/// Since values are monotone along the chain, the minimum pairwise gap is
/// attained by an adjacent pair, so adjacent checks suffice.
bool CheckRegulation(const double* row, const std::vector<int>& chain,
                     double gamma_abs, bool increasing, std::string* why,
                     int gene) {
  for (size_t k = 0; k + 1 < chain.size(); ++k) {
    const double delta = row[chain[k + 1]] - row[chain[k]];
    const double step = increasing ? delta : -delta;
    if (!(step > gamma_abs)) {
      if (why != nullptr) {
        *why = util::StrFormat(
            "gene %d: step %zu->%zu (%g) not %s-regulated beyond gamma=%g",
            gene, k, k + 1, delta, increasing ? "up" : "down", gamma_abs);
      }
      return false;
    }
  }
  return true;
}

}  // namespace

bool ValidateRegCluster(const matrix::MatrixStore& data,
                        const RegCluster& cluster, double gamma,
                        double epsilon, std::string* why, double slack) {
  return ValidateRegCluster(data, cluster,
                            GammaSpec{GammaPolicy::kRangeFraction, gamma},
                            epsilon, why, slack);
}

bool ValidateRegCluster(const matrix::MatrixStore& data,
                        const RegCluster& cluster, const GammaSpec& spec,
                        double epsilon, std::string* why, double slack) {
  if (cluster.chain.size() < 2) {
    if (why != nullptr) *why = "chain shorter than 2 conditions";
    return false;
  }
  for (int c : cluster.chain) {
    if (c < 0 || c >= data.num_conditions()) {
      if (why != nullptr) *why = util::StrFormat("condition %d out of range", c);
      return false;
    }
  }

  // (1) Regulation constraint.
  for (int g : cluster.p_genes) {
    if (!CheckRegulation(data.row_data(g), cluster.chain,
                         AbsoluteGamma(data, g, spec),
                         /*increasing=*/true, why, g)) {
      return false;
    }
  }
  for (int g : cluster.n_genes) {
    if (!CheckRegulation(data.row_data(g), cluster.chain,
                         AbsoluteGamma(data, g, spec),
                         /*increasing=*/false, why, g)) {
      return false;
    }
  }

  // (2) Coherence constraint: per adjacent pair, the spread of scores over
  // all member genes must be within epsilon.
  const std::vector<int> genes = cluster.AllGenes();
  for (size_t k = 0; k + 1 < cluster.chain.size(); ++k) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (int g : genes) {
      const double h =
          CoherenceScore(data.row_data(g), cluster.chain[0], cluster.chain[1],
                         cluster.chain[k], cluster.chain[k + 1]);
      lo = std::min(lo, h);
      hi = std::max(hi, h);
    }
    if (hi - lo > epsilon + slack) {
      if (why != nullptr) {
        *why = util::StrFormat(
            "coherence spread %g > epsilon %g at adjacent pair %zu", hi - lo,
            epsilon, k);
      }
      return false;
    }
  }
  return true;
}

}  // namespace core
}  // namespace regcluster
