// Shifting-and-scaling coherence scoring (Section 3.2) and an independent
// reg-cluster validity oracle used by the tests.

#ifndef REGCLUSTER_CORE_COHERENCE_H_
#define REGCLUSTER_CORE_COHERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bicluster.h"
#include "core/threshold.h"
#include "matrix/store.h"

namespace regcluster {
namespace core {

/// The coherence score of Equation 7 with a precomputed baseline
/// denominator `denom = d_i,c2 - d_i,c1`.  Once a chain reaches length 2
/// its baseline pair (c1, c2) is fixed for the whole branch, so the miner
/// computes each member's denominator once and scores every later
/// (gene, candidate) pair with a single subtract and divide.  The division
/// is kept (rather than multiplying by a cached reciprocal) so the result
/// is bit-identical to the uncached form -- the completeness tests compare
/// miner output against an oracle that recomputes scores from scratch.
inline double CoherenceScoreCached(const double* row, int ck, int ck1,
                                   double denom) {
  return (row[ck1] - row[ck]) / denom;
}

/// The coherence score of Equation 7:
///
///   H(i, c1, c2, ck, ck1) = (d_i,ck1 - d_i,ck) / (d_i,c2 - d_i,c1)
///
/// where (c1, c2) is the baseline condition pair of the chain and
/// (ck, ck1) the adjacent pair being scored.  `row` is the gene's profile
/// indexed by condition id.  By Lemma 3.2, two genes are in a
/// shifting-and-scaling relationship on the chain iff all their adjacent
/// scores agree; n-members produce the same positive scores as p-members
/// because numerator and denominator flip sign together.
inline double CoherenceScore(const double* row, int c1, int c2, int ck,
                             int ck1) {
  return CoherenceScoreCached(row, ck, ck1, row[c2] - row[c1]);
}

/// Pruning (4) pre-screen over one scored column `h[0, n)`: returns false
/// only when no `min_g` of the scores fit in a window of span <= `eps` --
/// the same `hs[hi] - hs[lo] <= eps` test the miner's sliding window applies
/// to the sorted column -- so a false answer lets the caller skip the sort
/// and the window scan.  true means "maybe": the exact scan decides.
///
/// O(n) and allocation-free once `counts` has grown: scores are counted into
/// buckets of width max(eps, range/n) * (1 + margin), at most n + 1 of them,
/// and every span <= eps lies within two adjacent buckets, so a column
/// whose adjacent bucket pairs all hold fewer than `min_g` scores has no
/// window.  Non-finite scores, a non-finite range or a subnormal bucket
/// width answer true (DESIGN.md, "Coherence pre-screen", has the proof).
bool CoherenceWindowPossible(const double* h, int n, double eps, int min_g,
                             std::vector<int>* counts);

/// One half (the p- or the n-members) of a DFS node, as the score-panel
/// fill reads it: per member i in [0, count), its gene id, its baseline
/// denominator and its `words`-word row of conditions it can extend to.
struct PanelMembers {
  const int* gene = nullptr;
  const double* denom = nullptr;
  const uint64_t* live = nullptr;
  int count = 0;
  int words = 0;
};

/// Member-major fill of a node's coherence-score panel (DESIGN.md, "Score
/// panel").  For each member i in ascending order, and each condition c set
/// in both its live row and `mask`, writes the entry (score, i) at slot
/// cursor[c]++ of the columns `h` / `idx`, where, with row = matrix +
/// gene[i] * stride,
///
///   score = (row[c] - row[head]) / denom[i]
///
/// -- the Eq. 7 score as CoherenceScoreCached computes it, the same two
/// IEEE operations in the same order.  Each member's matrix row is read
/// once, contiguously; entries of one column land in member order.
void FillScorePanel(const PanelMembers& members, const double* matrix,
                    int64_t stride, int head, const uint64_t* mask,
                    int* cursor, double* h, int32_t* idx);

/// All adjacent coherence scores of `row` along `chain` (size chain-1, the
/// first entry is always exactly 1 by construction).
std::vector<double> ChainCoherenceScores(const double* row,
                                         const std::vector<int>& chain);

/// Fits d_j = s1 * d_i + s2 between two gene profiles restricted to `conds`
/// and reports the scaling/shifting factors.  Returns false if degenerate.
bool FitPairShiftScale(const matrix::MatrixStore& data, int gene_i,
                       int gene_j, const std::vector<int>& conds, double* s1,
                       double* s2);

/// Independent oracle for Definition 3.2: checks that `cluster` is a valid
/// reg-cluster of `data` under thresholds (gamma, epsilon), using only
/// first-principles pairwise checks (no RWave machinery):
///
///  (1) every p-member's expression strictly increases along the chain and
///      every pairwise difference exceeds gamma_i = gamma * row-range
///      (equivalent to the chain being pointer-linked in RWave^gamma);
///      n-members symmetric, decreasing;
///  (2) for every adjacent chain pair, the coherence scores of all member
///      genes lie within a window of width epsilon (+ tolerance `slack` for
///      floating-point robustness).
///
/// On failure returns false and, if `why` is non-null, stores a description.
bool ValidateRegCluster(const matrix::MatrixStore& data,
                        const RegCluster& cluster, double gamma,
                        double epsilon, std::string* why = nullptr,
                        double slack = 1e-9);

/// As above, but with an explicit regulation-threshold policy (the plain
/// overload uses the paper's default range-fraction policy, Eq. 4).
bool ValidateRegCluster(const matrix::MatrixStore& data,
                        const RegCluster& cluster, const GammaSpec& spec,
                        double epsilon, std::string* why = nullptr,
                        double slack = 1e-9);

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_COHERENCE_H_
