// The reg-cluster result type (Definition 3.2) and generic bicluster helpers
// shared with the baseline miners.

#ifndef REGCLUSTER_CORE_BICLUSTER_H_
#define REGCLUSTER_CORE_BICLUSTER_H_

#include <string>
#include <vector>

namespace regcluster {
namespace core {

/// A mined reg-cluster: an ordered representative regulation chain of
/// condition ids plus the genes following it (p-members) and the genes
/// following its inversion (n-members).
struct RegCluster {
  /// Representative regulation chain c_k1 <- c_k2 <- ... <- c_km: condition
  /// ids ordered so that every p-member's expression strictly increases and
  /// every n-member's strictly decreases along it.
  std::vector<int> chain;
  /// Positively co-regulated genes (sorted ascending).
  std::vector<int> p_genes;
  /// Negatively co-regulated genes (sorted ascending).
  std::vector<int> n_genes;

  int num_genes() const {
    return static_cast<int>(p_genes.size() + n_genes.size());
  }
  int num_conditions() const { return static_cast<int>(chain.size()); }

  /// Sorted union of p- and n-members.
  std::vector<int> AllGenes() const;

  /// Condition ids of the chain in sorted (unordered-set) form.
  std::vector<int> SortedConditions() const;

  /// Canonical duplicate-detection key: the ordered chain plus the sorted
  /// gene set.  Two clusters with equal keys are the same output.
  std::string Key() const;

  bool operator==(const RegCluster& o) const {
    return chain == o.chain && p_genes == o.p_genes && n_genes == o.n_genes;
  }
};

/// A plain (unordered) bicluster: the output type of the baseline miners and
/// the input type of the evaluation module.
struct Bicluster {
  std::vector<int> genes;       ///< sorted ascending
  std::vector<int> conditions;  ///< sorted ascending

  int num_genes() const { return static_cast<int>(genes.size()); }
  int num_conditions() const { return static_cast<int>(conditions.size()); }
  int64_t NumCells() const {
    return static_cast<int64_t>(genes.size()) *
           static_cast<int64_t>(conditions.size());
  }

  bool operator==(const Bicluster& o) const {
    return genes == o.genes && conditions == o.conditions;
  }
};

/// Drops ordering information: converts a reg-cluster to a plain bicluster.
Bicluster ToBicluster(const RegCluster& c);

/// Number of shared cells |(Xa n Xb) x (Ya n Yb)| of two biclusters.
int64_t SharedCells(const Bicluster& a, const Bicluster& b);

/// Shared cells divided by the cell count of the *smaller* cluster -- the
/// "percentage of overlapping cells" statistic quoted in Section 5.2.
/// Returns 0 when either cluster is empty.
double OverlapFraction(const Bicluster& a, const Bicluster& b);

/// True iff `inner.genes` is a subset of `outer.genes` and
/// `inner.conditions` a subset of `outer.conditions` (both sorted).
bool IsSubcluster(const Bicluster& inner, const Bicluster& outer);

/// True iff `a` is dominated by `b`: a's genes are a subset of b's genes and
/// a's chain is a contiguous subsequence of b's chain or of b's chain
/// reversed.  Used by the optional maximal-only output filter.
bool IsDominated(const RegCluster& a, const RegCluster& b);

/// Removes clusters dominated (IsDominated) by another cluster in the set.
/// Stable order; of exact duplicates and of mutually dominating clusters the
/// earlier one is kept.  Quadratic in the cluster count, allocation-free per
/// pair.
std::vector<RegCluster> RemoveDominated(std::vector<RegCluster> clusters);

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_BICLUSTER_H_
