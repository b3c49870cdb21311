#include "core/bicluster.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>

#include "util/string_util.h"

namespace regcluster {
namespace core {

std::vector<int> RegCluster::AllGenes() const {
  std::vector<int> out;
  out.reserve(p_genes.size() + n_genes.size());
  std::merge(p_genes.begin(), p_genes.end(), n_genes.begin(), n_genes.end(),
             std::back_inserter(out));
  return out;
}

std::vector<int> RegCluster::SortedConditions() const {
  std::vector<int> out = chain;
  std::sort(out.begin(), out.end());
  return out;
}

std::string RegCluster::Key() const {
  std::string key;
  key.reserve((chain.size() + p_genes.size() + n_genes.size()) * 6);
  for (int c : chain) key += util::StrFormat("%d,", c);
  key += '|';
  for (int g : AllGenes()) key += util::StrFormat("%d,", g);
  return key;
}

Bicluster ToBicluster(const RegCluster& c) {
  Bicluster b;
  b.genes = c.AllGenes();
  b.conditions = c.SortedConditions();
  return b;
}

namespace {

/// Size of the intersection of two sorted int vectors.
int64_t IntersectionSize(const std::vector<int>& a, const std::vector<int>& b) {
  int64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

/// True iff sorted `a` is a subset of sorted `b`.
bool IsSubset(const std::vector<int>& a, const std::vector<int>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// True iff `sub` occurs as a contiguous run of `chain` read forward or
/// reversed.  The empty chain occurs in every chain.
bool ChainContains(const std::vector<int>& chain, const std::vector<int>& sub) {
  if (sub.size() > chain.size()) return false;
  if (sub.empty()) return true;
  return std::search(chain.begin(), chain.end(), sub.begin(), sub.end()) !=
             chain.end() ||
         std::search(chain.rbegin(), chain.rend(), sub.begin(), sub.end()) !=
             chain.rend();
}

/// Forward iterator over a cluster's member list -- the merge of p_genes and
/// n_genes that AllGenes() returns -- read in place without a copy.  Takes
/// from the two runs in exactly std::merge's order.
class MemberIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = int;
  using difference_type = std::ptrdiff_t;
  using pointer = const int*;
  using reference = const int&;

  MemberIterator() = default;
  MemberIterator(const int* p, const int* p_end, const int* n,
                 const int* n_end)
      : p_(p), p_end_(p_end), n_(n), n_end_(n_end) {}

  reference operator*() const { return TakesP() ? *p_ : *n_; }
  MemberIterator& operator++() {
    ++(TakesP() ? p_ : n_);
    return *this;
  }
  MemberIterator operator++(int) {
    MemberIterator old = *this;
    ++*this;
    return old;
  }
  bool operator==(const MemberIterator& o) const {
    return p_ == o.p_ && n_ == o.n_;
  }

 private:
  bool TakesP() const { return n_ == n_end_ || (p_ != p_end_ && !(*n_ < *p_)); }

  const int* p_ = nullptr;
  const int* p_end_ = nullptr;
  const int* n_ = nullptr;
  const int* n_end_ = nullptr;
};

/// The dominance rule, over a chain and a member range per cluster: `a` is
/// dominated by `b` iff a's chain occurs contiguously in b's chain (forward
/// or reversed) and a's members are a sub-multiset of b's.  The chain test
/// runs first because it is the cheaper one.
template <typename It>
bool Dominated(const std::vector<int>& a_chain, It a_first, It a_last,
               const std::vector<int>& b_chain, It b_first, It b_last) {
  return ChainContains(b_chain, a_chain) &&
         std::includes(b_first, b_last, a_first, a_last);
}

/// OR of bit (g mod 64) over the members: a subset's signature has no bit
/// its superset's lacks.
uint64_t MemberSignature(const std::vector<int>& genes) {
  uint64_t sig = 0;
  for (int g : genes) sig |= uint64_t{1} << (g & 63);
  return sig;
}

}  // namespace

int64_t SharedCells(const Bicluster& a, const Bicluster& b) {
  return IntersectionSize(a.genes, b.genes) *
         IntersectionSize(a.conditions, b.conditions);
}

double OverlapFraction(const Bicluster& a, const Bicluster& b) {
  const int64_t cells_a = a.NumCells();
  const int64_t cells_b = b.NumCells();
  const int64_t smaller = std::min(cells_a, cells_b);
  if (smaller == 0) return 0.0;
  return static_cast<double>(SharedCells(a, b)) /
         static_cast<double>(smaller);
}

bool IsSubcluster(const Bicluster& inner, const Bicluster& outer) {
  return IsSubset(inner.genes, outer.genes) &&
         IsSubset(inner.conditions, outer.conditions);
}

bool IsDominated(const RegCluster& a, const RegCluster& b) {
  const auto members = [](const RegCluster& c) {
    const int* p = c.p_genes.data();
    const int* n = c.n_genes.data();
    const int* p_end = p + c.p_genes.size();
    const int* n_end = n + c.n_genes.size();
    return std::pair{MemberIterator(p, p_end, n, n_end),
                     MemberIterator(p_end, p_end, n_end, n_end)};
  };
  const auto [a_first, a_last] = members(a);
  const auto [b_first, b_last] = members(b);
  return Dominated(a.chain, a_first, a_last, b.chain, b_first, b_last);
}

std::vector<RegCluster> RemoveDominated(std::vector<RegCluster> clusters) {
  // Everything that depends on one cluster is computed once, so the pair
  // loop allocates nothing and tries the cheap necessary conditions first.
  const size_t n = clusters.size();
  std::vector<std::vector<int>> genes(n);
  std::vector<uint64_t> signature(n);
  for (size_t i = 0; i < n; ++i) {
    genes[i] = clusters[i].AllGenes();
    signature[i] = MemberSignature(genes[i]);
  }
  std::vector<bool> dead(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || dead[j]) continue;
      // A duplicate of i and a cluster dominated by i both have members
      // inside i's, so neither can fail these two tests.
      if (genes[j].size() > genes[i].size()) continue;
      if ((signature[j] & ~signature[i]) != 0) continue;
      if (clusters[i] == clusters[j]) {
        // Exact duplicate: keep the earlier one.
        if (j > i) dead[j] = true;
        continue;
      }
      if (Dominated(clusters[j].chain, genes[j].cbegin(), genes[j].cend(),
                    clusters[i].chain, genes[i].cbegin(), genes[i].cend())) {
        dead[j] = true;
      }
    }
  }
  std::vector<RegCluster> out;
  for (size_t i = 0; i < n; ++i) {
    if (!dead[i]) out.push_back(std::move(clusters[i]));
  }
  return out;
}

}  // namespace core
}  // namespace regcluster
