// The RWave^gamma model (Definition 3.1 of the paper).
//
// For one gene, the model is (a) the gene's conditions sorted in
// non-descending order of expression value, and (b) the set of *bordering
// regulation pointers*: non-embedded (tail, head) position pairs such that
// every condition at position <= tail is an up-regulation predecessor
// (difference > gamma_i) of every condition at position >= head.
//
// The model answers, in O(log P) where P is the number of pointers:
//   * is condition b a regulation successor of condition a? (Lemma 3.1)
//   * what is the nearest position reachable by one regulated step up/down?
//   * how long is the longest regulation chain starting at a position,
//     growing upward or downward?  (used by the MinC pruning)
//
// Ties in expression value are ordered by condition id (deterministic); tied
// conditions are never regulated against each other since regulation is a
// strict inequality, so the tie order does not affect which regulation
// chains exist.

#ifndef REGCLUSTER_CORE_RWAVE_H_
#define REGCLUSTER_CORE_RWAVE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "matrix/store.h"

namespace regcluster {
namespace util {
namespace simd {
struct SortScratch;
}  // namespace simd
}  // namespace util
namespace core {

/// One bordering regulation pointer, in *position* coordinates (indices into
/// the sorted order).  Certifies Reg(up) for every pair (q <= tail_pos,
/// p >= head_pos).  Pointers of a model are strictly increasing in both
/// coordinates (non-embedding, Definition 3.1(2)).
struct RegulationPointer {
  int tail_pos;  ///< position of the pointer's predecessor end (lower value)
  int head_pos;  ///< position of the pointer's successor end (higher value)

  bool operator==(const RegulationPointer& o) const {
    return tail_pos == o.tail_pos && head_pos == o.head_pos;
  }
};

/// RWave^gamma model of a single gene.
class RWaveModel {
 public:
  /// Builds the model for `n` expression values with an *absolute* regulation
  /// threshold: conditions a, b are regulated iff |values[a] - values[b]| >
  /// gamma_abs.  Values must be finite (impute missing values first).
  static RWaveModel Build(const double* values, int n, double gamma_abs);

  /// Same, reusing caller-owned sort buffers so bulk builders (RWaveSet,
  /// SharedGammaModel) do not allocate them per gene.  `scratch` may be
  /// shared across calls but not across threads.
  static RWaveModel Build(const double* values, int n, double gamma_abs,
                          util::simd::SortScratch* scratch);

  /// Convenience overload for a whole matrix row with the paper's relative
  /// threshold gamma in [0, 1]: gamma_i = gamma * (row max - row min), Eq. 4.
  static RWaveModel BuildForGene(const matrix::MatrixStore& data, int gene,
                                 double gamma);

  int num_conditions() const { return static_cast<int>(order_.size()); }

  /// Absolute threshold the model was built with.
  double gamma_abs() const { return gamma_abs_; }

  /// Position (rank in sorted order) of condition `cond`.
  int position(int cond) const { return pos_[static_cast<size_t>(cond)]; }

  /// Condition id at sorted position `pos`.
  int condition_at(int pos) const { return order_[static_cast<size_t>(pos)]; }

  /// Expression value at sorted position `pos`.
  double value_at(int pos) const { return sorted_values_[static_cast<size_t>(pos)]; }

  /// The bordering regulation pointers, sorted (strictly increasing in both
  /// coordinates).
  const std::vector<RegulationPointer>& pointers() const { return pointers_; }

  /// True iff `cond_hi` is a regulation successor of `cond_lo` for this gene
  /// (equivalently the pair's expression difference exceeds gamma_abs with
  /// value(cond_hi) > value(cond_lo)).  Lemma 3.1 lookup.
  bool IsUpRegulated(int cond_lo, int cond_hi) const;

  /// Smallest position reachable from `pos` by one regulated step upward:
  /// the head of the first pointer with tail >= pos.  Returns -1 if no
  /// regulated step up exists.  Every position >= the returned value is a
  /// regulation successor of `pos`.
  int FirstSuccessorPos(int pos) const;

  /// Largest position reachable from `pos` by one regulated step downward:
  /// the tail of the last pointer with head <= pos.  Returns -1 if none.
  /// Every position <= the returned value is a regulation predecessor.
  int LastPredecessorPos(int pos) const;

  /// Length of the longest regulation chain starting at `pos` and growing
  /// upward (including `pos` itself); >= 1.
  int MaxChainUp(int pos) const { return max_up_[static_cast<size_t>(pos)]; }

  /// Length of the longest regulation chain starting at `pos` and growing
  /// downward (including `pos` itself); >= 1.
  int MaxChainDown(int pos) const { return max_down_[static_cast<size_t>(pos)]; }

  /// Heap bytes held by this model's tables (capacity, not size -- the
  /// figure the ModelCache budget charges per entry).
  size_t MemoryBytes() const {
    return (order_.capacity() + pos_.capacity() + max_up_.capacity() +
            max_down_.capacity()) *
               sizeof(int) +
           sorted_values_.capacity() * sizeof(double) +
           pointers_.capacity() * sizeof(RegulationPointer);
  }

 private:
  double gamma_abs_ = 0.0;
  std::vector<int> order_;            // position -> condition id
  std::vector<int> pos_;              // condition id -> position
  std::vector<double> sorted_values_; // position -> value
  std::vector<RegulationPointer> pointers_;
  std::vector<int> max_up_;           // position -> longest chain upward
  std::vector<int> max_down_;         // position -> longest chain downward
};

/// RWave models for every gene of a matrix, built with the paper's relative
/// threshold (Eq. 4).
class RWaveSet {
 public:
  /// Builds all models.  `gamma` is the user parameter in [0, 1].
  /// `num_threads` > 1 builds gene stripes in parallel on a TaskPool; the
  /// models land in pre-assigned slots, so the result is byte-identical at
  /// any thread count (0 = hardware concurrency).
  explicit RWaveSet(const matrix::MatrixStore& data, double gamma,
                    int num_threads = 1);

  const RWaveModel& model(int gene) const {
    return models_[static_cast<size_t>(gene)];
  }
  int num_genes() const { return static_cast<int>(models_.size()); }
  double gamma() const { return gamma_; }

 private:
  double gamma_;
  std::vector<RWaveModel> models_;
};

/// Builds one RWave model per gene of `data`, with the absolute threshold
/// for gene g supplied by `gamma_abs_fn(g)`.  num_threads != 1 stripes gene
/// ranges over a TaskPool (0 = hardware concurrency); every model lands in
/// its pre-assigned slot, so the output is byte-identical at any thread
/// count.  This is the bulk builder behind RWaveSet, and with
/// RWaveBitmapIndex::Build the two-pass reference for the miner's one-pass
/// SharedGammaModel::Build.
std::vector<RWaveModel> BuildRWaveModels(
    const matrix::MatrixStore& data,
    const std::function<double(int)>& gamma_abs_fn, int num_threads);

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_RWAVE_H_
