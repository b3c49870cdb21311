// Vertical successor-bitmap index over a set of RWave^gamma models.
//
// The miner's inner loop asks three questions for a (gene, condition,
// candidate) triple:
//   * is the candidate a regulation successor (predecessor) of the chain
//     head in this gene's model?                      (Lemma 3.1)
//   * can a chain through the candidate still reach MinC conditions?
//     (MaxChainUp / MaxChainDown bound, pruning 2)
//   * which conditions are reachable at all from the current members?
//     (candidate generation)
// Answering them through RWaveModel costs a pointer binary search plus
// several dependent loads per triple.  This index bakes the answers into
// per-gene bitmaps over *condition ids* (one uint64 word per 64
// conditions, util/bitset.h):
//
//   SuccessorRow(h, g)     bit c set  <=>  condition c is a regulation
//                                          successor of condition h in
//                                          gene g's model
//   PredecessorRow(h, g)   the mirror (regulation predecessors)
//   UpEligible(g, need)    bit c set  <=>  MaxChainUp(position of c) >= need
//   DownEligible(g, need)  the mirror (MaxChainDown)
//
// so candidate generation is a word-wise OR of member rows, the successor
// test is one bit probe, and the MinC test is another.  The rows are pure
// re-encodings of RWaveModel answers -- every bit is defined by the model
// query it replaces -- which is why the miner's output stays bit-identical
// (tests/core/rwave_index_test.cc proves the equivalence exhaustively).
//
// Layout: the tables are condition-major (and need-major), [h][g][word].
// Every member of a search node shares the node's chain head, so the
// node's candidate rows are one gene-ascending run inside one condition
// slab, and its eligibility rows one run inside one need slab.
//
// Memory: (2*C + 2*(max_need+1)) * G * W * 8 bytes plus the W-word ones
// row, with W = ceil(C/64); there is no per-gene position table.  That is
// 752 bytes per gene at the paper's 40 conditions and MinC 6, ~6.4 KB at
// 130.  Build is one O(C) suffix/prefix sweep per gene over queries the
// model answers in O(log P).

#ifndef REGCLUSTER_CORE_RWAVE_INDEX_H_
#define REGCLUSTER_CORE_RWAVE_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/rwave.h"
#include "util/bitset.h"

namespace regcluster {
namespace core {

class RWaveBitmapIndex {
 public:
  /// Reusable per-builder scratch for BuildGene(): the suffix/prefix
  /// position bitmaps of the gene being baked.  One instance per thread;
  /// sized lazily on first use.
  struct BuildScratch {
    std::vector<uint64_t> suffix;
    std::vector<uint64_t> prefix;
  };

  /// Builds the index for all `models` (one per gene, each over
  /// `num_conditions` conditions).  Eligibility rows are materialized for
  /// chain requirements 0..max_chain_need; queries clamp into that range,
  /// so pass the largest MinC the caller will ask about.  The ceiling
  /// itself clamps to num_conditions + 1 (rows past it are provably
  /// all-zero), so an oversized MinC cannot inflate the tables.
  void Build(const std::vector<RWaveModel>& models, int num_conditions,
             int max_chain_need);

  /// Striped build, for callers that materialize models lazily or bake
  /// genes in parallel: BeginBuild() sizes every table (all rows zero,
  /// shared ones row filled), then each gene is baked independently with
  /// BuildGene().  BuildGene() writes only gene `gene`'s disjoint rows,
  /// so distinct genes may be baked concurrently from different threads
  /// (each with its own scratch); the result is byte-identical to Build()
  /// regardless of order or interleaving.  Every gene must be baked exactly
  /// once before the index is queried.
  void BeginBuild(int num_genes, int num_conditions, int max_chain_need);
  void BuildGene(int gene, const RWaveModel& model, BuildScratch* scratch);

  int num_genes() const { return num_genes_; }
  int num_conditions() const { return num_conditions_; }
  /// Words per bitmap row.
  int num_words() const { return words_; }
  int max_chain_need() const { return max_chain_need_; }

  /// Bitmap of the regulation successors of condition `cond` in gene
  /// `gene`'s model; the all-zero row when there are none.
  const uint64_t* SuccessorRow(int cond, int gene) const {
    return up_cand_.data() + RowOffset(cond, gene);
  }

  /// Bitmap of the regulation predecessors of condition `cond`.
  const uint64_t* PredecessorRow(int cond, int gene) const {
    return down_cand_.data() + RowOffset(cond, gene);
  }

  /// Bitmap of conditions from which an upward regulation chain of length
  /// >= `need` exists in gene `gene`.  `need` <= 1 yields the all-ones row
  /// (every condition starts a chain of length 1); `need` is clamped to
  /// [0, max_chain_need].
  const uint64_t* UpEligible(int gene, int need) const {
    return up_elig_.data() + RowOffset(Clamp(need), gene);
  }

  /// The downward mirror of UpEligible.
  const uint64_t* DownEligible(int gene, int need) const {
    return down_elig_.data() + RowOffset(Clamp(need), gene);
  }

  /// Row with the first num_conditions() bits set (identity for AND).
  const uint64_t* ones_row() const { return ones_.data(); }

  /// Bit-probe equivalents of the RWaveModel queries, for tests and
  /// non-hot-path callers.
  bool IsUpRegulated(int gene, int cond_lo, int cond_hi) const {
    return util::TestBit(SuccessorRow(cond_lo, gene), cond_hi);
  }
  bool ChainEligibleUp(int gene, int cond, int need) const {
    return util::TestBit(UpEligible(gene, need), cond);
  }
  bool ChainEligibleDown(int gene, int cond, int need) const {
    return util::TestBit(DownEligible(gene, need), cond);
  }

  /// Total heap footprint of the baked tables, for reporting.
  size_t MemoryBytes() const {
    return (up_cand_.capacity() + down_cand_.capacity() +
            up_elig_.capacity() + down_elig_.capacity() + ones_.capacity()) *
               sizeof(uint64_t);
  }

 private:
  /// Word offset of gene `gene`'s row in slab `slab` (a condition or a
  /// need) of any table.
  size_t RowOffset(int slab, int gene) const {
    return (static_cast<size_t>(slab) * num_genes_ + gene) * words_;
  }

  int Clamp(int need) const {
    if (need < 0) return 0;
    return need > max_chain_need_ ? max_chain_need_ : need;
  }

  int num_genes_ = 0;
  int num_conditions_ = 0;
  int words_ = 0;
  int max_chain_need_ = 0;
  std::vector<uint64_t> up_cand_;   // (cond, gene) -> successor-cond bitmap
  std::vector<uint64_t> down_cand_; // (cond, gene) -> predecessor-cond bitmap
  std::vector<uint64_t> up_elig_;   // (need, gene) -> MaxChainUp >= need
  std::vector<uint64_t> down_elig_; // (need, gene) -> MaxChainDown >= need
  std::vector<uint64_t> ones_;
};

}  // namespace core
}  // namespace regcluster

#endif  // REGCLUSTER_CORE_RWAVE_INDEX_H_
