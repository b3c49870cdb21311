#include "core/rwave_index.h"

#include <cstring>

#include "util/bitset.h"

namespace regcluster {
namespace core {

void RWaveBitmapIndex::Build(const std::vector<RWaveModel>& models,
                             int num_conditions, int max_chain_need) {
  BeginBuild(static_cast<int>(models.size()), num_conditions, max_chain_need);
  BuildScratch scratch;
  for (int g = 0; g < num_genes_; ++g) {
    BuildGene(g, models[static_cast<size_t>(g)], &scratch);
  }
}

void RWaveBitmapIndex::BeginBuild(int num_genes, int num_conditions,
                                  int max_chain_need) {
  num_genes_ = num_genes;
  num_conditions_ = num_conditions;
  words_ = util::WordsForBits(num_conditions);
  max_chain_need_ = max_chain_need < 1 ? 1 : max_chain_need;
  // No chain exceeds num_conditions, so every eligibility row past
  // num_conditions + 1 would be all-zero anyway; ceilings above that clamp
  // to num_conditions + 1 (its row stays all-zero, and queries with a
  // larger need clamp onto it) instead of sizing the tables O(need).  An
  // unchecked request-supplied MinC must not become a giant allocation.
  if (max_chain_need_ > num_conditions_ + 1) {
    max_chain_need_ = num_conditions_ + 1;
  }

  const size_t g_count = static_cast<size_t>(num_genes_);
  const size_t c_count = static_cast<size_t>(num_conditions_);
  const size_t w_count = static_cast<size_t>(words_);
  const size_t need_rows = static_cast<size_t>(max_chain_need_) + 1;

  pos_.assign(g_count * c_count, 0);
  up_cand_.assign(g_count * c_count * w_count, 0);
  down_cand_.assign(g_count * c_count * w_count, 0);
  up_elig_.assign(g_count * need_rows * w_count, 0);
  down_elig_.assign(g_count * need_rows * w_count, 0);
  ones_.assign(w_count, 0);
  if (num_conditions_ == 0) return;
  util::FillOnes(ones_.data(), num_conditions_);
}

void RWaveBitmapIndex::BuildGene(int gene, const RWaveModel& m,
                                 BuildScratch* scratch) {
  if (num_conditions_ == 0) return;
  const size_t c_count = static_cast<size_t>(num_conditions_);
  const size_t w_count = static_cast<size_t>(words_);
  const size_t need_rows = static_cast<size_t>(max_chain_need_) + 1;
  const int g = gene;
  // Per-gene scratch: bitmap of conditions at sorted positions >= p
  // (suffix) and <= p (prefix).  suffix has C+1 rows so row C is empty.
  std::vector<uint64_t>& suffix = scratch->suffix;
  std::vector<uint64_t>& prefix = scratch->prefix;
  suffix.resize((c_count + 1) * w_count);
  prefix.resize(c_count * w_count);

  int32_t* pos_row = pos_.data() + static_cast<size_t>(g) * c_count;
  for (int c = 0; c < num_conditions_; ++c) {
    pos_row[c] = static_cast<int32_t>(m.position(c));
  }

  std::memset(suffix.data() + c_count * w_count, 0,
              w_count * sizeof(uint64_t));
  for (int p = num_conditions_ - 1; p >= 0; --p) {
    uint64_t* row = suffix.data() + static_cast<size_t>(p) * w_count;
    util::CopyWords(row, row + w_count, words_);
    util::SetBit(row, m.condition_at(p));
  }
  for (int p = 0; p < num_conditions_; ++p) {
    uint64_t* row = prefix.data() + static_cast<size_t>(p) * w_count;
    if (p > 0) util::CopyWords(row, row - w_count, words_);
    else std::memset(row, 0, w_count * sizeof(uint64_t));
    util::SetBit(row, m.condition_at(p));
  }

  // Successor / predecessor rows: every position >= FirstSuccessorPos is
  // a regulation successor (Lemma 3.1), so the row is one suffix copy;
  // no successor leaves the row all-zero (already cleared by BeginBuild).
  uint64_t* up_base =
      up_cand_.data() + static_cast<size_t>(g) * c_count * w_count;
  uint64_t* down_base =
      down_cand_.data() + static_cast<size_t>(g) * c_count * w_count;
  for (int p = 0; p < num_conditions_; ++p) {
    const int h = m.FirstSuccessorPos(p);
    if (h >= 0) {
      util::CopyWords(up_base + static_cast<size_t>(p) * w_count,
                      suffix.data() + static_cast<size_t>(h) * w_count, words_);
    }
    const int t = m.LastPredecessorPos(p);
    if (t >= 0) {
      util::CopyWords(down_base + static_cast<size_t>(p) * w_count,
                      prefix.data() + static_cast<size_t>(t) * w_count, words_);
    }
  }

  // Eligibility rows.  need <= 1 is the all-ones row (MaxChain* >= 1 for
  // every position); larger needs test the longest-chain tables.
  uint64_t* up_e = up_elig_.data() +
                   static_cast<size_t>(g) * need_rows * w_count;
  uint64_t* down_e = down_elig_.data() +
                     static_cast<size_t>(g) * need_rows * w_count;
  util::FillOnes(up_e, num_conditions_);
  util::FillOnes(down_e, num_conditions_);
  if (max_chain_need_ >= 1) {
    util::CopyWords(up_e + w_count, up_e, words_);
    util::CopyWords(down_e + w_count, down_e, words_);
  }
  for (int need = 2; need <= max_chain_need_; ++need) {
    uint64_t* up_row = up_e + static_cast<size_t>(need) * w_count;
    uint64_t* down_row = down_e + static_cast<size_t>(need) * w_count;
    for (int p = 0; p < num_conditions_; ++p) {
      const int c = m.condition_at(p);
      if (m.MaxChainUp(p) >= need) util::SetBit(up_row, c);
      if (m.MaxChainDown(p) >= need) util::SetBit(down_row, c);
    }
  }
}

}  // namespace core
}  // namespace regcluster
