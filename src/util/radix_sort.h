// Stable LSD radix sort of the miner's scored columns, replacing the
// comparator index-sort (std::sort over (score asc, gene asc)) with
// byte-for-byte identical output.
//
// Why a radix sort can reproduce a comparator sort exactly:
//
//   * Key order == value order.  OrderKey() maps an IEEE-754 double to a
//     uint64 whose unsigned order equals the double's numeric order: the
//     sign bit is flipped for non-negative values and the whole word is
//     complemented for negative ones (the standard order-preserving bijection
//     for two's-complement radix sorting of floats).  The flip predicate is
//     `d < 0.0`, which is false for -0.0, so both zeros share one key --
//     exactly the comparator's behaviour, where -0.0 != +0.0 is false and the
//     pair falls through to the gene tiebreak.  No quantization anywhere:
//     distinct finite values (including denormals) get distinct keys in the
//     same order, equal values get equal keys.
//
//   * Ties resolve by construction.  The sort runs over a *base order* that
//     is already gene-ascending: the scored columns are two gene-ascending
//     halves (p-members then n-members, each inheriting the by-gene member
//     order), so MergeByGene() produces the fully gene-ascending index
//     permutation in O(n).  An LSD radix pass is stable, so equal scores
//     keep that base order -- which is precisely the comparator's
//     `gene[a] < gene[b]` tiebreak.  The two halves hold disjoint gene sets
//     wherever the miner sorts (chains of length >= 2), so (score, gene) is
//     a strict total order and *any* correct sort yields the identical
//     permutation.
//
// Speed comes from the column shape: the average scored column is ~80
// entries (BENCH_miner.json: coherence_scores / coherence_divide_calls), so
// the sort is dominated by branch mispredictions in the comparator, not by
// O(n log n) work.  Small columns take a stable insertion sort on the packed
// (key, index) pairs; mid-size columns take a hybrid of one or two counting
// passes on the top varying bytes plus a stable full-key insertion sweep
// (full 8-pass LSD loses to its own 256-entry prefix sums at these sizes);
// large columns take 8-bit LSD passes that skip bytes on which all keys
// agree (detected with one OR-accumulated XOR sweep).
//
// The miner's scored-column sort (RadixSortScored) and RWaveModel::Build's
// per-gene value sort (SortPairsByKeyStable) both run here; it is portable
// scalar code.

#ifndef REGCLUSTER_UTIL_RADIX_SORT_H_
#define REGCLUSTER_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace regcluster {
namespace util {

/// Reusable buffers for one sorting worker (the miner keeps one per
/// MinerScratch so the hot loop never allocates after warm-up).
struct SortScratch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> keys_tmp;
  std::vector<int> idx;
  std::vector<int> idx_tmp;
  std::vector<uint16_t> digits;     ///< per-element 16-bit digits (hybrid)
  std::vector<int32_t> wide_hist;   ///< histogram for the 16-bit window

  void Reserve(int n) {
    if (static_cast<int>(keys.size()) < n) {
      keys.resize(static_cast<size_t>(n));
      keys_tmp.resize(static_cast<size_t>(n));
      idx.resize(static_cast<size_t>(n));
      idx_tmp.resize(static_cast<size_t>(n));
      digits.resize(static_cast<size_t>(n));
    }
  }

  int64_t ApproxBytes() const {
    return static_cast<int64_t>(keys.capacity() * sizeof(uint64_t) * 2 +
                                idx.capacity() * sizeof(int) * 2 +
                                digits.capacity() * sizeof(uint16_t) +
                                wide_hist.capacity() * sizeof(int32_t));
  }
};

/// Columns at or below this size take the stable insertion sort; above it,
/// LSD radix passes.  Tuned on the BENCH_miner.json synthetic workload
/// (average column ~80 entries).
inline constexpr int kRadixInsertionCutoff = 32;

/// Columns in (kRadixInsertionCutoff, kRadixHybridCutoff] run stable
/// counting passes anchored at the most significant varying byte, then
/// finish with a stable full-key insertion pass: at these sizes (the
/// miner's columns concentrate at n = 48..96) full 8-pass LSD loses to its
/// own 256-entry prefix sums.  Any stable partition by high key bits leaves
/// misorder only inside runs that agree on those bits, and a stable
/// insertion on the full keys then produces exactly the full-LSD result,
/// so the hybrid stays byte-identical.
inline constexpr int kRadixHybridCutoff = 320;

/// When the top byte leaves a tie-bucket larger than this, the hybrid
/// runs one extra counting pass on the next-lower varying byte before it
/// (LSD order) to keep the insertion pass short.
inline constexpr int kRadixSecondPassBucket = 48;

/// The hybrid first tries a single counting pass over the top *two*
/// varying bytes as one 16-bit digit, offset by the smallest digit seen so
/// the histogram spans only the occupied range.  The miner's score columns
/// are tightly clustered, so that range is usually a few dozen values --
/// one scatter pass replaces the two byte-wide passes and leaves near-sorted
/// runs for the insertion sweep.  When the spread exceeds this many
/// distinct digit values the per-sort memset stops paying and the byte-wide
/// path runs instead.
inline constexpr int kRadixWideDigitRange = 4096;

/// Order-preserving bijection double -> uint64: unsigned key order equals
/// numeric order, with -0.0 and +0.0 mapping to the same key (the comparator
/// treats them as a tie).  NaN never occurs in a scored column (the matrix
/// rejects missing values and denominators are nonzero by the strict
/// regulation-step contract); it would be comparator UB anyway.
inline uint64_t OrderKey(double d) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const uint64_t u = std::bit_cast<uint64_t>(d);
  return d < 0.0 ? ~u : (u | kSign);
}

/// Inverse of OrderKey up to the deliberate -0.0 collapse: round-tripping
/// any double returns the same value bit for bit except -0.0, which comes
/// back as +0.0.  The sorted-column output below is defined through this
/// round trip, and the zero-sign canonicalization is invisible to the
/// miner's window test: a +-0.0 swap can only flip the sign of a zero
/// difference, which compares to the non-negative epsilon identically.
inline double InverseOrderKey(uint64_t k) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return (k & kSign) != 0 ? std::bit_cast<double>(k & ~kSign)
                          : std::bit_cast<double>(~k);
}

/// Merges the two gene-ascending halves [0, split) and [split, total) of a
/// scored column into the fully gene-ascending index permutation `out`.
/// Two-pointer merge; the halves are disjoint wherever the miner sorts, so
/// `<` vs `<=` cannot matter for the final order (stability of the radix
/// passes preserves whichever base order is produced here).
inline void MergeByGene(const int* gene, int split, int total, int* out) {
  int i = 0;
  int j = split;
  int k = 0;
  while (i < split && j < total) {
    out[k++] = gene[i] <= gene[j] ? i++ : j++;
  }
  while (i < split) out[k++] = i++;
  while (j < total) out[k++] = j++;
}

/// Stably sorts the n (scratch->keys[i], scratch->idx[i]) pairs by ascending
/// key, writes the resulting index permutation to `order_out` and the sorted
/// scores -- InverseOrderKey of the sorted keys -- to `sorted_h`.  The
/// scratch arrays are clobbered.  Equal keys keep their incoming order.
inline void SortPairsByKeyStable(int n, SortScratch* scratch, int* order_out,
                                 double* sorted_h) {
  uint64_t* keys = scratch->keys.data();
  int* idx = scratch->idx.data();
  const auto emit = [&](const uint64_t* k_final, const int* i_final) {
    for (int i = 0; i < n; ++i) sorted_h[i] = InverseOrderKey(k_final[i]);
    std::memcpy(order_out, i_final, static_cast<size_t>(n) * sizeof(int));
  };
  if (n <= 1) {
    if (n == 1) emit(keys, idx);
    return;
  }

  if (n <= kRadixInsertionCutoff) {
    for (int i = 1; i < n; ++i) {
      const uint64_t k = keys[i];
      const int v = idx[i];
      int j = i - 1;
      while (j >= 0 && keys[j] > k) {
        keys[j + 1] = keys[j];
        idx[j + 1] = idx[j];
        --j;
      }
      keys[j + 1] = k;
      idx[j + 1] = v;
    }
    emit(keys, idx);
    return;
  }

  // One XOR sweep finds the bytes on which any two keys differ; bytes where
  // all keys agree cannot change the order and their passes are skipped.
  uint64_t diff = 0;
  for (int i = 1; i < n; ++i) diff |= keys[i] ^ keys[0];
  int passes[8];
  int num_passes = 0;
  for (int b = 0; b < 8; ++b) {
    if ((diff >> (8 * b)) & 0xFF) passes[num_passes++] = b;
  }
  if (num_passes == 0) {  // all keys equal: the base order is the answer
    emit(keys, idx);
    return;
  }

  // Ping-pong scatter state shared by both paths below.
  uint64_t* ka = keys;
  uint64_t* kb = scratch->keys_tmp.data();
  int* ia = idx;
  int* ib = scratch->idx_tmp.data();
  const auto counting_pass = [&](int byte, const int32_t* h256) {
    int32_t offs[256];
    int32_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      offs[d] = sum;
      sum += h256[d];
    }
    const int shift = 8 * byte;
    for (int i = 0; i < n; ++i) {
      const int32_t pos = offs[(ka[i] >> shift) & 0xFF]++;
      kb[pos] = ka[i];
      ib[pos] = ia[i];
    }
    std::swap(ka, kb);
    std::swap(ia, ib);
  };

  if (n <= kRadixHybridCutoff) {
    // Mid-size hybrid: one stable counting pass on the most significant
    // varying byte -- widened to a fused 16-bit digit over the top two
    // varying bytes when the top byte alone would leave big tie-buckets --
    // then a stable full-key insertion sweep.  After the counting pass,
    // elements can only be misordered inside runs that agree on every
    // processed byte -- all bytes above the top varying one agree globally --
    // so the insertion sweep moves each element only within its short run and
    // produces exactly the full-LSD permutation.  The prefix sums run over
    // the occupied digit range only: the miner's score columns are tightly
    // clustered, so a byte typically spans a handful of digit values and the
    // full 256-entry prefix would cost more than the n-element scatter.
    const auto counting_pass_range = [&](int byte, const int32_t* h256,
                                         int dmin, int dmax) {
      int32_t offs[256];
      int32_t sum = 0;
      for (int d = dmin; d <= dmax; ++d) {
        offs[d] = sum;
        sum += h256[d];
      }
      const int shift = 8 * byte;
      for (int i = 0; i < n; ++i) {
        const int32_t pos = offs[(ka[i] >> shift) & 0xFF]++;
        kb[pos] = ka[i];
        ib[pos] = ia[i];
      }
      std::swap(ka, kb);
      std::swap(ia, ib);
    };
    const int top = passes[num_passes - 1];
    int32_t hist_top[256];
    std::memset(hist_top, 0, sizeof(hist_top));
    int32_t max_bucket = 0;
    int dmin = 255;
    int dmax = 0;
    for (int i = 0; i < n; ++i) {
      const int d = static_cast<int>((ka[i] >> (8 * top)) & 0xFF);
      const int32_t c = ++hist_top[d];
      max_bucket = std::max(max_bucket, c);
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
    bool partitioned = false;
    if (max_bucket > kRadixSecondPassBucket && num_passes >= 2) {
      // The top byte alone leaves big tie-buckets.  Before paying for two
      // byte-wide scatter passes, try one stable pass over the top two
      // *varying* bytes fused into a 16-bit digit (any byte between them is
      // globally equal, so ordering by the fused digit equals ordering by
      // the whole high prefix down to `second`).  One sweep computes the
      // digits and their span; when the span is small -- the clustered-
      // column common case -- a single scatter replaces both byte passes.
      // The span cap scales with n so the memset + prefix stay proportional
      // to the element work on small columns.
      const int second = passes[num_passes - 2];
      const int tshift = 8 * top;
      const int sshift = 8 * second;
      uint16_t* digits = scratch->digits.data();
      uint32_t dmin_w = 0xFFFF;
      uint32_t dmax_w = 0;
      for (int i = 0; i < n; ++i) {
        const uint32_t d =
            ((static_cast<uint32_t>(ka[i] >> tshift) & 0xFF) << 8) |
            (static_cast<uint32_t>(ka[i] >> sshift) & 0xFF);
        digits[i] = static_cast<uint16_t>(d);
        dmin_w = std::min(dmin_w, d);
        dmax_w = std::max(dmax_w, d);
      }
      const uint32_t span = dmax_w - dmin_w + 1;
      const uint32_t span_limit = std::min<uint32_t>(
          kRadixWideDigitRange, 16u * static_cast<uint32_t>(n));
      if (span <= span_limit) {
        auto& wh = scratch->wide_hist;
        if (wh.size() < span) {
          wh.resize(static_cast<size_t>(kRadixWideDigitRange));
        }
        int32_t* hist_w = wh.data();
        std::memset(hist_w, 0, span * sizeof(int32_t));
        for (int i = 0; i < n; ++i) ++hist_w[digits[i] - dmin_w];
        int32_t sum = 0;
        for (uint32_t d = 0; d < span; ++d) {
          const int32_t c = hist_w[d];
          hist_w[d] = sum;
          sum += c;
        }
        for (int i = 0; i < n; ++i) {
          const int32_t pos = hist_w[digits[i] - dmin_w]++;
          kb[pos] = ka[i];
          ib[pos] = ia[i];
        }
        std::swap(ka, kb);
        std::swap(ia, ib);
        partitioned = true;
      } else {
        int32_t hist2[256];
        std::memset(hist2, 0, sizeof(hist2));
        int dmin2 = 255;
        int dmax2 = 0;
        for (int i = 0; i < n; ++i) {
          const int d = static_cast<int>((ka[i] >> sshift) & 0xFF);
          ++hist2[d];
          dmin2 = std::min(dmin2, d);
          dmax2 = std::max(dmax2, d);
        }
        counting_pass_range(second, hist2, dmin2, dmax2);
      }
    }
    if (!partitioned) counting_pass_range(top, hist_top, dmin, dmax);
    for (int i = 1; i < n; ++i) {
      const uint64_t k = ka[i];
      const int v = ia[i];
      int j = i - 1;
      while (j >= 0 && ka[j] > k) {
        ka[j + 1] = ka[j];
        ia[j + 1] = ia[j];
        --j;
      }
      ka[j + 1] = k;
      ia[j + 1] = v;
    }
    emit(ka, ia);
    return;
  }

  // Full LSD: all active histograms in a single counting sweep, then
  // ping-pong scatter passes, least significant active byte first.
  int32_t hist[8][256];
  for (int j = 0; j < num_passes; ++j) {
    std::memset(hist[j], 0, sizeof(hist[j]));
  }
  for (int i = 0; i < n; ++i) {
    const uint64_t k = keys[i];
    for (int j = 0; j < num_passes; ++j) {
      ++hist[j][(k >> (8 * passes[j])) & 0xFF];
    }
  }
  for (int j = 0; j < num_passes; ++j) {
    counting_pass(passes[j], hist[j]);
  }
  emit(ka, ia);
}

/// The full portable sorted-column pipeline: gene-ascending base order,
/// order-preserving keys, stable sort; `order` receives the permutation the
/// legacy comparator sort would produce, byte for byte, and `sorted_h` the
/// score column in that order (zero-sign-canonicalized; see
/// InverseOrderKey).  Preconditions (the miner's invariants): each half of
/// `gene` is strictly ascending, and the halves are disjoint.
inline void RadixSortScored(const double* h, const int* gene, int split,
                            int total, int* order, double* sorted_h,
                            SortScratch* scratch) {
  if (total <= 0) return;
  scratch->Reserve(total);
  int* idx = scratch->idx.data();
  uint64_t* keys = scratch->keys.data();
  // Fused merge + key build: one pass produces the gene-ascending base
  // permutation and its keys together (a separate key pass re-reads idx and
  // h for nothing; this loop is the same MergeByGene order).
  int i = 0;
  int j = split;
  int k = 0;
  while (i < split && j < total) {
    const int t = gene[i] <= gene[j] ? i++ : j++;
    idx[k] = t;
    keys[k] = OrderKey(h[t]);
    ++k;
  }
  for (; i < split; ++i, ++k) {
    idx[k] = i;
    keys[k] = OrderKey(h[i]);
  }
  for (; j < total; ++j, ++k) {
    idx[k] = j;
    keys[k] = OrderKey(h[j]);
  }
  SortPairsByKeyStable(total, scratch, order, sorted_h);
}

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_RADIX_SORT_H_
