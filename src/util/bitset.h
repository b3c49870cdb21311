// Word-level helpers for flat uint64 bitsets.
//
// The core index stores many fixed-width bitmaps (one bit per condition)
// packed into rows of uint64 words; these free functions are the single
// place that knows the word width, so callers never hand-roll shift/mask
// arithmetic.  All rows are length WordsForBits(n); bits >= n are zero by
// construction and every operation here preserves that invariant (the only
// writer of all-ones rows, FillOnes, masks the tail word).

#ifndef REGCLUSTER_UTIL_BITSET_H_
#define REGCLUSTER_UTIL_BITSET_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace regcluster {
namespace util {

inline constexpr int kBitsPerWord = 64;

/// Number of uint64 words needed to hold `bits` bits (>= 0).
inline constexpr int WordsForBits(int bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

inline void SetBit(uint64_t* words, int bit) {
  words[bit >> 6] |= uint64_t{1} << (bit & 63);
}

inline bool TestBit(const uint64_t* words, int bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}

/// Sets the first `bits` bits and clears any tail bits of the last word.
inline void FillOnes(uint64_t* words, int bits) {
  const int full = bits >> 6;
  for (int w = 0; w < full; ++w) words[w] = ~uint64_t{0};
  if (bits & 63) words[full] = (uint64_t{1} << (bits & 63)) - 1;
}

/// Calls `fn(bit)` for every set bit of `words[0..num_words)`, ascending.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, int num_words, Fn&& fn) {
  for (int w = 0; w < num_words; ++w) {
    uint64_t word = words[w];
    while (word) {
      fn(w * kBitsPerWord + std::countr_zero(word));
      word &= word - 1;  // clear lowest set bit
    }
  }
}

// Word-loop primitives of the index hot path: the index bake and the
// miner's member-row combines call these directly.  Rows are one word at
// <= 64 conditions, so plain loops the compiler may vectorize are all the
// kernel these need.

/// dst[w] = a[w] & b[w].  `dst` may alias `a` or `b`.
inline void AndWords(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     int words) {
  for (int w = 0; w < words; ++w) dst[w] = a[w] & b[w];
}

/// dst[w] |= src[w].
inline void OrWordsInto(uint64_t* dst, const uint64_t* src, int words) {
  for (int w = 0; w < words; ++w) dst[w] |= src[w];
}

/// dst[w] = src[w].  Rows must not overlap.
inline void CopyWords(uint64_t* dst, const uint64_t* src, int words) {
  for (int w = 0; w < words; ++w) dst[w] = src[w];
}

/// Positional popcount: per bit position, how many of the added rows have
/// it set.  Rows are counted byte-sliced -- one table lookup and one add
/// per 8 bits, whatever the row's density -- into 8-bit lanes that drain
/// into int counts every 255 rows, so N rows of W words cost 8 N W adds
/// instead of one increment per set bit.
class BitPositionCounter {
 public:
  /// Zeroes the counts, for rows of `words` words.
  void Reset(int words) {
    words_ = words;
    pending_ = 0;
    lanes_.assign(static_cast<size_t>(words) * 8, 0);
    counts_.assign(static_cast<size_t>(words) * kBitsPerWord, 0);
  }

  /// Counts one `words`-word row.
  void Add(const uint64_t* row) {
    AddRow([row](int w) { return row[w]; });
  }

  /// Counts the row a & ~b without materializing it.
  void AddAndNot(const uint64_t* a, const uint64_t* b) {
    AddRow([a, b](int w) { return a[w] & ~b[w]; });
  }

  /// Drains the 8-bit lanes into the counts; call once after the last Add.
  void Flush() {
    for (size_t i = 0; i < lanes_.size(); ++i) {
      uint64_t lane = lanes_[i];
      for (size_t j = 0; lane != 0; ++j, lane >>= 8) {
        counts_[i * 8 + j] += static_cast<int>(lane & 0xFF);
      }
      lanes_[i] = 0;
    }
    pending_ = 0;
  }

  /// Rows counted with `bit` set (as of the last Flush).
  int count(int bit) const { return counts_[static_cast<size_t>(bit)]; }

  int64_t ApproxBytes() const {
    return static_cast<int64_t>(lanes_.capacity() * sizeof(uint64_t) +
                                counts_.capacity() * sizeof(int));
  }

 private:
  template <typename WordOf>
  void AddRow(const WordOf& word_of) {
    for (int w = 0; w < words_; ++w) {
      const uint64_t x = word_of(w);
      if (x == 0) continue;
      uint64_t* lanes = lanes_.data() + static_cast<size_t>(w) * 8;
      for (int k = 0; k < 8; ++k) {
        lanes[k] += kByteSpread[(x >> (8 * k)) & 0xFF];
      }
    }
    if (++pending_ == 255) Flush();
  }

  /// Byte b -> a word whose byte j is bit j of b.
  static constexpr std::array<uint64_t, 256> kByteSpread = [] {
    std::array<uint64_t, 256> table{};
    for (int b = 0; b < 256; ++b) {
      for (int j = 0; j < 8; ++j) {
        table[static_cast<size_t>(b)] |= static_cast<uint64_t>((b >> j) & 1)
                                         << (8 * j);
      }
    }
    return table;
  }();

  int words_ = 0;
  int pending_ = 0;
  std::vector<uint64_t> lanes_;
  std::vector<int> counts_;
};

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_BITSET_H_
