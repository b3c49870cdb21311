// Differential test: RWaveBitmapIndex is a pure re-encoding of RWaveModel,
// so every query it serves must agree with the model it was baked from.
// The miner's bit-identical-output guarantee rests on this equivalence, so
// it is checked the blunt way -- randomized profiles, all-pairs regulation
// queries, full successor/predecessor set comparison, and eligibility rows
// against the MaxChainUp/Down tables -- across the gamma range and across
// condition counts straddling the 64-bit word boundary.  The eager gamma
// model's one-pass striped bake (SharedGammaModel::Build) is held word for
// word to the two-pass reference -- every model first, then
// RWaveBitmapIndex::Build -- at several thread counts.

#include "core/rwave_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/miner.h"
#include "core/rwave.h"
#include "core/threshold.h"
#include "matrix/expression_matrix.h"
#include "util/bitset.h"
#include "util/prng.h"

namespace regcluster {
namespace core {
namespace {

constexpr int kMaxNeed = 6;  // largest MinC exercised by the queries below

std::vector<double> RandomProfile(int n, util::Prng* prng, bool quantized) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) {
    const double u = prng->Uniform(0.0, 10.0);
    // Quantized profiles force ties, the case where bordering-pointer
    // construction and gamma = 0 are most delicate.
    x = quantized ? std::round(u * 2.0) / 2.0 : u;
  }
  return v;
}

void CheckGeneAgainstModel(const RWaveBitmapIndex& index,
                           const RWaveModel& model, int gene, int conds) {
  // position() must be the model's position table verbatim.
  for (int c = 0; c < conds; ++c) {
    ASSERT_EQ(index.position(gene, c), model.position(c));
  }

  // All-pairs regulation queries through the bit-probe path.
  for (int lo = 0; lo < conds; ++lo) {
    for (int hi = 0; hi < conds; ++hi) {
      ASSERT_EQ(index.IsUpRegulated(gene, lo, hi),
                model.IsUpRegulated(lo, hi))
          << "gene " << gene << " pair (" << lo << ", " << hi << ")";
    }
  }

  // Successor / predecessor rows: exactly the set the model reports.
  const int words = index.num_words();
  for (int p = 0; p < conds; ++p) {
    const int at = model.condition_at(p);
    std::vector<int> up_bits, down_bits;
    util::ForEachSetBit(index.UpCandidates(gene, p), words,
                        [&](int c) { up_bits.push_back(c); });
    util::ForEachSetBit(index.DownCandidates(gene, p), words,
                        [&](int c) { down_bits.push_back(c); });
    std::vector<int> up_ref, down_ref;
    for (int c = 0; c < conds; ++c) {
      if (model.IsUpRegulated(at, c)) up_ref.push_back(c);
      if (model.IsUpRegulated(c, at)) down_ref.push_back(c);
    }
    ASSERT_EQ(up_bits, up_ref) << "gene " << gene << " pos " << p;
    ASSERT_EQ(down_bits, down_ref) << "gene " << gene << " pos " << p;
  }

  // Eligibility rows vs the longest-chain tables.  need <= 1 is always
  // satisfiable (any condition starts a chain of length 1).
  for (int need = 0; need <= kMaxNeed; ++need) {
    for (int c = 0; c < conds; ++c) {
      const int p = model.position(c);
      const bool up_ref = need <= 1 || model.MaxChainUp(p) >= need;
      const bool down_ref = need <= 1 || model.MaxChainDown(p) >= need;
      ASSERT_EQ(index.ChainEligibleUp(gene, c, need), up_ref)
          << "gene " << gene << " cond " << c << " need " << need;
      ASSERT_EQ(index.ChainEligibleDown(gene, c, need), down_ref)
          << "gene " << gene << " cond " << c << " need " << need;
    }
  }

  // Rows never set bits at or beyond num_conditions (the tail-word
  // invariant every bitwise consumer relies on).
  for (int p = 0; p < conds; ++p) {
    util::ForEachSetBit(index.UpCandidates(gene, p), words,
                        [&](int c) { ASSERT_LT(c, conds); });
  }
  util::ForEachSetBit(index.UpEligible(gene, 0), words,
                      [&](int c) { ASSERT_LT(c, conds); });
}

TEST(RWaveIndexTest, MatchesModelOnRandomGenes) {
  // Condition counts straddle the word boundary (63/64/65) plus the
  // degenerate single-condition model and a three-word case.
  const int kConds[] = {1, 63, 64, 65, 130};
  const double kGammas[] = {0.0, 0.05, 0.3, 1.0};
  const int kGenesPerConfig = 52;  // 52 * 5 * 4 = 1040 genes total

  util::Prng prng(20240805);
  for (int conds : kConds) {
    for (double gamma : kGammas) {
      std::vector<RWaveModel> models;
      std::vector<std::vector<double>> profiles;
      models.reserve(kGenesPerConfig);
      for (int g = 0; g < kGenesPerConfig; ++g) {
        profiles.push_back(RandomProfile(conds, &prng, g % 3 == 0));
        const auto& v = profiles.back();
        const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
        const double gamma_abs = gamma * (*hi - *lo);
        models.push_back(RWaveModel::Build(v.data(), conds, gamma_abs));
      }

      RWaveBitmapIndex index;
      index.Build(models, conds, kMaxNeed);
      ASSERT_EQ(index.num_genes(), kGenesPerConfig);
      ASSERT_EQ(index.num_conditions(), conds);
      ASSERT_EQ(index.num_words(), util::WordsForBits(conds));

      for (int g = 0; g < kGenesPerConfig; ++g) {
        CheckGeneAgainstModel(index, models[static_cast<size_t>(g)], g,
                              conds);
      }
    }
  }
}

TEST(RWaveIndexTest, OnesRowCoversExactlyTheConditions) {
  util::Prng prng(7);
  for (int conds : {1, 64, 65}) {
    std::vector<RWaveModel> models;
    const auto v = RandomProfile(conds, &prng, false);
    models.push_back(RWaveModel::Build(v.data(), conds, 0.5));
    RWaveBitmapIndex index;
    index.Build(models, conds, 2);
    int count = 0;
    util::ForEachSetBit(index.ones_row(), index.num_words(), [&](int c) {
      EXPECT_LT(c, conds);
      ++count;
    });
    EXPECT_EQ(count, conds);
  }
}

TEST(RWaveIndexTest, NeedIsClampedIntoBuiltRange) {
  util::Prng prng(11);
  const int conds = 20;
  std::vector<RWaveModel> models;
  const auto v = RandomProfile(conds, &prng, false);
  models.push_back(RWaveModel::Build(v.data(), conds, 0.0));
  RWaveBitmapIndex index;
  index.Build(models, conds, 4);
  for (int c = 0; c < conds; ++c) {
    // Below range -> the all-ones row; above range -> the hardest row built.
    EXPECT_TRUE(index.ChainEligibleUp(0, c, -3));
    EXPECT_EQ(index.ChainEligibleUp(0, c, 99),
              index.ChainEligibleUp(0, c, 4));
  }
}

TEST(RWaveIndexTest, OversizedCeilingClampsWithoutChangingAnswers) {
  // A request-supplied MinC far beyond the condition count must not size
  // the eligibility tables O(MinC): the ceiling clamps to conds + 1, whose
  // row is provably all-zero (no chain exceeds conds), so every query
  // still answers exactly like a sanely-built index.
  util::Prng prng(17);
  const int conds = 20;
  std::vector<RWaveModel> models;
  const auto v = RandomProfile(conds, &prng, false);
  models.push_back(RWaveModel::Build(v.data(), conds, 0.0));

  RWaveBitmapIndex huge;
  huge.Build(models, conds, 2'000'000'000);
  EXPECT_EQ(huge.max_chain_need(), conds + 1);
  EXPECT_LT(huge.MemoryBytes(), size_t{1} << 20);

  RWaveBitmapIndex exact;
  exact.Build(models, conds, conds + 1);
  for (int c = 0; c < conds; ++c) {
    // Unsatisfiable needs are false, not clamped onto a satisfiable row.
    EXPECT_FALSE(huge.ChainEligibleUp(0, c, conds + 1));
    EXPECT_FALSE(huge.ChainEligibleUp(0, c, 2'000'000'000));
    EXPECT_FALSE(huge.ChainEligibleDown(0, c, 2'000'000'000));
    for (int need = 0; need <= conds + 2; ++need) {
      EXPECT_EQ(huge.ChainEligibleUp(0, c, need),
                exact.ChainEligibleUp(0, c, need))
          << "cond " << c << " need " << need;
      EXPECT_EQ(huge.ChainEligibleDown(0, c, need),
                exact.ChainEligibleDown(0, c, need))
          << "cond " << c << " need " << need;
    }
  }
}

TEST(RWaveIndexTest, MemoryBytesAccountsForTheTables) {
  util::Prng prng(13);
  const int conds = 40;
  std::vector<RWaveModel> models;
  std::vector<std::vector<double>> profiles;
  for (int g = 0; g < 10; ++g) {
    profiles.push_back(RandomProfile(conds, &prng, false));
    models.push_back(RWaveModel::Build(profiles.back().data(), conds, 0.3));
  }
  RWaveBitmapIndex index;
  index.Build(models, conds, kMaxNeed);
  // 10 genes * 40 conds * 1 word * 2 directions of candidate rows is a firm
  // lower bound; the exact figure depends on vector capacities.
  EXPECT_GE(index.MemoryBytes(), 10u * 40u * sizeof(uint64_t) * 2);
}

// Word-for-word comparison of a gamma model's baked index against a
// reference index: positions, candidate rows and eligibility rows.
void ExpectModelsEqual(const SharedGammaModel& got,
                       const RWaveBitmapIndex& want,
                       const std::string& where) {
  const RWaveBitmapIndex& ia = got.index;
  ASSERT_EQ(ia.num_genes(), want.num_genes()) << where;
  ASSERT_EQ(ia.num_conditions(), want.num_conditions()) << where;
  ASSERT_EQ(ia.num_words(), want.num_words()) << where;
  ASSERT_EQ(ia.max_chain_need(), want.max_chain_need()) << where;
  const size_t row_bytes = static_cast<size_t>(ia.num_words()) * 8;
  for (int g = 0; g < ia.num_genes(); ++g) {
    for (int c = 0; c < ia.num_conditions(); ++c) {
      ASSERT_EQ(ia.position(g, c), want.position(g, c))
          << where << " gene " << g << " cond " << c;
    }
    for (int p = 0; p < ia.num_conditions(); ++p) {
      ASSERT_EQ(0, std::memcmp(ia.UpCandidates(g, p),
                               want.UpCandidates(g, p), row_bytes))
          << where << " up gene " << g << " pos " << p;
      ASSERT_EQ(0, std::memcmp(ia.DownCandidates(g, p),
                               want.DownCandidates(g, p), row_bytes))
          << where << " down gene " << g << " pos " << p;
    }
    for (int need = 0; need <= ia.max_chain_need(); ++need) {
      ASSERT_EQ(0, std::memcmp(ia.UpEligible(g, need),
                               want.UpEligible(g, need), row_bytes))
          << where << " up-elig gene " << g << " need " << need;
      ASSERT_EQ(0, std::memcmp(ia.DownEligible(g, need),
                               want.DownEligible(g, need), row_bytes))
          << where << " down-elig gene " << g << " need " << need;
    }
  }
}

matrix::ExpressionMatrix RandomMatrix(util::Prng* prng, int genes,
                                      int conds) {
  matrix::ExpressionMatrix m(genes, conds);
  for (int g = 0; g < genes; ++g) {
    const auto v = RandomProfile(conds, prng, g % 3 == 0);
    for (int c = 0; c < conds; ++c) m(g, c) = v[static_cast<size_t>(c)];
  }
  return m;
}

// The eager build bakes each gene's slice from a model it drops right
// after; the result must equal building every model first and baking
// them in a second pass, at any thread count, on both sides of the
// 64-bit word boundary, and under a fixed and a data-dependent threshold.
// 300 genes make several 64-gene stripes, so 2 and 4 threads really
// interleave.
TEST(SharedGammaModelBuild, MatchesTwoPassReferenceAtAnyThreadCount) {
  util::Prng prng(8675309);
  for (const int conds : {63, 64, 65}) {
    const matrix::ExpressionMatrix data = RandomMatrix(&prng, 300, conds);
    for (const GammaPolicy policy :
         {GammaPolicy::kAbsolute, GammaPolicy::kRangeFraction}) {
      const GammaSpec spec{policy,
                           policy == GammaPolicy::kAbsolute ? 1.0 : 0.1};
      RWaveBitmapIndex reference;
      reference.Build(
          BuildRWaveModels(
              data, [&](int g) { return AbsoluteGamma(data, g, spec); }, 1),
          conds, kMaxNeed);
      for (const int threads : {1, 2, 4}) {
        const auto model =
            SharedGammaModel::Build(data, spec, kMaxNeed, threads);
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->rwave_build_seconds, 0.0);
        ExpectModelsEqual(
            *model, reference,
            std::to_string(conds) + " conds, " +
                (policy == GammaPolicy::kAbsolute ? "absolute" : "range") +
                ", " + std::to_string(threads) + " threads");
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The gamma model holds nothing but its index.
TEST(SharedGammaModelBuild, EagerModelBytesAreTheIndex) {
  util::Prng prng(4242);
  const matrix::ExpressionMatrix data = RandomMatrix(&prng, 200, 40);
  const auto model = SharedGammaModel::Build(
      data, GammaSpec{GammaPolicy::kRangeFraction, 0.1}, kMaxNeed, 4);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->MemoryBytes(), model->index.MemoryBytes());
}

}  // namespace
}  // namespace core
}  // namespace regcluster
