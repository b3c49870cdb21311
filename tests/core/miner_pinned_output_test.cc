// Mid-size output pins.  The oracle batteries mine matrices of at most a
// dozen genes, where almost no candidate reaches the coherence pre-screen's
// reject path; these screen-heavy matrices do (most extensions end with no
// epsilon-window).  Each case pins a digest of the cluster archive and
// every deterministic MinerStats counter to values recorded from an earlier
// miner -- the first two from the one before the pre-screen existed -- at
// one and at four threads, so a change to the search that alters a single
// emitted byte or work count fails here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/miner.h"
#include "core/miner_stats.h"
#include "io/cluster_io.h"
#include "synth/generator.h"
#include "util/hash128.h"

namespace regcluster {
namespace core {
namespace {

struct PinnedCase {
  const char* name;
  synth::SyntheticConfig data;
  MinerOptions options;
  const char* archive_digest;  ///< FNV-128 of io::WriteClusters, hex hi:lo
  /// Every kWork/kBuild row of kMinerStatsFields, in table order.
  std::vector<std::pair<const char*, int64_t>> counters;
};

/// The shape of bench_micro's BM_MineSynthetic/1500.
PinnedCase MineSynthetic1500() {
  PinnedCase c;
  c.name = "mine_synthetic_1500";
  c.data.num_genes = 1500;
  c.data.num_conditions = 30;
  c.data.num_clusters = 15;
  c.data.seed = 99;
  c.options.min_genes = 15;
  c.options.min_conditions = 6;
  c.options.gamma = 0.1;
  c.options.epsilon = 0.01;
  c.archive_digest = "12c0ccccf08ec848:b00c0053b5db8819";
  c.counters = {{"nodes_expanded", 984},
                {"extensions_tested", 25509},
                {"pruned_min_genes", 222},
                {"pruned_p_majority", 12},
                {"pruned_duplicate", 0},
                {"pruned_coherence", 24333},
                {"genes_dropped_min_conds", 2574865},
                {"clusters_emitted", 24},
                {"index_builds", 1},
                {"index_word_ops", 594790},
                {"coherence_divide_calls", 24417},
                {"coherence_scores", 953863},
                {"dedup_probes", 24}};
  return c;
}

/// The paper's Section 5 synthetic shape (uniform [0, 10] background, 1%
/// implants of ~6 conditions) at MinG = 1% of the genes and epsilon = 0.01.
PinnedCase Section5Eps001() {
  PinnedCase c;
  c.name = "section5_eps0.01";
  c.data.num_genes = 2500;
  c.data.num_conditions = 40;
  c.data.num_clusters = 20;
  c.data.seed = 5;
  c.options.min_genes = 25;
  c.options.min_conditions = 6;
  c.options.gamma = 0.1;
  c.options.epsilon = 0.01;
  c.archive_digest = "69863d42dcbe7acf:fede15b7a7292a1e";
  c.counters = {{"nodes_expanded", 1757},
                {"extensions_tested", 61743},
                {"pruned_min_genes", 799},
                {"pruned_p_majority", 28},
                {"pruned_duplicate", 1},
                {"pruned_coherence", 59231},
                {"genes_dropped_min_conds", 9959382},
                {"clusters_emitted", 42},
                {"index_builds", 1},
                {"index_word_ops", 1889876},
                {"coherence_divide_calls", 59384},
                {"coherence_scores", 4211709},
                {"dedup_probes", 43}};
  return c;
}

/// Section 5 at 12,000 genes: the level-2 nodes hold thousands of members
/// over dozens of candidates, tens of thousands of (member, candidate)
/// scores per node, so a node's whole panel is large and the level-1 seed
/// columns are long.  Recorded from the miner that still filled panels in
/// blocks of 16,384 entries.
PinnedCase Section5Genes12000() {
  PinnedCase c;
  c.name = "section5_12000";
  c.data.num_genes = 12000;
  c.data.num_conditions = 40;
  c.data.num_clusters = 30;
  c.data.seed = 2026;
  c.options.min_genes = 120;
  c.options.min_conditions = 6;
  c.options.gamma = 0.1;
  c.options.epsilon = 0.01;
  c.archive_digest = "d4006f6186b62c97:d2308396adadc4b3";
  c.counters = {{"nodes_expanded", 1748},
                {"extensions_tested", 62279},
                {"pruned_min_genes", 1344},
                {"pruned_p_majority", 26},
                {"pruned_duplicate", 12},
                {"pruned_coherence", 59246},
                {"genes_dropped_min_conds", 44797763},
                {"clusters_emitted", 24},
                {"index_builds", 1},
                {"index_word_ops", 8814724},
                {"coherence_divide_calls", 59375},
                {"coherence_scores", 19562781},
                {"dedup_probes", 36}};
  return c;
}

/// The same matrix with pruning (1) and pruning (2) off: every gene joins
/// both level-1 halves uncut, and every candidate column is seeded and
/// scored whatever its size.
PinnedCase Section5Genes12000Unpruned() {
  PinnedCase c = Section5Genes12000();
  c.name = "section5_12000_unpruned";
  c.options.prune_min_conds = false;
  c.options.prune_min_genes = false;
  c.archive_digest = "d4006f6186b62c97:d2308396adadc4b3";
  c.counters = {{"nodes_expanded", 6254},
                {"extensions_tested", 95889},
                {"pruned_min_genes", 0},
                {"pruned_p_majority", 1611},
                {"pruned_duplicate", 65},
                {"pruned_coherence", 92218},
                {"genes_dropped_min_conds", 0},
                {"clusters_emitted", 24},
                {"index_builds", 1},
                {"index_word_ops", 40022486},
                {"coherence_divide_calls", 94329},
                {"coherence_scores", 110999666},
                {"dedup_probes", 89}};
  return c;
}

std::string ArchiveDigest(const std::vector<RegCluster>& clusters) {
  std::ostringstream out;
  EXPECT_TRUE(io::WriteClusters(clusters, out).ok());
  const std::string bytes = out.str();
  util::Fnv128 fnv;
  fnv.MixBytes(bytes.data(), bytes.size());
  const util::Hash128 d = fnv.Digest();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 ":%016" PRIx64, d.hi, d.lo);
  return buf;
}

void ExpectPinned(const PinnedCase& c) {
  auto ds = synth::GenerateSynthetic(c.data);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
    MinerOptions o = c.options;
    o.num_threads = threads;
    RegClusterMiner miner(ds->data, o);
    auto clusters = miner.Mine();
    ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
    EXPECT_EQ(ArchiveDigest(*clusters), c.archive_digest);
    std::vector<std::pair<const char*, int64_t>> got;
    for (const MinerStatsField& f : kMinerStatsFields) {
      if (f.cls != StatsFieldClass::kWork && f.cls != StatsFieldClass::kBuild) {
        continue;
      }
      got.emplace_back(f.name, miner.stats().*f.count);
    }
    ASSERT_EQ(got.size(), c.counters.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_STREQ(got[i].first, c.counters[i].first);
      EXPECT_EQ(got[i].second, c.counters[i].second) << got[i].first;
    }
  }
}

TEST(MinerPinnedOutput, MineSynthetic1500) { ExpectPinned(MineSynthetic1500()); }

TEST(MinerPinnedOutput, Section5AtEpsilon001) {
  ExpectPinned(Section5Eps001());
}

TEST(MinerPinnedOutput, Section5At12000Genes) {
  ExpectPinned(Section5Genes12000());
}

TEST(MinerPinnedOutput, Section5At12000GenesWithoutPrunings1And2) {
  ExpectPinned(Section5Genes12000Unpruned());
}

}  // namespace
}  // namespace core
}  // namespace regcluster
