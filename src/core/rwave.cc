#include "core/rwave.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/simd/radix_sort.h"
#include "util/task_pool.h"

namespace regcluster {
namespace core {

RWaveModel RWaveModel::Build(const double* values, int n, double gamma_abs) {
  util::simd::SortScratch scratch;
  return Build(values, n, gamma_abs, &scratch);
}

RWaveModel RWaveModel::Build(const double* values, int n, double gamma_abs,
                             util::simd::SortScratch* scratch) {
  assert(n >= 0);
  assert(gamma_abs >= 0.0);
  RWaveModel m;
  m.gamma_abs_ = gamma_abs;
  m.order_.resize(static_cast<size_t>(n));
  m.pos_.resize(static_cast<size_t>(n));
  m.sorted_values_.resize(static_cast<size_t>(n));
  // Non-descending by value; ties broken by condition id for determinism.
  // The radix pipeline over order-preserving keys with an ascending-id base
  // order is exactly that comparator: stable passes keep the id order on
  // value ties (see util/simd/radix_sort.h).
  if (n > 0) {
    scratch->Reserve(n);
    uint64_t* keys = scratch->keys.data();
    int* idx = scratch->idx.data();
    for (int i = 0; i < n; ++i) {
      assert(std::isfinite(values[i]) && "RWave input must be imputed");
      keys[i] = util::simd::OrderKey(values[i]);
      idx[i] = i;
    }
    util::simd::SortPairsByKeyStable(n, scratch, m.order_.data(),
                                     m.sorted_values_.data());
  }
  for (int p = 0; p < n; ++p) {
    const int cond = m.order_[static_cast<size_t>(p)];
    m.pos_[static_cast<size_t>(cond)] = p;
    // Re-gather the raw bytes: the key round trip canonicalizes -0.0 to
    // +0.0, but value_at() promises the original matrix values.
    m.sorted_values_[static_cast<size_t>(p)] = values[cond];
  }

  // Pointer construction (Figure 5, model-construction phase): walk the
  // sorted order; for each position j locate the closest regulation
  // predecessor k (largest position with value < value[j] - gamma); insert a
  // bordering pointer (k, j) unless the previous pointer already certifies
  // the pair, i.e. its tail >= k (its head is always <= j since heads are
  // the positions at which pointers were inserted, in increasing order).
  //
  // The predecessor boundary -- the first position k with vj - vk <= gamma,
  // by the exact Eq. 3 comparison so that floating-point rounding cannot
  // disagree with direct pairwise checks -- is non-decreasing in j (vj is
  // non-descending), so one forward-only edge pointer replaces the per-j
  // binary search: O(n) total instead of O(n log n).
  const double* sv = m.sorted_values_.data();
  int k_edge = 0;  // first position in [0, j) whose value is NOT regulated
  for (int j = 1; j < n; ++j) {
    const double vj = sv[j];
    while (k_edge < j && vj - sv[k_edge] > gamma_abs) ++k_edge;
    if (k_edge == 0) continue;  // no predecessor
    const int k = k_edge - 1;
    if (!m.pointers_.empty() && m.pointers_.back().tail_pos >= k) continue;
    m.pointers_.push_back(RegulationPointer{k, j});
  }

  // Longest-chain tables.  A regulated step up from position p lands at any
  // position >= head of the first pointer with tail >= p; jumping to exactly
  // that head is optimal because the reachable-length function is
  // non-increasing in position (heads/tails are monotone).  Pointer tails
  // and heads are strictly increasing, so the "first pointer with tail >= p"
  // (resp. "last pointer with head <= p") index moves monotonically with p
  // and each sweep amortizes to O(n + P) -- same answers as the binary
  // searches in FirstSuccessorPos / LastPredecessorPos.
  const int num_ptrs = static_cast<int>(m.pointers_.size());
  m.max_up_.assign(static_cast<size_t>(n), 1);
  int j0 = num_ptrs;  // first pointer with tail_pos >= p (p descending)
  for (int p = n - 1; p >= 0; --p) {
    while (j0 > 0 &&
           m.pointers_[static_cast<size_t>(j0 - 1)].tail_pos >= p) {
      --j0;
    }
    if (j0 < num_ptrs) {
      const int h = m.pointers_[static_cast<size_t>(j0)].head_pos;
      m.max_up_[static_cast<size_t>(p)] =
          1 + m.max_up_[static_cast<size_t>(h)];
    }
  }
  m.max_down_.assign(static_cast<size_t>(n), 1);
  int j1 = -1;  // last pointer with head_pos <= p (p ascending)
  for (int p = 0; p < n; ++p) {
    while (j1 + 1 < num_ptrs &&
           m.pointers_[static_cast<size_t>(j1 + 1)].head_pos <= p) {
      ++j1;
    }
    if (j1 >= 0) {
      const int t = m.pointers_[static_cast<size_t>(j1)].tail_pos;
      m.max_down_[static_cast<size_t>(p)] =
          1 + m.max_down_[static_cast<size_t>(t)];
    }
  }
  return m;
}

RWaveModel RWaveModel::BuildForGene(const matrix::MatrixStore& data, int gene,
                                    double gamma) {
  const auto [lo, hi] = data.RowRange(gene);
  const double gamma_abs = gamma * (hi - lo);
  return Build(data.row_data(gene), data.num_conditions(), gamma_abs);
}

bool RWaveModel::IsUpRegulated(int cond_lo, int cond_hi) const {
  const int a = position(cond_lo);
  const int b = position(cond_hi);
  if (a >= b) return false;
  const int h = FirstSuccessorPos(a);
  return h >= 0 && h <= b;
}

int RWaveModel::FirstSuccessorPos(int pos) const {
  // First pointer with tail >= pos; pointers sorted by tail.
  auto it = std::lower_bound(
      pointers_.begin(), pointers_.end(), pos,
      [](const RegulationPointer& ptr, int p) { return ptr.tail_pos < p; });
  if (it == pointers_.end()) return -1;
  return it->head_pos;
}

int RWaveModel::LastPredecessorPos(int pos) const {
  // Last pointer with head <= pos; pointers sorted by head.
  auto it = std::upper_bound(
      pointers_.begin(), pointers_.end(), pos,
      [](int p, const RegulationPointer& ptr) { return p < ptr.head_pos; });
  if (it == pointers_.begin()) return -1;
  return std::prev(it)->tail_pos;
}

RWaveSet::RWaveSet(const matrix::MatrixStore& data, double gamma,
                   int num_threads)
    : gamma_(gamma) {
  models_ = BuildRWaveModels(
      data,
      [&data, gamma](int g) {
        const auto [lo, hi] = data.RowRange(g);
        return gamma * (hi - lo);
      },
      num_threads);
}

std::vector<RWaveModel> BuildRWaveModels(
    const matrix::MatrixStore& data,
    const std::function<double(int)>& gamma_abs_fn, int num_threads) {
  const int num_genes = data.num_genes();
  const int num_conds = data.num_conditions();
  std::vector<RWaveModel> models(static_cast<size_t>(num_genes));
  const auto build_range = [&](int begin, int end,
                               util::simd::SortScratch* scratch) {
    for (int g = begin; g < end; ++g) {
      models[static_cast<size_t>(g)] = RWaveModel::Build(
          data.row_data(g), num_conds, gamma_abs_fn(g), scratch);
    }
  };
  if (num_threads == 1 || num_genes == 0) {
    util::simd::SortScratch scratch;  // shared: one allocation for all genes
    build_range(0, num_genes, &scratch);
    return models;
  }
  // Parallel path: contiguous gene stripes, one task per stripe, each with
  // its own sort scratch.  Slot-assigned writes keep the result
  // byte-identical to the serial loop at any thread count.
  util::TaskPool pool(num_threads);
  const int workers = pool.num_workers();
  int stripe = (num_genes + workers * 4 - 1) / (workers * 4);
  stripe = std::max(stripe, 64);
  std::vector<util::simd::SortScratch> scratches(
      static_cast<size_t>(workers));
  for (int begin = 0; begin < num_genes; begin += stripe) {
    const int end = std::min(begin + stripe, num_genes);
    pool.Submit([&, begin, end](int worker) {
      build_range(begin, end, &scratches[static_cast<size_t>(worker)]);
    });
  }
  pool.Wait();
  return models;
}

}  // namespace core
}  // namespace regcluster
