"""Seeded input generator for the end-to-end benchmark.

Self-contained on purpose: it depends on nothing in the repository, so a
change to the program under test can never change the inputs it is
measured on.  Every stream of randomness is a private ``random.Random``
instance keyed by (purpose, workload, seed); only its ``random()`` method
is used (its output is stable across Python versions), and every
distribution is derived from it here.  The input cache is keyed by a
digest of this file (workloads.SOURCE_KEY), so any change here yields
fresh inputs.

Two models:
  * ``section5`` -- the paper's Section 5 synthetic data: a uniform [0, 10]
    background with reg-cluster implants (shifting-and-scaling members, 30 %
    negatively correlated).
  * ``timecourse`` -- a stimulus-response time course: baseline conditions
    followed by response levels ``gap`` apart, every gene ``s1 * level + s2``
    plus N(0, 0.1) noise, with appended conditions back at baseline.
"""

import hashlib
import math
import random


class Rng:
    """Deterministic random source keyed by an arbitrary tuple."""

    def __init__(self, *key):
        digest = hashlib.sha256(repr(key).encode()).digest()
        self._r = random.Random(int.from_bytes(digest[:8], "little"))
        self.random = self._r.random

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def integer(self, lo, hi):
        """Uniform integer in [lo, hi]."""
        return lo + min(int(self.random() * (hi - lo + 1)), hi - lo)

    def gauss(self, sigma):
        u = 1.0 - self.random()  # (0, 1]: log() stays finite
        return sigma * math.sqrt(-2.0 * math.log(u)) * math.cos(
            2.0 * math.pi * self.random())

    def exponential(self, rate):
        return -math.log(1.0 - self.random()) / rate

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.integer(0, i)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, n, k):
        """k distinct values of range(n), in random order."""
        pool = list(range(n))
        for i in range(k):
            j = self.integer(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def section5(rng, genes, conds, clusters, gene_frac=0.01, dim=6,
             negative_frac=0.3, min_step=0.15, lo=0.0, hi=10.0):
    """Rows of a Section 5 matrix: uniform background plus implants.

    Each implant picks dim +- 1 conditions in random chain order and about
    gene_frac * genes fresh genes.  Members share one cumulative step
    pattern (every step >= min_step of the span) scaled and shifted per
    gene; the first 30 % are inverted (negative regulation).  The implant
    span exceeds the gene's background span, so the paper's gamma (a
    fraction of the gene's range) is measured against the implant.
    """
    uniform = rng.uniform
    rows = [[uniform(lo, hi) for _ in range(conds)] for _ in range(genes)]
    pool = list(range(genes))
    rng.shuffle(pool)
    next_gene = 0
    max_chain = min(int(math.floor(0.95 / min_step)) + 1, conds)
    avg_genes = gene_frac * genes
    for _ in range(clusters):
        n_conds = max(2, min(rng.integer(dim - 1, dim + 1), max_chain))
        n_genes = max(2, int(round(uniform(0.75, 1.25) * avg_genes)))
        chain = rng.sample(conds, n_conds)
        members = pool[next_gene:next_gene + n_genes]
        if len(members) < n_genes:
            raise ValueError("implants need more genes than the matrix has")
        next_gene += n_genes
        weights = [uniform(0.05, 1.0) for _ in range(n_conds - 1)]
        spare = 1.0 - min_step * (n_conds - 1)
        total = sum(weights)
        cum = [0.0]
        for w in weights:
            cum.append(cum[-1] + min_step + spare * w / total)
        in_chain = set(chain)
        n_negative = int(round(negative_frac * n_genes))
        for k, g in enumerate(members):
            row = rows[g]
            rest = [row[c] for c in range(conds) if c not in in_chain]
            bg_lo, bg_hi = min(rest), max(rest)
            bg_span = max(bg_hi - bg_lo, 1e-6)
            base = bg_lo - uniform(0.05, 0.3) * bg_span
            span = bg_span * uniform(1.5, 3.0)
            for c, frac in zip(chain, cum):
                row[c] = (base + span - span * frac if k < n_negative
                          else base + span * frac)
    return rows


def timecourse(rng, genes, baseline, levels, gap, appends,
               negative_frac=0.3, noise=0.1):
    """(rows, appended_columns) of a stimulus-response time course.

    Gene g reads s1 * level + s2 + N(0, noise), with |s1| in [0.5, 2]
    (negative for about negative_frac of genes) and s2 in [0, 10]; the
    first `baseline` conditions sit at level 0, then `levels` responses at
    gap, 2 * gap, ...  Each appended condition returns to level 0.
    """
    levels_of = [0.0] * baseline + [gap * (k + 1) for k in range(levels)]
    rows, offsets = [], []
    for _ in range(genes):
        s1 = rng.uniform(0.5, 2.0)
        if rng.random() < negative_frac:
            s1 = -s1
        s2 = rng.uniform(0.0, 10.0)
        offsets.append(s2)
        rows.append([s1 * lv + s2 + rng.gauss(noise) for lv in levels_of])
    columns = [[s2 + rng.gauss(noise) for s2 in offsets]
               for _ in range(appends)]
    return rows, columns


def fmt(v):
    return "%.10g" % v


def write_tsv(path, rows, cond_names):
    """Writes the repository's text matrix format (header + named rows)."""
    with open(path, "w") as f:
        f.write("gene\t" + "\t".join(cond_names) + "\n")
        for g, row in enumerate(rows):
            f.write("g%d\t%s\n" % (g, "\t".join(map(fmt, row))))
