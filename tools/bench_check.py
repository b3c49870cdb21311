#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_miner.json.

Compares a freshly measured ``micro`` section (written by ``bench_micro
--bench_out=...``) against the committed baseline and fails when any
benchmark matching the prefix regressed by more than the threshold in
per-iteration real time.  Every baseline benchmark matching the prefix must
be present in the fresh file -- a silently dropped benchmark is treated as a
failure, not a pass.

Usage (mirrors the CI step):

    bench_micro --benchmark_filter='^BM_MineSynthetic' \
        --benchmark_min_time=1x --bench_out=build/BENCH_fresh.json
    python3 tools/bench_check.py --baseline BENCH_miner.json \
        --fresh build/BENCH_fresh.json

Also gates the cancellation layer: the ``budget_overhead`` section written
by ``bench_threads`` records how much slower a serial mine runs with every
budget source armed but none binding; ``--max-budget-overhead`` (default 2%)
fails the check when that fraction is exceeded.  The gate is skipped with a
notice when neither input has the section (e.g. ``bench_threads`` has not
run), so the micro comparison stays usable on its own.

The durability layer is gated the same way: ``checkpoint_overhead`` records
how much slower a serial mine runs through the chunked, snapshot-writing
``RunCheckpointedMine`` driver (real checkpoint file, default cadence) than
through a plain ``Mine()``; ``--max-checkpoint-overhead`` (default 2%)
fails the check when that fraction is exceeded.

The observability layer is gated the same way: ``stats_overhead`` records
how much slower a serial mine runs with ``collect_stats`` on vs off, capped
by ``--max-stats-overhead`` (default 1%); and the ``stats`` section carries
the miner's deterministic work counters (nodes expanded, per-rule prunes,
index word ops, ...) for the reference synthetic dataset.  Those counters
are a pure function of data + options, so baseline and fresh must agree
*exactly* when they describe the same dataset/options -- any drift means a
search-behaviour change (pruning regression, index bug) that wall-clock
noise could mask.  Both gates skip with a notice when the sections are
absent or describe different configurations.

The batch-sweep engine is gated through the ``sweep`` section, also written
by ``bench_threads``: one SweepEngine run over an equal-gamma grid must beat
the same mines done independently (each paying its own matrix load and model
build) by ``--min-sweep-speedup`` (default 1.5x), with byte-identical
output.  Same fresh-then-baseline fallback and skip-with-notice behaviour.

The incremental time-course path is gated through the ``incremental``
section, also written by ``bench_threads``: appending one steady-state
condition and re-mining through ``io::MineIncremental`` (delta gamma-model
update, dirty roots only, clean roots spliced) must beat the from-scratch
mine of the grown matrix by ``--min-incremental-speedup`` (default 1.5x),
with the clusters and deterministic work counters byte-identical.  Same
fresh-then-baseline fallback and skip-with-notice behaviour.

The SIMD kernel layer is gated two ways, both through the ``threads``
section.  The ``simd`` object records a forced-scalar vs best-level
ablation of the serial sort phase; ``--min-sort-speedup`` (default 1.5x)
fails when the radix pipeline no longer beats the scalar comparator sort by
that much.  The gate skips with a notice when the best compiled-in level is
scalar (nothing to compare) or when the run recorded ``degraded_hw``
(unknown or single hardware thread -- bench_threads sets the flag and all
speedup gates stand down, since contention noise on such a host can fake
either verdict).  Separately, the ``serial_phase_ns`` breakdown is compared
fresh-vs-baseline per phase (filter/score/sort/emit): any phase above the
``--phase-floor-ns`` noise floor that regressed by more than
``--phase-threshold`` fails, so a hot-path regression is pinned to the
phase that caused it instead of hiding inside total wall time.

The mining service's resource cache is gated through the ``server``
section written by ``bench_server``: the same mine request is issued cold
(matrix load + model build + mine) and warm (both cache levels hit)
through one MiningService, and ``--min-warm-speedup`` (default 4x, i.e.
warm at most 0.25x cold) fails the check when the cache no longer removes
the load + build work -- with the warm responses required byte-identical
to the cold one.  Same fallback and skip-with-notice behaviour.

The out-of-core path is gated through the ``scalability`` section written
by ``bench_scalability --sweep=outofcore``: it records the peak RSS of a
memory-capped genome-scale mine through the mmap + model-cache path.
``--max-peak-rss`` (bytes; 0 disables) fails the check when the recorded
high-water mark exceeds the cap -- the section is the committed proof that
the bounded-memory contract holds.  Same fresh-then-baseline fallback and
skip-with-notice behaviour as the other section gates.

Exit status: 0 when every compared benchmark is within the threshold,
1 on regression / missing data / malformed input.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def load_micro(doc):
    """Returns {benchmark name: (real_time, time_unit)} from the micro
    section of a BENCH_miner.json-style document."""
    rows = doc.get("micro", {}).get("benchmarks", [])
    out = {}
    for row in rows:
        out[row["name"]] = (float(row["real_time"]), row.get("time_unit", ""))
    return out


def find_section(fresh_doc, baseline_doc, key):
    """Returns (label, section) for `key`: the fresh measurement when it
    carries the section, else the committed baseline, else (None, None).
    Every section gate below uses this fresh-then-baseline fallback."""
    for label, doc in (("fresh", fresh_doc), ("baseline", baseline_doc)):
        if doc.get(key):
            return label, doc[key]
    return None, None


def skip_missing(what, key, tool="bench_threads"):
    """A gate whose section neither input carries passes with a notice."""
    print(f"{what}: no {key} section in either input; skipping gate "
          f"(run {tool} to measure)")
    return True


def check_overhead(fresh_doc, baseline_doc, key, what, max_overhead):
    """Gates <key>.overhead_fraction <= max_overhead: budget_overhead (the
    budget guard), stats_overhead (collect_stats on vs off) and
    checkpoint_overhead (durable chunked mine with snapshot writes vs plain
    mine)."""
    label, section = find_section(fresh_doc, baseline_doc, key)
    if section is None:
        return skip_missing(what, key)
    overhead = float(section["overhead_fraction"])
    ok = overhead <= max_overhead
    print(f"{what} ({label}): {overhead:+.2%} "
          f"(limit {max_overhead:.2%})"
          f"{'' if ok else '  REGRESSION'}")
    return ok


def check_sweep_speedup(fresh_doc, baseline_doc, min_speedup):
    """Gates the shared-index batch sweep: sweep.speedup (one SweepEngine run
    over an equal-gamma grid vs the same mines done independently, each with
    its own load + model build) must stay >= --min-sweep-speedup, and the
    engine's output must have matched the independent mines."""
    label, section = find_section(fresh_doc, baseline_doc, "sweep")
    if section is None:
        return skip_missing("sweep sharing", "sweep")
    speedup = float(section["speedup"])
    identical = bool(section.get("identical_to_independent"))
    ok = speedup >= min_speedup and identical
    print(f"sweep sharing ({label}): {speedup:.2f}x over "
          f"{section.get('points', '?')} independent mines "
          f"(minimum {min_speedup:.2f}x)"
          f"{'' if identical else '  OUTPUT MISMATCH'}"
          f"{'' if ok else '  REGRESSION'}")
    return ok


def check_incremental_speedup(fresh_doc, baseline_doc, min_speedup):
    """Gates the incremental time-course path: incremental.speedup (one
    steady-state condition appended, MineIncremental's delta update + dirty
    roots vs a from-scratch mine of the grown matrix) must stay >=
    --min-incremental-speedup, and the incremental output must have been
    byte-identical to the from-scratch one (clusters and deterministic work
    counters)."""
    label, section = find_section(fresh_doc, baseline_doc, "incremental")
    if section is None:
        return skip_missing("incremental append", "incremental")
    speedup = float(section["speedup"])
    identical = bool(section.get("identical_to_scratch"))
    ok = speedup >= min_speedup and identical
    print(f"incremental append ({label}): {speedup:.2f}x over the "
          f"from-scratch mine, {section.get('roots_remined', '?')} roots "
          f"re-mined / {section.get('roots_spliced', '?')} spliced "
          f"(minimum {min_speedup:.2f}x)"
          f"{'' if identical else '  OUTPUT MISMATCH'}"
          f"{'' if ok else '  REGRESSION'}")
    return ok


def check_sort_speedup(fresh_doc, baseline_doc, min_speedup):
    """Gates the SIMD sort ablation: threads.simd.sort_speedup (serial sort
    phase, forced-scalar vs the best kernel level, best-of-3 interleaved)
    must stay >= --min-sort-speedup.  Skips with a notice when no threads
    section carries the ablation, when the best level is scalar (the
    comparison is vacuous), or when the run flagged degraded_hw."""
    for label, doc in (("fresh", fresh_doc), ("baseline", baseline_doc)):
        threads = doc.get("threads") or {}
        simd = threads.get("simd")
        if not simd:
            continue
        speedup = float(simd["sort_speedup"])
        best_level = simd.get("best_level", "scalar")
        if best_level == "scalar":
            print(f"simd sort speedup ({label}): best level is scalar on "
                  "this host; skipping gate (needs an AVX2/NEON machine)")
            return True
        if threads.get("degraded_hw"):
            print(f"simd sort speedup ({label}): {speedup:.2f}x scalar vs "
                  f"{best_level}, but degraded_hw recorded; skipping gate")
            return True
        ok = speedup >= min_speedup
        print(f"simd sort speedup ({label}): {speedup:.2f}x scalar vs "
              f"{best_level} (minimum {min_speedup:.2f}x)"
              f"{'' if ok else '  REGRESSION'}")
        return ok
    print("simd sort speedup: no threads.simd section in either input; "
          "skipping gate (run bench_threads to measure)")
    return True


def check_warm_speedup(fresh_doc, baseline_doc, min_speedup):
    """Gates the mining service's resource cache: server.warm_speedup (cold
    request latency over best warm-repeat latency for the same request, as
    measured by bench_server) must stay >= --min-warm-speedup, and the warm
    responses must have been byte-identical to the cold one."""
    label, section = find_section(fresh_doc, baseline_doc, "server")
    if section is None:
        return skip_missing("server warm cache", "server", "bench_server")
    raw = section.get("warm_speedup")
    if raw is None:
        print(f"server warm cache ({label}): server section has no "
              "warm_speedup; skipping gate (re-run bench_server)")
        return True
    speedup = float(raw)
    identical = bool(section.get("identical_to_cold"))
    ok = speedup >= min_speedup and identical
    print(f"server warm cache ({label}): cold "
          f"{float(section.get('cold_ms', 0)):.1f} ms, warm "
          f"{float(section.get('warm_ms', 0)):.1f} ms, {speedup:.2f}x "
          f"(minimum {min_speedup:.2f}x)"
          f"{'' if identical else '  OUTPUT MISMATCH'}"
          f"{'' if ok else '  REGRESSION'}")
    return ok


def check_phase_ns(fresh_doc, baseline_doc, threshold, floor_ns):
    """Compares threads.serial_phase_ns per phase, fresh vs baseline.

    Phases below the noise floor in the baseline are reported but not
    gated (a 15% swing on a sub-millisecond phase is scheduler noise).
    Skips with a notice when either document lacks the section, the runs
    describe different dataset/options, or either run recorded degraded_hw
    -- phase timings measured on an unknown or single-core host (like the
    committed baseline's 0.96x "speedup" at 2 threads) carry contention
    noise that can fake a regression or mask one, the same reason
    check_sort_speedup stands down."""
    fresh_threads = fresh_doc.get("threads") or {}
    baseline_threads = baseline_doc.get("threads") or {}
    fresh = fresh_threads.get("serial_phase_ns")
    baseline = baseline_threads.get("serial_phase_ns")
    if not fresh or not baseline:
        print("phase breakdown: no serial_phase_ns in "
              f"{'fresh' if not fresh else 'baseline'} input; skipping gate "
              "(run bench_threads to measure)")
        return True
    for label, threads in (("fresh", fresh_threads),
                           ("baseline", baseline_threads)):
        if threads.get("degraded_hw"):
            print(f"phase breakdown: {label} threads section recorded "
                  "degraded_hw; skipping comparison (timings from an "
                  "unknown/single-core host are not interpretable)")
            return True
    if (fresh_threads.get("dataset") != baseline_threads.get("dataset")
            or fresh_threads.get("options") != baseline_threads.get(
                "options")):
        print("phase breakdown: threads sections describe different "
              "dataset/options; skipping comparison")
        return True
    ok = True
    for key in ("filter_ns", "score_ns", "sort_ns", "emit_ns"):
        base_val = baseline.get(key)
        fresh_val = fresh.get(key)
        if base_val is None or fresh_val is None:
            continue
        ratio = fresh_val / base_val if base_val > 0 else float("inf")
        gated = base_val >= floor_ns
        verdict = ""
        if gated and ratio > 1.0 + threshold:
            verdict = f"  REGRESSION (> {1.0 + threshold:.2f}x)"
            ok = False
        note = "" if gated else "  (below noise floor, not gated)"
        print(f"phase {key:<10} baseline {base_val / 1e6:8.1f} ms  fresh "
              f"{fresh_val / 1e6:8.1f} ms  {ratio:5.2f}x{verdict}{note}")
    return ok


def check_stats_counters(fresh_doc, baseline_doc):
    """Compares the deterministic work counters of the ``stats`` sections.

    The counters are a pure function of dataset + options, so when both
    documents carry a ``stats`` section for the same configuration every
    integer field must match exactly.  Skips with a notice when either
    section is missing or the configurations differ (dataset regenerated
    with new parameters)."""
    fresh = fresh_doc.get("stats")
    baseline = baseline_doc.get("stats")
    if not fresh or not baseline:
        print("work counters: no stats section in "
              f"{'fresh' if not fresh else 'baseline'} input; skipping gate "
              "(run bench_threads to measure)")
        return True
    if (fresh.get("dataset") != baseline.get("dataset")
            or fresh.get("options") != baseline.get("options")):
        print("work counters: stats sections describe different "
              "dataset/options; skipping exact comparison")
        return True
    ok = True
    compared = 0
    for key in sorted(baseline):
        if key in ("dataset", "options"):
            continue
        base_val = baseline[key]
        fresh_val = fresh.get(key)
        if not isinstance(base_val, int):
            continue
        compared += 1
        if fresh_val != base_val:
            print(f"work counters: {key}: baseline {base_val} != "
                  f"fresh {fresh_val}  MISMATCH")
            ok = False
    if ok:
        print(f"work counters: {compared} deterministic counters match "
              "exactly")
    else:
        print("work counters: deterministic counter drift -- the search "
              "visited different work than the committed baseline "
              "(pruning/index behaviour changed)")
    return ok


def check_peak_rss(fresh_doc, baseline_doc, max_peak_rss):
    """Gates scalability.peak_rss_bytes (memory-capped out-of-core mine).

    Prefers the fresh measurement, falls back to the committed baseline;
    skips with a notice when neither document carries the section or when
    the gate is disabled (--max-peak-rss 0)."""
    if max_peak_rss <= 0:
        return True
    for label, doc in (("fresh", fresh_doc), ("baseline", baseline_doc)):
        section = doc.get("scalability")
        if not section or "peak_rss_bytes" not in section:
            continue
        peak = int(section["peak_rss_bytes"])
        dataset = section.get("dataset", {})
        ok = peak <= max_peak_rss
        print(f"out-of-core peak RSS ({label}): {peak / 2**20:.1f} MiB at "
              f"{dataset.get('genes', '?')} x "
              f"{dataset.get('conditions', '?')} "
              f"(limit {max_peak_rss / 2**20:.1f} MiB)"
              f"{'' if ok else '  OVER BUDGET'}")
        return ok
    print("out-of-core peak RSS: no scalability section in either input; "
          "skipping gate (run bench_scalability --sweep=outofcore)")
    return True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_miner.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured BENCH file to check")
    parser.add_argument("--prefix", default="BM_MineSynthetic",
                        help="benchmark name prefix to compare "
                             "(default: %(default)s)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum tolerated fractional slowdown "
                             "(default: %(default)s)")
    parser.add_argument("--max-budget-overhead", type=float, default=0.02,
                        help="maximum tolerated budget-guard overhead "
                             "fraction from the budget_overhead section "
                             "(default: %(default)s)")
    parser.add_argument("--max-checkpoint-overhead", type=float, default=0.02,
                        help="maximum tolerated durable-mine overhead "
                             "fraction from the checkpoint_overhead section "
                             "(default: %(default)s)")
    parser.add_argument("--max-stats-overhead", type=float, default=0.01,
                        help="maximum tolerated stats-collection overhead "
                             "fraction from the stats_overhead section "
                             "(default: %(default)s)")
    parser.add_argument("--min-sweep-speedup", type=float, default=1.5,
                        help="minimum required shared-index sweep speedup "
                             "from the sweep section "
                             "(default: %(default)s)")
    parser.add_argument("--min-incremental-speedup", type=float, default=1.5,
                        help="minimum required incremental-append speedup "
                             "over the from-scratch mine, from the "
                             "incremental section (default: %(default)s)")
    parser.add_argument("--min-sort-speedup", type=float, default=1.5,
                        help="minimum required forced-scalar vs best-level "
                             "sort-phase speedup from threads.simd "
                             "(default: %(default)s)")
    parser.add_argument("--phase-threshold", type=float, default=0.15,
                        help="maximum tolerated fractional slowdown per "
                             "serial phase (filter/score/sort/emit) "
                             "(default: %(default)s)")
    parser.add_argument("--phase-floor-ns", type=float, default=5e6,
                        help="serial phases below this many baseline ns are "
                             "reported but not gated "
                             "(default: %(default)s)")
    parser.add_argument("--max-peak-rss", type=float, default=0,
                        help="maximum tolerated peak_rss_bytes from the "
                             "scalability section, in bytes; 0 disables "
                             "the gate (default: %(default)s)")
    parser.add_argument("--min-warm-speedup", type=float, default=4.0,
                        help="minimum required cold/warm request latency "
                             "ratio from the server section (4.0 == warm "
                             "at most 0.25x cold) (default: %(default)s)")
    args = parser.parse_args(argv)

    try:
        baseline_doc = load_doc(args.baseline)
        fresh_doc = load_doc(args.fresh)
        baseline = load_micro(baseline_doc)
        fresh = load_micro(fresh_doc)
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_check: cannot load inputs: {err}", file=sys.stderr)
        return 1

    names = sorted(n for n in baseline if n.startswith(args.prefix))
    if not names:
        print(f"bench_check: baseline {args.baseline} has no benchmarks "
              f"matching prefix {args.prefix!r}", file=sys.stderr)
        return 1

    failed = False
    print(f"{'benchmark':<32} {'baseline':>12} {'fresh':>12} {'ratio':>8}")
    for name in names:
        base_time, base_unit = baseline[name]
        if name not in fresh:
            print(f"{name:<32} {base_time:>10.2f}{base_unit:<2} "
                  f"{'MISSING':>12}")
            failed = True
            continue
        fresh_time, fresh_unit = fresh[name]
        if base_unit != fresh_unit:
            print(f"{name:<32} unit mismatch: baseline {base_unit!r} vs "
                  f"fresh {fresh_unit!r}")
            failed = True
            continue
        ratio = fresh_time / base_time if base_time > 0 else float("inf")
        verdict = ""
        if ratio > 1.0 + args.threshold:
            verdict = f"  REGRESSION (> {1.0 + args.threshold:.2f}x)"
            failed = True
        print(f"{name:<32} {base_time:>10.2f}{base_unit:<2} "
              f"{fresh_time:>10.2f}{fresh_unit:<2} {ratio:>7.2f}x{verdict}")

    for key, what, limit in (
            ("budget_overhead", "budget-guard overhead",
             args.max_budget_overhead),
            ("stats_overhead", "stats-collection overhead",
             args.max_stats_overhead),
            ("checkpoint_overhead", "checkpoint overhead",
             args.max_checkpoint_overhead)):
        if not check_overhead(fresh_doc, baseline_doc, key, what, limit):
            failed = True
    if not check_sweep_speedup(fresh_doc, baseline_doc,
                               args.min_sweep_speedup):
        failed = True
    if not check_incremental_speedup(fresh_doc, baseline_doc,
                                     args.min_incremental_speedup):
        failed = True
    if not check_sort_speedup(fresh_doc, baseline_doc,
                              args.min_sort_speedup):
        failed = True
    if not check_warm_speedup(fresh_doc, baseline_doc,
                              args.min_warm_speedup):
        failed = True
    if not check_phase_ns(fresh_doc, baseline_doc, args.phase_threshold,
                          args.phase_floor_ns):
        failed = True
    if not check_stats_counters(fresh_doc, baseline_doc):
        failed = True
    if not check_peak_rss(fresh_doc, baseline_doc, args.max_peak_rss):
        failed = True

    if failed:
        print(f"bench_check: FAILED (threshold {args.threshold:.0%})",
              file=sys.stderr)
        return 1
    print(f"bench_check: ok ({len(names)} benchmarks within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
