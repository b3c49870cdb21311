#!/usr/bin/env python3
"""End-to-end benchmark of regcluster.

  python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace [0|1]] [--out DIR] [--repeat N]
  python3 benchmark/run.py compare RESULT_A RESULT_B

Builds the program from the checkout (into .bench_build/), runs each
selected workload (all four by default), checks every output against its
reference, prints every metric with its unit, and writes the results
(with provenance) under --out.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"} -- the
end-to-end metrics, or with --trace the per-layer metrics of a traced
replay (trace.jsonl lands under --out).  See benchmark/README.md.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 5
TRACED_OPS = 5        # replayed ops per CLI workload
TRACED_REQUESTS = 216  # serve_mixed: six decks of the open loop
BY_NAME = {w.name: w for w in workloads.WORKLOADS}
# Host and configuration fields that must match for results to compare.
COMPARABLE = ("nproc", "cpu_model", "compiler", "build_type", "simd")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- build and provenance ----------------------------------------------------

def cmake_cache(build_dir):
    out = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                out[key.split(":")[0]] = value
    return out


def build():
    """Builds the CLI with the repository's CMakeLists.txt and trace_driver
    against the same tree; returns both binaries' paths."""
    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src", "tools")):
        fail("no regcluster sources next to benchmark/; run from a full "
             "checkout")
    repo_dir = os.path.join(BUILD, "repo")
    tracer_dir = os.path.join(BUILD, "trace")
    jobs = str(os.cpu_count() or 1)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        def step(argv):
            log.write("$ " + " ".join(argv) + "\n")
            log.flush()
            if subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                              timeout=1500).returncode != 0:
                log.close()
                with open(log.name) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log.name)

        if not os.path.exists(os.path.join(repo_dir, "CMakeCache.txt")):
            step(["cmake", "-S", ROOT, "-B", repo_dir,
                  "-DCMAKE_BUILD_TYPE=Release"])
        step(["cmake", "--build", repo_dir, "--target", "regcluster_cli",
              "-j", jobs])
        if not os.path.exists(os.path.join(tracer_dir, "CMakeCache.txt")):
            cache = cmake_cache(repo_dir)
            step(["cmake", "-S", HERE, "-B", tracer_dir,
                  "-DCMAKE_CXX_COMPILER=" + cache["CMAKE_CXX_COMPILER"],
                  "-DCMAKE_BUILD_TYPE=" + cache["CMAKE_BUILD_TYPE"],
                  "-DREGCLUSTER_SOURCE_DIR=" + ROOT,
                  "-DREGCLUSTER_BUILD_DIR=" + repo_dir])
        step(["cmake", "--build", tracer_dir, "-j", jobs])
    return (os.path.join(repo_dir, "tools", "regcluster"),
            os.path.join(tracer_dir, "trace_driver"))


def build_key(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def provenance(cli, tracer):
    cache = cmake_cache(os.path.join(BUILD, "repo"))
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    cpu = "?"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "simd": json.loads(subprocess.run(
            [tracer, "info"], capture_output=True, text=True).stdout)["simd"],
        "python": platform.python_version(),
    }


# --- one workload ------------------------------------------------------------

def quantile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(st, setups):
    """The end-to-end metrics of an untraced measurement."""
    n = len(st.lat_ms)
    # The highest percentile with at least ten samples beyond it (p50 when
    # there are too few samples for any).
    tail = max(0.5, 1.0 - 10.0 / n)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": quantile(st.lat_ms, 0.5),
        "op_tail_ms": quantile(st.lat_ms, tail),
        "ops_per_s": st.completed / st.wall_s,
        "cpu_s_per_op": st.cpu_s / st.cpu_ops,
        "peak_rss_mb": st.rss_kb / 1024.0,
    }
    diag = {"samples": n, "tail_percentile": round(100 * tail, 1),
            "failed_frac": st.failed / st.attempted,
            "setup_runs_s": setups}
    return metrics, diag


def run_trace(wl, ctx, untraced_p50, st):
    """The traced in-process replay; returns (per-layer metrics, table,
    spans, outputs checked, mismatches)."""
    serve = wl.name == "serve_mixed"
    spec, checks = wl.trace_spec(TRACED_REQUESTS if serve else TRACED_OPS)
    spec["spans_out"] = os.path.join(ctx.work, "spans.jsonl")
    ctx.replay(spec, os.path.join(ctx.work, "trace_spec.json"))
    spans = layers.load(spec["spans_out"])
    serve_info = None
    if serve:
        replies = workloads.read_replies(spec["replies_out"])
        mismatches = sum(not wl.correct(f["key"], r.encode())
                         for f, r in zip(checks, replies))
        mismatches += len(checks) - len(replies)
        stats = {k: [] for k in ("nodes_expanded", "extensions_tested",
                                 "pruned_coherence", "coherence_scores",
                                 "index_word_ops")}
        for doc in map(json.loads, replies):
            if "stats" in doc:  # mine replies; sweeps report per point
                for k in stats:
                    stats[k].append(doc["stats"][k])
        serve_info = dict(st.diag, stats=stats)
    else:
        mismatches = sum(workloads.read_bytes(path) != want
                         for path, want in checks)
    metrics = layers.per_layer(spans, wl.name, wl.threads, untraced_p50,
                               serve_info)
    rows, op_ms = layers.table(layers.split(spans, wl.name)[0])
    return (metrics, {"rows": rows, "op_ms": op_ms}, spans, len(checks),
            mismatches)


def run_workload(name, seed, seconds, trace, out_dir, cli, tracer, key):
    work = os.path.join(out_dir, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(name, seed, cli, tracer, BUILD, work, key)
    wl = BY_NAME[name](ctx)
    diag = wl.prepare()
    setups = []
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if i:
                wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        # A traced run spends half its time on the untraced ops that the
        # tracing overhead and the transport split are measured against.
        st = wl.measure(seconds / 2.0 if trace else seconds)
        metrics, e2e_diag = end_to_end(st, setups)
        diag.update(e2e_diag)
        diag.update(st.diag)
        result = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": bool(trace), "attempted": st.attempted,
                  "failed": st.failed, "errors": st.errors,
                  "metrics": metrics, "diagnostics": diag}
        if trace:
            per_layer, tab, spans, checked, mismatches = run_trace(
                wl, ctx, metrics["op_p50_ms"], st)
            result.update(per_layer=per_layer, layer_table=tab,
                          spans=spans)
            result["attempted"] += checked
            result["failed"] += mismatches
            if mismatches:
                result["errors"].append(
                    "%d traced outputs differ from the references" %
                    mismatches)
    finally:
        wl.close()
    return result


# --- reporting ---------------------------------------------------------------

def print_result(r, cfg):
    d = r["diagnostics"]
    print("\n%s  seed=%d  %d ops, tail = p%g, %d failed" % (
        r["workload"], r["seed"], d["samples"], d["tail_percentile"],
        r["failed"]))
    for m in cfg["end_to_end"]:
        print("  %-14s %12.4f %-6s (%s is better, bound %d%%)" % (
            m["name"], r["metrics"][m["name"]], m["unit"], m["better"],
            round(100 * m["bound"])))
    print("  %-14s %12.4f        (diagnostic)" % ("failed_frac",
                                                   d["failed_frac"]))
    print("  inputs %.2f s, references %.2f s (outside setup_s)" % (
        d["generate_s"], d["reference_s"]))
    if "valid" in d:
        print("  generator lag p90 %.2f ms%s" % (
            d["generator_lag_p90_ms"],
            "" if d["valid"] else "  INVALID: over %g ms, the client, not "
            "the daemon, set the latency" %
            BY_NAME[r["workload"]].LAG_LIMIT_MS))
    for e in r["errors"]:
        print("  error: " + e)
    if r.get("layer_table"):
        tab = r["layer_table"]
        print("  traced op %.3f ms; self time per layer:" % tab["op_ms"])
        for layer, ms, share in tab["rows"]:
            print("    %-13s %10.3f ms  %6.1f %%" % (layer, ms, 100 * share))
        print("    %-13s %10.3f ms" % ("sum", sum(x[1] for x in tab["rows"])))
        units = {m["name"]: m["unit"] for m in cfg["per_layer"]}
        for name, value in r["per_layer"].items():
            print("    %-28s %14.4f %s" % (name, value, units.get(name, "")))


def write_trace(results, path):
    """trace.jsonl: every replayed span, trace ids made unique across
    workloads and a "workload" field added."""
    offset = 0
    with open(path, "w") as f:
        for r in results:
            spans = r.pop("spans", [])
            for s in spans:
                f.write(json.dumps(dict(s, trace_id=s["trace_id"] + offset,
                                        workload=r["workload"])) + "\n")
            offset += max([s["trace_id"] for s in spans] or [0])


def summary_line(results, cfg, trace):
    """The contract line: per-workload metric names when several ran."""
    declared = cfg["per_layer" if trace else "end_to_end"]
    metrics = {}
    for r in results:
        values = r["per_layer"] if trace else r["metrics"]
        for m in declared:
            key = (m["name"] if len(results) == 1
                   else r["workload"] + "." + m["name"])
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics})


# --- compare and repeat ------------------------------------------------------

def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["provenance"], {r["workload"]: r for r in doc["results"]}


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare RESULT_A RESULT_B")
    cfg = config()
    (pa, ra), (pb, rb) = load_results(argv[0]), load_results(argv[1])
    differ = [k for k in COMPARABLE if pa.get(k) != pb.get(k)]
    if differ:
        for k in differ:
            print("  %s: %r vs %r" % (k, pa.get(k), pb.get(k)),
                  file=sys.stderr)
        fail("refusing to compare results from different hosts or "
             "configurations")
    invalid = [n for n in ra if ra[n]["diagnostics"].get("valid") is False] + [
        n for n in rb if rb[n]["diagnostics"].get("valid") is False]
    if invalid:
        fail("refusing to compare invalid serve runs: " + ", ".join(invalid))
    worse = 0
    print("%-18s %-14s %12s %12s %8s" % ("workload", "metric", "A", "B",
                                         "change"))
    for name in [n for n in ra if n in rb]:
        for m in cfg["end_to_end"]:
            a = ra[name]["metrics"][m["name"]]
            b = rb[name]["metrics"][m["name"]]
            change = (b - a) / a if a else 0.0
            worse_by = change if m["better"] == "lower" else -change
            regress = worse_by > m["bound"]
            worse += regress
            print("%-18s %-14s %12.4f %12.4f %+7.1f%%%s" % (
                name, m["name"], a, b, 100 * change,
                "  WORSE than the %d%% bound" % round(100 * m["bound"])
                if regress else ""))
    return 1 if worse else 0


def repeat(args, names, cfg):
    """Runs each workload args.repeat times in fresh processes, seeds
    seed, seed + 1, ..., alternating the workload order, and prints each
    end-to-end metric's quartile spread as a share of its median against
    its bound (setup_s is reported but not held to it)."""
    values = {n: {m["name"]: [] for m in cfg["end_to_end"]} for n in names}
    failed = 0
    for i in range(args.repeat):
        for name in (names if i % 2 == 0 else names[::-1]):
            argv = [sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(args.seed + i),
                    "--seconds", str(args.seconds), "--out", args.out]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail("run %d of %s failed" % (i, name))
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += line["failed"]
            for k, v in line["metrics"].items():
                values[name][k].append(v["value"])
            print("run %d %-18s %s" % (i, name, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in line["metrics"].items())), flush=True)
    bad = 0
    print("\n%-18s %-14s %12s %8s %8s" % ("workload", "metric", "median",
                                         "spread", "bound"))
    for name in names:
        for m in cfg["end_to_end"]:
            xs = values[name][m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            held = m["name"] == "setup_s" or spread <= m["bound"]
            bad += not held
            print("%-18s %-14s %12.4f %7.1f%% %7.0f%%%s" % (
                name, m["name"], med, 100 * spread, 100 * m["bound"],
                "" if held else "  OVER BOUND"))
    print("failed ops: %d" % failed)
    return 1 if bad or failed else 0


# --- main --------------------------------------------------------------------

def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    cfg = config()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(BY_NAME))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=cfg["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", default=os.path.join(ROOT, "build-bench"))
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    names = ([args.workload] if args.workload
             else [w.name for w in workloads.WORKLOADS])
    args.out = os.path.abspath(args.out)
    if args.repeat:
        return repeat(args, names, cfg)
    cli, tracer = build()
    prov = provenance(cli, tracer)
    key = build_key([cli, tracer])
    os.makedirs(args.out, exist_ok=True)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds,
                                        args.trace, args.out, cli, tracer,
                                        key))
        except (RuntimeError, OSError, ValueError) as e:
            fail("%s: %s" % (name, e))
        print_result(results[-1], cfg)
    if args.trace:
        write_trace(results, os.path.join(args.out, "trace.jsonl"))
    tag = "%s-s%d%s" % (args.workload or "all", args.seed,
                        "-trace" if args.trace else "")
    with open(os.path.join(args.out, "result-%s.json" % tag), "w") as f:
        json.dump({"provenance": prov, "results": results}, f, indent=1)
    print(summary_line(results, cfg, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
