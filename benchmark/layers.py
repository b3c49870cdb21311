"""Per-layer view of a traced replay (the spans trace_driver writes).

A span's self time is its duration minus its direct children's (children
never overlap: the replay is sequential at span level).  Within one op
trace the self times telescope, so the layers' self times plus the op
span's own self time -- the time no layer span covers, reported as
"unattributed" -- add up to the op exactly.

Traces whose root is not "<workload>.op" are probes: separate calls made
outside any op to time work that happens inside a single program call
(see trace_driver.cc).  They never enter the layer table.
"""

import collections
import json
import statistics

LAYERS = ("matrix", "core", "io", "server", "util")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def dur_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def split(spans, workload):
    """(op traces, probe spans): op traces are lists of spans, root first."""
    traces = collections.defaultdict(list)
    for s in spans:
        traces[s["trace_id"]].append(s)
    ops, probes = [], []
    for tid in sorted(traces):
        ss = sorted(traces[tid], key=lambda s: s["span_id"])
        if ss[0]["name"] == workload + ".op":
            ops.append(ss)
        else:
            probes += ss
    return ops, probes


def breakdown(op):
    """{layer or "unattributed": self ms} of one op trace."""
    children = collections.defaultdict(float)
    for s in op[1:]:
        children[s["parent_id"]] += dur_ms(s)
    out = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
    for s in op:
        own = dur_ms(s) - children[s["span_id"]]
        out["unattributed" if s is op[0] else s["name"].split(".")[0]] += own
    return out


def table(ops):
    """Rows (layer, mean self ms per op, share of the op) plus the total."""
    if not ops:
        return [], 0.0
    total = sum(dur_ms(op[0]) for op in ops) / len(ops)
    sums = collections.defaultdict(float)
    for op in ops:
        for layer, ms in breakdown(op).items():
            sums[layer] += ms / len(ops)
    return [(layer, sums[layer], sums[layer] / total if total else 0.0)
            for layer in LAYERS + ("unattributed",)], total


def _median(values):
    return statistics.median(values) if values else 0.0


class Spans:
    """Lookup helpers over one replay."""

    def __init__(self, spans, workload):
        self.ops, self.probes = split(spans, workload)

    def per_op(self, name, key=None):
        """Per op: summed duration (ms) of spans called `name`, or summed
        count `key` on them; ops without such spans are left out."""
        out = []
        for op in self.ops:
            hits = [s for s in op if s["name"] == name]
            if hits:
                out.append(sum(dur_ms(s) if key is None
                               else s["counts"].get(key, 0) for s in hits))
        return out

    def med(self, name, key=None):
        return _median(self.per_op(name, key))

    def total(self, name, key=None):
        return sum(self.per_op(name, key))

    def probe(self, name, key=None):
        return [dur_ms(s) if key is None else s["counts"].get(key, 0)
                for s in self.probes if s["name"] == name]


def per_layer(spans, workload, threads, untraced_p50_ms, serve=None):
    """Every per-layer metric of one workload's replay; layers the workload
    does not reach read 0.  `serve` carries the daemon workload's untraced
    client-side numbers and replayed replies."""
    sp = Spans(spans, workload)
    m = {}
    load_ms = sp.total("matrix.load")
    m["matrix.load_ms"] = sp.med("matrix.load")
    m["matrix.load_mb_per_s"] = (sp.total("matrix.load", "bytes") / 1e6 /
                                 (load_ms / 1e3) if load_ms else 0.0)
    m["matrix.append_ms"] = sp.med("matrix.append")
    m["matrix.write_ms"] = sp.med("matrix.write")

    m["core.model_build_ms"] = sp.med("core.model_build")
    for key in ("rwave_build_ms", "index_build_ms"):
        m["core." + key] = (sp.med("core.model_build", key) or
                            sp.med("io.mine_incremental", key))
    m["core.model_mb"] = sp.med("core.model_build", "model_bytes") / 2**20
    m["core.model_cache_misses"] = sp.med("core.search", "model_cache_misses")
    m["core.model_cache_evictions"] = sp.med("core.search",
                                             "model_cache_evictions")
    m["core.peak_scratch_mb"] = sp.med("core.search",
                                       "peak_scratch_bytes") / 2**20
    m["core.search_ms"] = sp.med("core.search")
    m["core.phase_a_ms"] = sp.med("core.phase_a")
    m["core.phase_b_ms"] = sp.med("core.phase_b")
    serial = sp.probe("core.search")
    m["core.parallel_efficiency"] = (
        _median(serial) / (threads * m["core.search_ms"])
        if serial and m["core.search_ms"] else 0.0)
    counters = ("nodes_expanded", "extensions_tested", "pruned_coherence",
                "coherence_scores", "index_word_ops")
    for key in counters:
        m["core." + key] = (sp.med("core.search", key) or
                            sp.med("io.mine_incremental", key))
    if serve is not None:
        for key in counters:
            m["core." + key] = _median(serve["stats"][key])
    m["core.coherence_reject_ratio"] = (
        m["core.pruned_coherence"] / m["core.extensions_tested"]
        if m["core.extensions_tested"] else 0.0)
    if sp.per_op("core.remove_dominated"):
        m["core.remove_dominated_ms"] = sp.med("core.remove_dominated")
        m["core.dominance_in"] = sp.med("core.remove_dominated", "in")
        m["core.dominance_out"] = sp.med("core.remove_dominated", "out")
    else:
        m["core.remove_dominated_ms"] = _median(sp.probe(
            "core.remove_dominated"))
        m["core.dominance_in"] = _median(sp.probe("core.remove_dominated",
                                                  "in"))
        m["core.dominance_out"] = _median(sp.probe("core.remove_dominated",
                                                   "out"))

    m["util.pool_steals"] = sp.med("core.phase_a", "pool_steals")
    m["util.pool_queue_high_water"] = sp.med("core.phase_a",
                                             "pool_queue_high_water")

    m["io.archive_write_ms"] = sp.med("io.archive_write")
    m["io.archive_bytes"] = sp.med("io.archive_write", "bytes")
    m["io.state_load_ms"] = sp.med("io.state_load")
    m["io.state_write_ms"] = sp.med("io.state_write")
    m["io.state_bytes"] = sp.med("io.state_write", "bytes")
    m["io.mine_incremental_ms"] = sp.med("io.mine_incremental")
    m["io.roots_remined"] = sp.med("io.mine_incremental", "roots_remined")
    m["io.roots_spliced"] = sp.med("io.mine_incremental", "roots_spliced")
    roots = m["io.roots_remined"] + m["io.roots_spliced"]
    m["io.splice_ratio"] = m["io.roots_spliced"] / roots if roots else 0.0

    m.update(server_metrics(sp, serve))

    rows, op_ms = table(sp.ops)
    for layer, ms, _ in rows:
        if layer != "unattributed":
            m[layer + ".self_ms"] = ms
    m["unattributed_frac"] = rows[-1][2] if rows else 0.0
    m["traced_op_ms"] = _median([dur_ms(op[0]) for op in sp.ops])
    m["trace_overhead_ratio"] = (m["traced_op_ms"] / untraced_p50_ms
                                 if untraced_p50_ms else 0.0)
    return m


def server_metrics(sp, serve):
    m = {}
    handles = collections.defaultdict(list)
    for op in sp.ops:
        root, spans = op[0], op[1:]
        missed = (root["counts"].get("model_misses", 0) +
                  root["counts"].get("matrix_misses", 0)) > 0
        for s in spans:
            if s["name"].startswith("server.handle."):
                cls = s["name"].rsplit(".", 1)[1]
                handles[cls].append(dur_ms(s))
                if cls != "append":
                    handles["miss" if missed else "hit"].append(dur_ms(s))
    for cls in ("preview", "full", "sweep", "append", "hit", "miss"):
        m["server.handle_ms." + cls] = _median(handles[cls])
    m["server.parse_ms"] = _median(sp.probe("server.parse"))
    cache = [s["counts"] for s in sp.probes if s["name"] == "probe.cache"]
    c = cache[0] if cache else {}

    def ratio(hits, misses):
        n = c.get(hits, 0) + c.get(misses, 0)
        return c.get(hits, 0) / n if n else 0.0

    m["server.model_hit_ratio"] = ratio("model_hits", "model_misses")
    m["server.matrix_hit_ratio"] = ratio("matrix_hits", "matrix_misses")
    m["server.cache_evictions"] = c.get("evictions", 0)
    m["server.cache_resident_mb"] = c.get("resident_bytes", 0) / 2**20
    # Socket round trip of a health frame minus its in-process handling.
    m["server.transport_ms"] = (
        serve["health_rtt_ms"] - _median(sp.probe("server.handle.health"))
        if serve else 0.0)
    m["server.shed_total"] = serve["shed_total"] if serve else 0
    m["server.conn_wait_ms"] = serve["conn_wait_ms"] if serve else 0.0
    return m
