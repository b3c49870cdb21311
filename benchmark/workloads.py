"""The benchmark's four workloads.

Each workload drives the real `regcluster` binary.  Its life in one run:
  make_inputs  generator output, cached per (workload, seed, SOURCE_KEY)
  make_refs    correctness references from the same binary at --threads=1,
               cached per (inputs, program build)
  setup        program-side set-up before the first timed op (timed; run
               several times, the last one stays up for the measurement)
  measure      the timed ops; every op's output is compared byte for byte
               with its reference
  trace_spec   the same ops for the in-process traced replay
               (trace_driver.cc), plus the expected bytes of its outputs
"""

import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import time

import gen
import serve_client as sc

clock = time.perf_counter

# Hard cap on any one program process, well inside the benchmark's own
# 180 s limit per invocation.
OP_TIMEOUT_S = 120


def _source_key():
    """Digest of the files that define the inputs and the requests.  It is
    part of every cache key, so an edited generator or workload never
    reuses stale inputs or references."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("gen.py", "workloads.py"):
        with open(os.path.join(here, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:10]


SOURCE_KEY = _source_key()


class OpStats:
    """What the timed ops of one run did."""

    def __init__(self):
        self.lat_ms = []     # one per attempted op, failed ones included
        self.cpu_s = 0.0     # program CPU (user + sys) over the timed ops
        self.cpu_ops = 0     # ops that cpu_s covers
        self.rss_kb = 0      # largest RSS of any program process
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0    # timed wall time
        self.completed = 0   # ops counted into ops_per_s over wall_s
        self.errors = []
        self.diag = {}

    def record(self, ok, lat_s, what):
        self.attempted += 1
        self.lat_ms.append(lat_s * 1e3)
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


class Context:
    """Paths and process helpers shared by the workloads of one run."""

    def __init__(self, name, seed, cli, tracer, cache_dir, work_dir,
                 build_key):
        self.name = name
        self.seed = seed
        self.cli = cli
        self.tracer = tracer
        self.cache_dir = cache_dir
        self.work = work_dir
        self.build_key = build_key
        self.log = os.path.join(work_dir, "program.log")

    def rng(self, purpose):
        return gen.Rng(purpose, self.name, self.seed)

    def spawn(self, argv):
        """Runs one program process through `trace_driver run`; returns
        (wall s from fork to reaped exit, cpu s, max RSS KiB, exit code)."""
        proc = subprocess.run(
            [self.tracer, "run", self.log, str(OP_TIMEOUT_S)] + argv,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S + 30)
        if proc.returncode != 0:
            raise RuntimeError("trace_driver run failed: " + proc.stderr)
        wall_ns, cpu_us, rss_kb, code = map(int, proc.stdout.split())
        return wall_ns / 1e9, cpu_us / 1e6, rss_kb, code

    def check(self, argv):
        """Runs a program process that must succeed."""
        code = self.spawn(argv)[3]
        if code != 0:
            raise RuntimeError("%s exited %d:\n%s" % (
                " ".join(argv[:2]), code, self.log_tail()))

    def log_tail(self):
        try:
            with open(self.log) as f:
                return "".join(f.readlines()[-8:])
        except OSError:
            return ""

    def cached(self, kind, key, build):
        """Directory `kind/key` under the cache, filled by build(dir) once;
        a "complete" marker makes interrupted builds start over.  Keeps the
        newest few entries per workload."""
        root = os.path.join(self.cache_dir, kind)
        d = os.path.join(root, key)
        marker = os.path.join(d, "complete")
        if os.path.exists(marker):
            os.utime(marker)
            return d, 0.0
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        t0 = clock()
        build(d)
        elapsed = clock() - t0
        open(marker, "w").close()
        self._prune(root)
        return d, elapsed

    def _prune(self, root, keep=6):
        mine = []
        for entry in os.listdir(root):
            marker = os.path.join(root, entry, "complete")
            if entry.startswith(self.name + "-") and os.path.exists(marker):
                mine.append((os.path.getmtime(marker), entry))
        for _, entry in sorted(mine)[:-keep]:
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)

    def replay(self, spec, path):
        """Runs trace_driver over a spec written to `path`."""
        with open(path, "w") as f:
            json.dump(spec, f)
        proc = subprocess.run([self.tracer, "replay", path],
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("trace_driver failed: " + proc.stderr.strip())


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def cond_names(n):
    return ["c%d" % i for i in range(n)]


class Workload:
    name = ""
    why = ""
    threads = 4

    def __init__(self, ctx):
        self.ctx = ctx
        self.inputs = None
        self.refs = None

    def prepare(self):
        """Inputs and references; returns their build times (diagnostics)."""
        ctx = self.ctx
        key = "%s-s%d-%s" % (self.name, ctx.seed, SOURCE_KEY)
        self.inputs, gen_s = ctx.cached("inputs", key, self.make_inputs)
        self.refs, ref_s = ctx.cached("refs", key + "-" + ctx.build_key,
                                      self.make_refs)
        return {"generate_s": gen_s, "reference_s": ref_s}

    def inp(self, name):
        return os.path.join(self.inputs, name)

    def ref(self, name):
        return os.path.join(self.refs, name)

    def out(self, name):
        return os.path.join(self.ctx.work, name)

    def close(self):
        pass


def cli_loop(ctx, groups, seconds):
    """Closed loop of CLI ops.  `groups` yields lists of (argv, checks);
    checks are (output path, expected bytes).  Whole groups run until the
    timed wall time reaches `seconds`; a failed op ends its group."""
    st = OpStats()
    for group in groups:
        for argv, checks in group:
            wall, cpu, rss, code = ctx.spawn(argv)
            st.wall_s += wall
            st.cpu_s += cpu
            st.cpu_ops += 1
            st.rss_kb = max(st.rss_kb, rss)
            ok = code == 0 and all(read_bytes(p) == want
                                   for p, want in checks)
            st.record(ok, wall, "exit %d: %s" % (code, " ".join(argv[1:3]))
                      if code else "output mismatch: " + checks[0][0])
            if not ok:
                break
        if st.wall_s >= seconds:
            break
    st.completed = st.attempted
    return st


def flags(opts):
    """CLI flags of an options dict: gamma_policy -> --gamma-policy=..."""
    return ["--%s=%s" % (k.replace("_", "-"), v) for k, v in opts.items()]


class MineDense(Workload):
    name = "mine_dense"
    why = ("in-memory text matrix, search-bound: most extensions die in the "
           "coherence window scan, so search-layer work shows here")
    GENES, CONDS, CLUSTERS = 5000, 60, 30
    OPTS = {"ming": 50, "minc": 6, "gamma": 0.1, "epsilon": 0.01}
    CACHE_MB = -1  # eager model build
    SERIAL_PROBE = True

    def matrix(self):
        return self.inp("m.tsv")

    def make_inputs(self, d):
        rows = gen.section5(self.ctx.rng("section5"), self.GENES, self.CONDS,
                            self.CLUSTERS)
        gen.write_tsv(os.path.join(d, "m.tsv"), rows, cond_names(self.CONDS))

    def make_refs(self, d):
        # The eager, resident mine of the text matrix on one thread.
        self.ctx.check([self.ctx.cli, "mine", "--matrix=" + self.inp("m.tsv"),
                        "--matrix-format=text",
                        "--out=" + os.path.join(d, "ref.txt")] +
                       flags(self.OPTS) + ["--threads=1"])

    def mine_argv(self, out):
        cache = [] if self.CACHE_MB < 0 else [
            "--matrix-format=bin", "--model-cache-mb=%d" % self.CACHE_MB]
        return ([self.ctx.cli, "mine", "--matrix=" + self.matrix(),
                 "--out=" + out] + cache + flags(self.OPTS) +
                ["--threads=%d" % self.threads])

    def setup(self):
        self.expected = read_bytes(self.ref("ref.txt"))
        self.ctx.check(self.mine_argv(self.out("warm.txt")))
        if read_bytes(self.out("warm.txt")) != self.expected:
            raise RuntimeError("warm-up output differs from the reference")

    def measure(self, seconds):
        out = self.out("o.txt")
        op = [(self.mine_argv(out), [(out, self.expected)])]
        return cli_loop(self.ctx, iter(lambda: op, None), seconds)

    def trace_spec(self, n):
        ops = [dict(self.OPTS, matrix=self.matrix(), cache_mb=self.CACHE_MB,
                    out=self.out("tr%d.txt" % i)) for i in range(n)]
        spec = {"workload": self.name, "threads": self.threads, "ops": ops,
                "serial_probe": self.SERIAL_PROBE}
        return spec, [(op["out"], self.expected) for op in ops]


class MineOutOfCore(MineDense):
    name = "mine_outofcore"
    why = ("mapped binary matrix with a model cache holding about half the "
           "models: the memory-bound path, no text parse")
    GENES, CONDS, CLUSTERS = 20000, 40, 30
    OPTS = {"ming": 200, "minc": 6, "gamma": 0.1, "epsilon": 0.01}
    CACHE_MB = 12
    SERIAL_PROBE = False

    def matrix(self):
        return self.out("m.bin")

    def setup(self):
        self.ctx.check([self.ctx.cli, "convert", "--in=" + self.inp("m.tsv"),
                        "--out=" + self.matrix(), "--out-format=bin"])
        super().setup()


class TimecourseAppend(Workload):
    name = "timecourse_append"
    why = ("incremental appends to a time course: few dirty roots, so the "
           "state codec and dominance pass dominate, not the search")
    GENES, BASELINE, LEVELS, GAP = 1500, 24, 6, 10.0
    WIDTH = BASELINE + LEVELS
    CHAIN = 5  # appends per chain; every chain restarts from the seed state
    OPTS = {"gamma": 4, "gamma_policy": "absolute", "epsilon": 0.5,
            "ming": 30, "minc": 6}

    def make_inputs(self, d):
        rows, cols = gen.timecourse(self.ctx.rng("timecourse"), self.GENES,
                                    self.BASELINE, self.LEVELS, self.GAP,
                                    self.CHAIN)
        names = cond_names(self.WIDTH)
        gen.write_tsv(os.path.join(d, "w0.tsv"), rows, names)
        for k, col in enumerate(cols):
            name = "a%d" % (self.WIDTH + k)
            gen.write_tsv(os.path.join(d, "app%d.tsv" % k),
                          [[v] for v in col], [name])
            names.append(name)
            rows = [r + [v] for r, v in zip(rows, col)]
            gen.write_tsv(os.path.join(d, "w%d.tsv" % (k + 1)), rows, names)

    def make_refs(self, d):
        # From-scratch mines of every width the chain reaches.
        for k in range(self.CHAIN + 1):
            self.ctx.check([self.ctx.cli, "mine",
                            "--matrix=" + self.inp("w%d.tsv" % k),
                            "--out=" + os.path.join(d, "ref%d.txt" % k)] +
                           flags(self.OPTS) + ["--threads=1"])

    def setup(self):
        self.expected = [read_bytes(self.ref("ref%d.txt" % k))
                         for k in range(self.CHAIN + 1)]
        self.ctx.check([self.ctx.cli, "convert", "--in=" + self.inp("w0.tsv"),
                        "--out=" + self.out("m0.bin"), "--out-format=bin"])
        self.ctx.check([self.ctx.cli, "mine", "--matrix=" + self.out("m0.bin"),
                        "--out=" + self.out("seed.txt"),
                        "--incremental-out=" + self.out("s0")] +
                       flags(self.OPTS) + ["--threads=%d" % self.threads])
        if read_bytes(self.out("seed.txt")) != self.expected[0]:
            raise RuntimeError("seed output differs from the reference")

    def chain_paths(self, k, prefix=""):
        """(matrix, prev state, new matrix, new state, archive) of append k;
        append 0 starts from the seed state."""
        m = self.out("m0.bin" if k == 0 else "%sm%d.bin" % (prefix, k))
        s = self.out("s0" if k == 0 else "%ss%d" % (prefix, k))
        return (m, s, self.out("%sm%d.bin" % (prefix, k + 1)),
                self.out("%ss%d" % (prefix, k + 1)),
                self.out("%so%d.txt" % (prefix, k + 1)))

    def measure(self, seconds):
        chain = []
        for k in range(self.CHAIN):
            m, s, m2, s2, out = self.chain_paths(k)
            argv = [self.ctx.cli, "mine", "--matrix=" + m,
                    "--append=" + self.inp("app%d.tsv" % k),
                    "--prev-outcome=" + s, "--incremental-out=" + s2,
                    "--matrix-out=" + m2, "--out=" + out] + \
                flags(self.OPTS) + ["--threads=%d" % self.threads]
            chain.append((argv, [(out, self.expected[k + 1])]))
        return cli_loop(self.ctx, iter(lambda: chain, None), seconds)

    def trace_spec(self, n):
        ops, checks = [], []
        for k in range(min(n, self.CHAIN)):
            m, s, m2, s2, out = self.chain_paths(k, "tr_")
            ops.append(dict(self.OPTS, matrix=m, prev=s, matrix_out=m2,
                            state_out=s2, out=out,
                            append=self.inp("app%d.tsv" % k)))
            checks.append((out, self.expected[k + 1]))
        return {"workload": self.name, "threads": self.threads,
                "ops": ops}, checks


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("daemon under mixed open-loop traffic with appends: budgets cap "
           "the search, so parse, admission, cache and render costs show")
    # (name, genes, conditions, storage) of the matrices readers query.
    MATRICES = [("a", 3000, 40, "bin"), ("b", 4000, 40, "bin"),
                ("c", 2000, 60, "text"), ("d", 5000, 30, "bin")]
    GAMMAS = (0.1, 0.15, 0.2)  # of previews; full mines and sweeps: 0.15
    TC_GENES = 2000
    MAX_APPENDS = 20
    # The cache holds about nine tenths of what the twelve preview models
    # and four matrices need, so models keep being evicted.
    DAEMON = {"threads": 2, "max_active": 2, "max_queued": 8, "cache_mb": 80}
    # Nominal open-loop rate, about a tenth of the closed-loop capacity
    # measured on the 4-core reference host.  At a third of capacity a run
    # sent about 470 requests, the tail became the 10th slowest of those,
    # and it moved by over 25 % between runs (see README.md).
    RATE_PER_S = 10.0
    WRITER_PERIOD_S = 3.0
    OPEN_SHARE = 2.0 / 3.0  # of --seconds; the rest is the saturation phase
    LAG_LIMIT_MS = 10.0

    def __init__(self, ctx):
        super().__init__(ctx)
        self.daemon = None
        self.daemon_log = None
        self.sock = None
        self._columns = None

    @property
    def columns(self):
        """The time course's appended columns, as formatted numbers."""
        if self._columns is None:
            with open(self.inp("t_append.json")) as f:
                self._columns = json.load(f)
        return self._columns

    # --- inputs and references -----------------------------------------------

    def make_inputs(self, d):
        rng = self.ctx.rng("section5")
        for name, genes, conds, _ in self.MATRICES:
            rows = gen.section5(rng, genes, conds, 30)
            gen.write_tsv(os.path.join(d, name + ".tsv"), rows,
                          cond_names(conds))
        rows, cols = gen.timecourse(self.ctx.rng("timecourse"), self.TC_GENES,
                                    24, 6, 10.0, self.MAX_APPENDS)
        gen.write_tsv(os.path.join(d, "t.tsv"), rows, cond_names(30))
        with open(os.path.join(d, "t_append.json"), "w") as f:
            json.dump([[gen.fmt(v) for v in col] for col in cols], f)

    def convert(self, d):
        """Binary copies of the bin-stored matrices and of the time course."""
        for name, _, _, storage in self.MATRICES + [("t", 0, 0, "bin")]:
            if storage == "bin":
                self.ctx.check([self.ctx.cli, "convert",
                                "--in=" + self.inp(name + ".tsv"),
                                "--out=" + os.path.join(d, name + ".bin"),
                                "--out-format=bin"])

    def matrix_path(self, d, name):
        storage = dict((m[0], m[3]) for m in self.MATRICES).get(name, "bin")
        return (os.path.join(d, name + ".bin") if storage == "bin"
                else self.inp(name + ".tsv"))

    def reader_keys(self):
        keys = []
        for name, _, _, _ in self.MATRICES:
            keys += ["preview:%s:%s" % (name, g) for g in self.GAMMAS]
            keys += ["full:%s" % name, "sweep:%s" % name]
        return keys

    def deck(self):
        """One deck of reader requests: every preview and full mine twice,
        every sweep once (67 % previews, 22 % full mines, 11 % sweeps).
        Runs deal whole decks, so only the order varies with the seed."""
        return [k for k in self.reader_keys()
                for _ in range(1 if k.startswith("sweep") else 2)]

    def payload(self, key, d, tc=None):
        """Frame JSON of a request key over the matrices in directory d
        (the time course at `tc` when given)."""
        parts = key.split(":")
        kind = parts[0]
        tc = tc or self.matrix_path(d, "t")
        if kind == "append":
            k = int(parts[1])
            body = ('{"op":"append","matrix":%s,"names":["a%d"],'
                    '"columns":[[%s]]}' % (json.dumps(tc), 30 + k,
                                           ",".join(self.columns[k])))
            return body.encode()
        if kind == "tcpreview":
            req = {"op": "mine", "matrix": tc,
                   "ming": 30, "minc": 6, "gamma": 4,
                   "gamma_policy": "absolute", "epsilon": 0.5,
                   "max_nodes": 24}
        else:
            req = {"op": "sweep" if kind == "sweep" else "mine",
                   "matrix": self.matrix_path(d, parts[1]), "ming": 50,
                   "minc": 7, "epsilon": 0.05,
                   "gamma": float(parts[2]) if kind == "preview" else 0.15}
            if kind == "preview":
                req["max_nodes"] = 24
            if kind == "sweep":
                req["spec"] = "minc=7;8;9"
        req["deterministic_output"] = True
        return json.dumps(req).encode()

    def writer_keys(self, k):
        return ["append:%d" % k, "tcpreview:%d" % k]

    def make_refs(self, d):
        self.convert(d)
        keys = self.reader_keys()
        for k in range(self.MAX_APPENDS):
            keys += self.writer_keys(k)
        frames = [{"class": k.split(":")[0].replace("tcpreview", "preview"),
                   "payload": self.payload(k, d).decode()} for k in keys]
        spec = dict(self.DAEMON, workload=self.name, threads=1, frames=frames,
                    replies_out=os.path.join(d, "replies"),
                    spans_out=os.path.join(d, "spans.jsonl"))
        self.ctx.replay(spec, os.path.join(d, "spec.json"))
        replies = read_replies(os.path.join(d, "replies"))
        with open(os.path.join(d, "refs.json"), "w") as f:
            json.dump(dict(zip(keys, replies)), f)

    def correct(self, key, reply):
        want = self.expected.get(key)
        if key.startswith("append:"):
            # "invalidated" counts whatever the cache held: not comparable.
            try:
                got, ref = json.loads(reply), json.loads(want)
            except (TypeError, ValueError):
                return False
            return (got.get("status") == "ok" and
                    got.get("num_conditions") == ref.get("num_conditions"))
        return reply.decode(errors="replace") == want

    # --- daemon --------------------------------------------------------------

    def setup(self):
        with open(self.ref("refs.json")) as f:
            self.expected = json.load(f)
        self.convert(self.ctx.work)
        sock = self.out("daemon.sock")
        # A relative path keeps the socket name under the 108-byte limit.
        self.sock = os.path.relpath(sock)
        if os.path.exists(sock):
            os.unlink(sock)
        flags = ["--%s=%d" % (k.replace("_", "-"), v)
                 for k, v in self.DAEMON.items()]
        self.daemon_log = open(self.ctx.log, "w")
        self.daemon = subprocess.Popen(
            [self.ctx.cli, "serve", "--socket=" + self.sock] + flags,
            stdout=subprocess.PIPE, stderr=self.daemon_log, text=True)
        ready, _, _ = select.select([self.daemon.stdout], [], [], 30)
        line = self.daemon.stdout.readline() if ready else ""
        if not line.startswith("listening"):
            raise RuntimeError("daemon did not start:\n" + self.ctx.log_tail())
        conn = sc.Conn(self.sock)
        try:
            for key in self.warmup_keys():
                req = sc.roundtrip(conn, sc.Request(
                    "preview", key, self.payload(key, self.ctx.work)))
                if not self.correct(key, req.reply):
                    raise RuntimeError("warm-up reply differs: " + key)
        finally:
            conn.close()

    def warmup_keys(self):
        """The warm-up pass: every preview once."""
        return [k for k in self.reader_keys() if k.startswith("preview:")]

    def close(self):
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon_log.close()
        self.daemon = None

    def daemon_cpu_s(self):
        with open("/proc/%d/stat" % self.daemon.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def daemon_hwm_kb(self):
        with open("/proc/%d/status" % self.daemon.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    # --- traffic -------------------------------------------------------------

    def reader_stream(self):
        """Endless sequence of reader requests: shuffled decks, one after
        another.  The shuffle does not depend on the seed: the order of
        requests decides which ones hit the cache, and a seed-dependent
        hit pattern would swamp the differences the benchmark is after.
        The seed varies the matrices and the arrival times."""
        rng = gen.Rng("deck", self.name)
        while True:
            deck = self.deck()
            rng.shuffle(deck)
            for key in deck:
                yield sc.Request(key.split(":")[0], key,
                                 self.payload(key, self.ctx.work))

    def schedule(self, seconds):
        """(reader arrivals, writer events) of the open loop: the whole
        decks closest to `seconds` at the nominal rate, Poisson arrivals,
        and a writer event every WRITER_PERIOD_S while readers arrive.  A
        longer loop's schedule extends a shorter one's."""
        size = len(self.deck())
        count = size * max(1, round(self.RATE_PER_S * seconds / size))
        gaps = self.ctx.rng("arrivals")
        arrivals = []
        t = 0.0
        for req in self.reader_stream():
            if len(arrivals) == count:
                break
            t += gaps.exponential(self.RATE_PER_S)
            req.due, req.phase = t, "open"
            arrivals.append(req)
        writes = []
        k = 0
        while (k + 1) * self.WRITER_PERIOD_S < t and k < self.MAX_APPENDS:
            key = self.writer_keys(k)[0]
            writes.append(sc.Request("append", key, self.payload(
                key, self.ctx.work), (k + 1) * self.WRITER_PERIOD_S, "open"))
            k += 1
        return arrivals, writes

    def measure(self, seconds):
        open_s = seconds * self.OPEN_SHARE
        arrivals, writes = self.schedule(open_s)
        readers = [sc.Conn(self.sock) for _ in range(3)]
        writer = sc.Conn(self.sock)
        loop = sc.Loop(readers, writer)

        def followup(req):
            if req.kind != "append":
                return None
            key = self.writer_keys(int(req.key.split(":")[1]))[1]
            return sc.Request("preview", key, self.payload(key, self.ctx.work),
                              phase="open")

        closed = self.reader_stream()

        def next_closed():
            req = next(closed)
            req.phase = "closed"
            return req

        cpu0 = self.daemon_cpu_s()
        try:
            loop.open_loop(clock(), arrivals, writes, followup)
            sat_s = loop.closed_loop(next_closed, seconds - open_s)
            # Untimed: health-frame round trips measure the transport alone.
            health = []
            for _ in range(50):
                r = sc.roundtrip(readers[0], sc.Request(
                    "health", "", b'{"op":"health"}'))
                health.append((r.done - r.sent) * 1e3)
            health.sort()
        finally:
            for c in readers + [writer]:
                c.close()
        st = OpStats()
        st.cpu_s = self.daemon_cpu_s() - cpu0
        st.rss_kb = self.daemon_hwm_kb()
        shed = 0
        for req in loop.finished:
            ok = self.correct(req.key, req.reply)
            shed += b'"status":"shed"' in req.reply
            if req.phase == "open":
                st.record(ok, req.done - req.due, "reply differs: " + req.key)
            elif not ok:
                st.attempted += 1
                st.failed += 1
                st.errors.append("reply differs: " + req.key)
            else:
                st.attempted += 1
        st.cpu_ops = len(loop.finished)
        closed_done = [r for r in loop.finished if r.phase == "closed"]
        st.completed = len(closed_done)
        st.wall_s = sat_s
        opened = [r for r in loop.finished if r.phase == "open"]
        lag = sorted((r.released - r.due) * 1e3 for r in opened)
        p90_lag = lag[int(0.9 * (len(lag) - 1))] if lag else 0.0
        st.diag = {
            "open_loop_requests": len(opened),
            "closed_loop_requests": len(closed_done),
            "rate_per_s": self.RATE_PER_S,
            "generator_lag_p90_ms": p90_lag,
            "valid": p90_lag <= self.LAG_LIMIT_MS,
            "shed_total": shed,
            "conn_wait_ms": (sum((r.sent - r.released) * 1e3 for r in opened)
                             / max(len(opened), 1)),
            "health_rtt_ms": health[len(health) // 2],
        }
        return st

    def trace_spec(self, n):
        """The open loop's first n requests in due order, writer appends and
        their previews included, against a fresh time-course copy."""
        d = self.ctx.work
        tc = os.path.join(d, "tr_t.bin")
        self.ctx.check([self.ctx.cli, "convert", "--in=" + self.inp("t.tsv"),
                        "--out=" + tc, "--out-format=bin"])
        arrivals, writes = self.schedule(
            2.0 * n / self.RATE_PER_S + self.WRITER_PERIOD_S)
        keys = []
        for _, key in sorted([(r.due, r.key) for r in arrivals + writes]):
            keys += ([key] if not key.startswith("append:")
                     else self.writer_keys(int(key.split(":")[1])))
        frames = [{"class": key.split(":")[0].replace("tcpreview", "preview"),
                   "payload": self.payload(key, d, tc).decode(), "key": key}
                  for key in keys[:n]]
        spec = dict(self.DAEMON, workload=self.name,
                    threads=self.DAEMON["threads"], frames=frames,
                    warmup=[self.payload(k, d).decode()
                            for k in self.warmup_keys()],
                    replies_out=os.path.join(d, "tr_replies"))
        return spec, frames


def read_replies(path):
    """Parses trace_driver's "<length>\\n<body>" reply stream."""
    with open(path, "rb") as f:
        data = f.read()
    out, pos = [], 0
    while pos < len(data):
        nl = data.index(b"\n", pos)
        size = int(data[pos:nl])
        out.append(data[nl + 1:nl + 1 + size].decode())
        pos = nl + 1 + size
    return out


WORKLOADS = [MineDense, MineOutOfCore, ServeMixed, TimecourseAppend]
