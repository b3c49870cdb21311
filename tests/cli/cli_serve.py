#!/usr/bin/env python3
"""Daemon lifecycle e2e: `regcluster serve` over real sockets.

Drives a freshly started daemon end to end:
  * readiness line with the ephemeral port;
  * GET /healthz, GET /metrics;
  * POST /mine twice (deterministic) -- byte-identical, second one warm;
  * POST /sweep;
  * named error statuses for bad JSON / unknown endpoints;
  * the binary framing, including a torn frame (disconnect mid-prefix)
    answered with a framed "torn_frame" error -- and the daemon survives;
  * a second daemon with a tiny --memory-budget-mb sheds 503 + Retry-After;
  * SIGTERM while a request is in flight: the in-flight response completes,
    the daemon drains and exits 0.

Usage: cli_serve.py <regcluster-cli> <workdir>
"""

import http.client
import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time


def fail(msg):
    print("FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


class Daemon:
    """A `regcluster serve` child plus its parsed readiness line."""

    def __init__(self, cli, workdir, extra_flags=()):
        self.proc = subprocess.Popen(
            [cli, "serve", "--port=0"] + list(extra_flags),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=workdir,
            text=True,
        )
        line = self.proc.stdout.readline()
        check(line.startswith("listening port="),
              "no readiness line, got: %r" % line)
        self.port = int(line.split("port=")[1].split()[0])

    def http(self, method, target, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.request(method, target, body=body)
        response = conn.getresponse()
        payload = response.read()
        headers = dict((k.lower(), v) for k, v in response.getheaders())
        conn.close()
        return response.status, headers, payload

    def frame_socket(self):
        s = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        s.settimeout(60)
        return s

    def terminate_and_wait(self):
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=120)
        return self.proc.returncode, out, err


def send_frame(sock, payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_frame(sock):
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        check(chunk, "connection closed before a frame length")
        prefix += chunk
    (length,) = struct.unpack(">I", prefix)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        check(chunk, "connection closed mid frame payload")
        payload += chunk
    return payload


def main():
    # Popen resolves a relative program path against the child's cwd (the
    # workdir), so pin the CLI to an absolute path up front.
    cli, workdir = os.path.abspath(sys.argv[1]), sys.argv[2]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    rc = subprocess.run(
        [cli, "generate", "--out-matrix=m.tsv", "--out-truth=t.txt",
         "--genes=200", "--conditions=16", "--clusters=3",
         "--gene-fraction=0.05", "--seed=9"],
        cwd=workdir).returncode
    check(rc == 0, "generate failed")
    # Binary copy for the /append battery (appends need the binary format).
    rc = subprocess.run(
        [cli, "convert", "--in=m.tsv", "--out=m.rgx", "--out-format=bin"],
        cwd=workdir).returncode
    check(rc == 0, "convert to binary failed")

    daemon = Daemon(cli, workdir)

    # -- health + metrics ---------------------------------------------------
    status, _, body = daemon.http("GET", "/healthz")
    check(status == 200 and body == b'{"status":"ok"}\n',
          "healthz: %s %r" % (status, body))

    mine_request = json.dumps({
        "matrix": "m.tsv", "ming": 6, "minc": 5, "gamma": 0.1,
        "epsilon": 0.05, "collect_stats": True,
        "deterministic_output": True,
    })

    # -- mine twice: byte-identical, second one served warm -----------------
    status, _, cold = daemon.http("POST", "/mine", mine_request)
    check(status == 200, "cold mine: %s %r" % (status, cold[:200]))
    check(b'"clusters"' in cold, "mine response has no clusters block")
    status, _, warm = daemon.http("POST", "/mine", mine_request)
    check(status == 200, "warm mine failed")
    check(warm == cold, "warm mine is not byte-identical to the cold mine")

    # -- sweep --------------------------------------------------------------
    sweep_request = json.dumps({
        "matrix": "m.tsv", "ming": 6, "epsilon": 0.05,
        "spec": "gamma=0.1;0.15,minc=4;5", "deterministic_output": True,
    })
    status, _, sweep = daemon.http("POST", "/sweep", sweep_request)
    check(status == 200, "sweep: %s %r" % (status, sweep[:200]))
    check(b'"runs_total": 4' in sweep, "sweep did not run the 4-point grid")

    # -- metrics reflect the traffic ----------------------------------------
    status, headers, metrics = daemon.http("GET", "/metrics")
    check(status == 200, "metrics failed")
    check(headers.get("content-type", "").startswith("text/plain"),
          "metrics content type: %r" % headers.get("content-type"))
    text = metrics.decode()
    for needle in ("regcluster_server_requests", "regcluster_server_shed 0",
                   "regcluster_server_cache_hits", "regcluster_server_active",
                   "regcluster_server_queue_depth"):
        check(needle in text, "metrics missing %r:\n%s" % (needle, text))
    # The warm mine hit both cache levels.
    hits = [l for l in text.splitlines()
            if l.startswith("regcluster_server_cache_hits ")]
    check(hits and int(hits[0].split()[1]) >= 2,
          "expected warm-mine cache hits in:\n%s" % text)

    # -- named errors over HTTP ---------------------------------------------
    status, _, body = daemon.http("POST", "/mine", "{not json")
    check(status == 400 and b'"error_name":"bad_json"' in body,
          "bad json: %s %r" % (status, body))
    status, _, body = daemon.http("GET", "/nope")
    check(status == 404 and b'"error_name":"unknown_endpoint"' in body,
          "unknown endpoint: %s %r" % (status, body))
    status, _, body = daemon.http("POST", "/mine",
                                  '{"matrix":"m.tsv","bogus_field":1}')
    check(status == 400 and b'"error_name":"bad_request"' in body,
          "unknown field: %s %r" % (status, body))

    # -- binary framing -----------------------------------------------------
    s = daemon.frame_socket()
    send_frame(s, b'{"op":"health"}')
    check(recv_frame(s) == b'{"status":"ok"}\n', "frame health mismatch")
    # The binary connection is persistent: a second op on the same socket.
    send_frame(s, mine_request.encode())
    # ... which lacks "op": a named bad_request, not a dead daemon.
    reply = recv_frame(s)
    check(b'"error_name":"bad_request"' in reply,
          "op-less frame: %r" % reply[:200])
    send_frame(s, b'{"op":"mine",' + mine_request.encode()[1:])
    framed_mine = recv_frame(s)
    check(framed_mine == cold,
          "frame mine is not byte-identical to the HTTP mine")
    s.close()

    # -- torn frame: disconnect mid length prefix ---------------------------
    s = daemon.frame_socket()
    s.sendall(b"\x00\x00")  # half a length prefix
    s.shutdown(socket.SHUT_WR)  # peer goes away mid-request
    reply = recv_frame(s)
    check(b'"error_name":"torn_frame"' in reply, "torn frame: %r" % reply)
    s.close()

    # -- oversized declared length ------------------------------------------
    s = daemon.frame_socket()
    s.sendall(struct.pack(">I", (16 << 20) + 1))
    reply = recv_frame(s)
    check(b'"error_name":"frame_too_large"' in reply,
          "oversized frame: %r" % reply)
    s.close()

    # The daemon survived every fault above.
    status, _, body = daemon.http("GET", "/healthz")
    check(status == 200, "daemon died after protocol faults")

    # -- append: cache invalidation + warm-mine byte-identity ----------------
    bin_mine_request = json.dumps({
        "matrix": "m.rgx", "ming": 6, "minc": 5, "gamma": 0.1,
        "epsilon": 0.05, "collect_stats": True,
        "deterministic_output": True,
    })
    status, _, before = daemon.http("POST", "/mine", bin_mine_request)
    check(status == 200, "binary mine: %s %r" % (status, before[:200]))
    status, _, before_warm = daemon.http("POST", "/mine", bin_mine_request)
    check(status == 200 and before_warm == before,
          "warm binary mine is not byte-identical")

    append_request = json.dumps({
        "matrix": "m.rgx", "names": ["t_16"],
        "columns": [[0.25 * g for g in range(200)]],
    })
    status, _, body = daemon.http("POST", "/append", append_request)
    check(status == 200, "append: %s %r" % (status, body))
    reply = json.loads(body)
    check(reply["num_conditions"] == 17,
          "append widened to %s conditions" % reply.get("num_conditions"))
    # m.tsv and m.rgx hold the same data, so their models share a content
    # hash: the append drops the m.rgx matrix mapping plus both cached
    # gamma models (0.1 from the mines, 0.15 from the sweep).
    check(reply["invalidated"] == 3,
          "append invalidated %s entries (want matrix + 2 models = 3)"
          % reply.get("invalidated"))

    # The next mine reloads the widened matrix (different output), and the
    # one after that is served warm and byte-identical to it.
    status, _, after = daemon.http("POST", "/mine", bin_mine_request)
    check(status == 200, "post-append mine: %s %r" % (status, after[:200]))
    check(after != before, "mine after append served the stale matrix")
    check(b'"roots_total": 17' in after,
          "post-append report does not show the widened matrix")
    status, _, after_warm = daemon.http("POST", "/mine", bin_mine_request)
    check(status == 200 and after_warm == after,
          "warm mine after append is not byte-identical")

    # The untouched text matrix kept its cache entries: still warm.
    status, _, warm2 = daemon.http("POST", "/mine", mine_request)
    check(status == 200 and warm2 == cold,
          "append invalidated an unrelated matrix's entries")

    # A text matrix cannot append in place: named error, nothing changes.
    status, _, body = daemon.http(
        "POST", "/append",
        json.dumps({"matrix": "m.tsv", "names": ["x"],
                    "columns": [[0.0] * 200]}))
    check(status == 400 and b'"error_name":"append_error"' in body,
          "text append: %s %r" % (status, body))

    # -- a sweep screens out-of-range MinC points like /mine ----------------
    # The widened m.rgx has 17 conditions: /mine rejects MinC 50 outright,
    # and the same points in a sweep fail per run, unmined and model-less.
    status, _, body = daemon.http("POST", "/mine", json.dumps({
        "matrix": "m.rgx", "ming": 5, "minc": 50, "gamma": 0.1,
        "epsilon": 0.1}))
    want = "minc 50 exceeds the matrix's 17 conditions"
    check(status == 400 and want.encode() in body,
          "mine minc=50: %s %r" % (status, body))
    status, _, body = daemon.http("POST", "/sweep", json.dumps({
        "matrix": "m.rgx", "ming": 5, "gamma": 0.1, "epsilon": 0.1,
        "spec": "minc=4;50;1000000", "deterministic_output": True}))
    check(status == 200, "out-of-range sweep: %s %r" % (status, body[:200]))
    runs = json.loads(body)["runs"]
    check([r["executed"] for r in runs] == [True, False, False],
          "out-of-range sweep executed %r" % [r["executed"] for r in runs])
    check([r["shared_model"] for r in runs] == [True, False, False],
          "out-of-range sweep models %r" % [r["shared_model"] for r in runs])
    check(want in runs[1].get("error", ""),
          "minc=50 run error: %r" % runs[1].get("error"))
    check("minc 1000000 exceeds" in runs[2].get("error", ""),
          "minc=1000000 run error: %r" % runs[2].get("error"))

    # -- SIGTERM drain with a request in flight -----------------------------
    # An explosive search bounded by its own deadline occupies the daemon,
    # SIGTERM arrives mid-mine, and the response must still complete.
    slow_request = json.dumps({
        "matrix": "m.tsv", "ming": 3, "minc": 3, "gamma": 0.35,
        "epsilon": 0.8, "deadline_ms": 3000,
    })
    s = daemon.frame_socket()
    send_frame(s, b'{"op":"mine",' + slow_request.encode()[1:])
    time.sleep(0.3)  # let the mine start
    daemon.proc.send_signal(signal.SIGTERM)
    inflight = recv_frame(s)
    check(b'"clusters"' in inflight,
          "in-flight mine did not complete through the drain: %r"
          % inflight[:200])
    s.close()
    out, err = daemon.proc.communicate(timeout=120)
    check(daemon.proc.returncode == 0,
          "drain exit code %s, stderr: %s" % (daemon.proc.returncode, err))
    check("drained, exiting" in out, "missing drain line in: %r" % out)

    # -- shedding under a tiny memory budget --------------------------------
    shed_daemon = Daemon(cli, workdir, ["--memory-budget-mb=0",
                                        "--retry-after-s=5"])
    status, _, body = shed_daemon.http("POST", "/mine", mine_request)
    check(status == 200, "first mine under tiny budget: %s" % status)
    status, headers, body = shed_daemon.http("POST", "/mine", mine_request)
    check(status == 503, "expected 503 shed, got %s %r" % (status, body))
    check(b'"error_name":"shed_memory"' in body, "shed body: %r" % body)
    check(headers.get("retry-after") == "5",
          "Retry-After header: %r" % headers.get("retry-after"))
    code, out, _ = shed_daemon.terminate_and_wait()
    check(code == 0, "shed daemon exit code %s" % code)

    print("cli_serve: all checks passed")


if __name__ == "__main__":
    main()
