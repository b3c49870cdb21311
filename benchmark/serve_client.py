"""Single-threaded load generator for `regcluster serve` (framed transport).

All connections are driven from one selector loop in the calling thread,
so the client adds no threads of its own.  A request record carries its
times on the client clock (time.perf_counter):
  due       when the schedule says it should be sent
  released  when the loop noticed it was due (released - due = generator lag)
  sent      when a connection took it (sent - released = connection wait)
  done      when the whole reply frame arrived
"""

import collections
import selectors
import socket
import struct
import time

clock = time.perf_counter


class Request:
    __slots__ = ("kind", "key", "payload", "due", "released", "sent", "done",
                 "reply", "phase")

    def __init__(self, kind, key, payload, due=0.0, phase=""):
        self.kind = kind        # preview | full | sweep | append
        self.key = key          # reference lookup key
        self.payload = payload  # bytes of the frame's JSON
        self.due = due
        self.released = self.sent = self.done = None
        self.reply = None
        self.phase = phase


class Conn:
    """One persistent framed connection with at most one request in flight."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.req = None
        self._buf = bytearray()

    def send(self, req):
        req.sent = clock()
        self.req = req
        self._buf.clear()
        self.sock.setblocking(True)
        self.sock.sendall(struct.pack(">I", len(req.payload)) + req.payload)
        self.sock.setblocking(False)

    def on_readable(self):
        """Reads what is available; returns the finished request or None."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buf += chunk
        if len(self._buf) < 4:
            return None
        size = struct.unpack(">I", self._buf[:4])[0]
        if len(self._buf) < 4 + size:
            return None
        req, self.req = self.req, None
        req.done = clock()
        req.reply = bytes(self._buf[4:4 + size])
        return req

    def close(self):
        self.sock.close()


def roundtrip(conn, req):
    """Sends one request and blocks until its reply."""
    req.due = req.released = clock()
    conn.send(req)
    conn.sock.setblocking(True)
    while conn.on_readable() is None:
        pass
    conn.sock.setblocking(False)
    return req


class Loop:
    def __init__(self, readers, writer):
        self.readers = readers
        self.writer = writer
        self.sel = selectors.DefaultSelector()
        for c in readers + [writer]:
            c.sock.setblocking(False)
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.finished = []

    def _poll(self, timeout):
        out = []
        for key, _ in self.sel.select(max(timeout, 0.0)):
            req = key.data.on_readable()
            if req is not None:
                self.finished.append(req)
                out.append((key.data, req))
        return out

    def open_loop(self, t0, arrivals, writer_events, make_writer_followup):
        """Sends `arrivals` (due offsets from t0) on the reader connections,
        queueing while all are busy, and runs the writer's events: each
        writer event is sent at its due time and, when its reply arrives,
        make_writer_followup(req) may return a request to send right away
        (due = now).  Returns when everything sent has been answered."""
        pending = collections.deque()
        arrivals = collections.deque(arrivals)
        writer_events = collections.deque(writer_events)
        while True:
            now = clock()
            while arrivals and t0 + arrivals[0].due <= now:
                req = arrivals.popleft()
                req.due += t0
                req.released = now
                pending.append(req)
            for c in self.readers:
                if c.req is None and pending:
                    c.send(pending.popleft())
            if (self.writer.req is None and writer_events
                    and t0 + writer_events[0].due <= now):
                req = writer_events.popleft()
                req.due += t0
                req.released = clock()
                self.writer.send(req)
            busy = any(c.req is not None
                       for c in self.readers + [self.writer])
            if not (arrivals or pending or writer_events or busy):
                return
            next_due = min([t0 + q[0].due for q in (arrivals, writer_events)
                            if q] or [now + 0.05])
            for conn, req in self._poll(min(next_due - clock(), 0.05)):
                if conn is self.writer:
                    follow = make_writer_followup(req)
                    if follow is not None:
                        follow.due = follow.released = clock()
                        conn.send(follow)

    def closed_loop(self, next_request, seconds):
        """Each reader sends its next request as soon as the previous one is
        answered, until `seconds` pass; then drains.  Returns the elapsed
        time from start to the last reply."""
        start = clock()
        deadline = start + seconds
        for c in self.readers:
            req = next_request()
            req.due = req.released = clock()
            c.send(req)
        while any(c.req is not None for c in self.readers):
            for conn, _ in self._poll(0.05):
                if clock() < deadline:
                    req = next_request()
                    req.due = req.released = clock()
                    conn.send(req)
        return clock() - start
