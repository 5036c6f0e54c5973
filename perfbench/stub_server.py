"""Stub model server for the pipeline benchmark (standard library only).

``python3 perfbench/stub_server.py --script PATH [--delay-ms 50]
[--fail-per-mille 5]`` serves ``POST /generate``, ``/score`` and
``/complete`` from one StubScript-format JSON file on one port, printing
the port on its first line of output.  Every request waits a fixed delay,
standing in for a model round trip; requests are answered concurrently.

A request whose fingerprint (the script key it looks up) hashes into the
lowest ``fail-per-mille`` of 1000 buckets gets HTTP 503 on every odd
arrival, so each such call fails once and succeeds on its retry.

``GET /stats`` returns the counters: attempts, retries, 503s, the maximum
number of requests in flight, and whitespace tokens per role.
``POST /reset`` zeroes them.  The process stops on SIGTERM, or when the
process that started it is gone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ROLES = {"/generate": ("generate", "sketch"),
         "/score": ("score", "aligner"),
         "/complete": ("complete", "completer")}


def _tokens(obj) -> int:
    if isinstance(obj, str):
        return len(obj.split())
    if isinstance(obj, dict):
        return sum(_tokens(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_tokens(v) for v in obj)
    return 0


class Script:
    """Responses per section and fingerprint, consumed in order with the
    last one repeating, as StubScript does."""

    def __init__(self, sections):
        self.sections = {role: {k: list(v) for k, v in table.items()}
                         for role, table in sections.items()}
        self.lock = threading.Lock()

    def take(self, role, fingerprint):
        with self.lock:
            table = self.sections.get(role, {})
            queue = table.get(fingerprint, table.get("*"))
            if queue is None:
                return None
            return queue.pop(0) if len(queue) > 1 else queue[0]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.attempts = 0
        self.retries = 0
        self.unavailable = 0
        self.max_in_flight = 0
        self.in_flight = 0
        self.tokens = {"sketch": 0, "aligner": 0, "completer": 0}
        self.arrivals: dict = {}

    def snapshot(self):
        return {"attempts": self.attempts, "retries": self.retries,
                "unavailable": self.unavailable,
                "max_in_flight": self.max_in_flight,
                "tokens": dict(self.tokens)}


def make_handler(script: Script, stats: Stats, delay: float, per_mille: int):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without this, Nagle's
        # algorithm holds the body until the client's delayed ACK.
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _reply(self, status, payload):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                return self._reply(404, {"error": "not found"})
            with stats.lock:
                snapshot = stats.snapshot()
            self._reply(200, snapshot)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                with stats.lock:
                    stats.reset()
                return self._reply(200, {})
            if self.path not in ROLES:
                return self._reply(404, {"error": "not found"})
            section, role = ROLES[self.path]
            request = json.loads(raw)
            fingerprint = {"generate": lambda r: r["input"],
                           "score": lambda r: r["sequences"][0],
                           "complete": lambda r: r["prompt"]}[section](request)
            digest = hashlib.sha256(f"{section}\0{fingerprint}".encode())
            failing = int.from_bytes(digest.digest()[:4], "big") % 1000 < per_mille
            with stats.lock:
                stats.attempts += 1
                stats.in_flight += 1
                stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
                arrival = stats.arrivals.get(fingerprint, 0) + 1 if failing else 0
                if failing:
                    stats.arrivals[fingerprint] = arrival
                    if arrival % 2 == 0:
                        stats.retries += 1
            try:
                time.sleep(delay)
                if failing and arrival % 2 == 1:
                    with stats.lock:
                        stats.unavailable += 1
                    return self._reply(503, {"error": "unavailable"})
                if section == "score":
                    scores = [script.take("score", s)
                              for s in request["sequences"]]
                    payload = {"scores": scores}
                    ok = None not in scores
                elif section == "generate":
                    hyps = script.take("generate", fingerprint)
                    payload = {"hypotheses": hyps}
                    ok = hyps is not None
                else:
                    text = script.take("complete", fingerprint)
                    payload = {"text": text}
                    ok = text is not None
                if not ok:
                    return self._reply(400, {"error": "no script entry"})
                with stats.lock:
                    stats.tokens[role] += _tokens(request) + _tokens(payload)
                self._reply(200, payload)
            finally:
                with stats.lock:
                    stats.in_flight -= 1

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--delay-ms", type=float, default=50.0)
    parser.add_argument("--fail-per-mille", type=int, default=5)
    args = parser.parse_args(argv)
    with open(args.script, encoding="utf-8") as handle:
        script = Script(json.load(handle))
    stats = Stats()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0),
        make_handler(script, stats, args.delay_ms / 1000.0,
                     args.fail_per_mille))
    server.daemon_threads = True
    def stop(*_):
        threading.Thread(target=server.shutdown, daemon=True).start()

    def watch_parent(parent=os.getppid()):
        while os.getppid() == parent:
            time.sleep(0.5)
        stop()

    signal.signal(signal.SIGTERM, stop)
    threading.Thread(target=watch_parent, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
