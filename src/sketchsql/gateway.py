"""Clients for the model services behind the pipeline.

Four roles: the sketch provider (``/generate``), the aligner
(``/score``), the completer (``/complete``, optionally adapted onto a
chat-style messages API), and the sentence encoder (``/encode``), which
backs semantic value matching.

The pipeline calls the roles only through the ``request_*`` helpers.  They
check each role's response and record each call that succeeds inside a
:func:`recording_calls` block; the evaluation harness counts tokens over
those records.  The completer is always sent temperature 0.0, top_p 1.0,
frequency_penalty 0.0.

Two clients serve every role, with one method each: ``generate``,
``score``, ``complete`` and ``encode``.  :class:`HttpClient` serves any
role for one service URL over at most ``max_in_flight`` kept
standard-library connections, which ``close`` (or leaving a ``with``
block) closes.  It retries transient failures with exponential backoff,
sends a bearer token when one is configured, reads the proxy variables
once, follows no redirect, and hands back the role's field as sent.  For
offline runs and tests, :class:`StubScript` answers every role from
deterministic scripted responses keyed by fingerprint.
"""

from __future__ import annotations

import base64
import contextvars
import json
import logging
import math
import os
import ssl
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import unquote, urlsplit
from urllib.request import proxy_bypass

from .errors import (
    CompleterUnavailableError,
    EncoderUnavailableError,
    ProtocolError,
    ProviderUnavailableError,
    StubScriptError,
)

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 30.0
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.5

DEFAULT_TEMPERATURE = 0.0
DEFAULT_TOP_P = 1.0
DEFAULT_FREQUENCY_PENALTY = 0.0


@dataclass
class EndpointConfig:
    base_url: str
    timeout: float = DEFAULT_TIMEOUT
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    auth_token: str | None = None
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    chat_adapter: bool = False

    def __post_init__(self):
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint URL {self.base_url!r} is not an "
                             f"http:// or https:// URL with a host")
        if self.timeout <= 0:
            raise ValueError("endpoint timeout must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must be at least 0")
        if self.backoff < 0:
            raise ValueError("backoff must not be negative")


# Each path's service label in messages, and the error raised when that
# service cannot be reached.
_SERVICES = {
    "/generate": ("sketch provider", ProviderUnavailableError),
    "/score": ("aligner", ProviderUnavailableError),
    "/complete": ("completer", CompleterUnavailableError),
    "/chat/completions": ("completer", CompleterUnavailableError),
    "/encode": ("sentence encoder", EncoderUnavailableError),
}


class HttpClient:
    """The client for one service URL, serving whichever role it is given.

    Each role's method posts that role's request and hands back its field
    as the server sent it.  The completer's native contract is ``POST
    /complete`` with the prompt and the fixed ``DEFAULT_*`` sampling
    parameters; ``chat_adapter`` maps the same call onto a chat-style
    ``POST /chat/completions`` with a single user message.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        self._headers = {"Content-Type": "application/json"}
        if config.auth_token:
            self._headers["Authorization"] = f"Bearer {config.auth_token}"
        url = urlsplit(config.base_url)
        https = url.scheme == "https"
        address, tunnel = (url.hostname, url.port), None
        self._prefix = url.path.rstrip("/")
        # As getproxies() reads it, without its two scans of the environment.
        name, cgi = f"{url.scheme}_proxy", "REQUEST_METHOD" in os.environ
        proxy = os.environ.get(name, None if cgi and url.scheme == "http"
                               else os.environ.get(name.upper()))
        if proxy and not proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address, auth = (proxy.hostname, proxy.port), {}
            if proxy.username is not None:
                user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = \
                    "Basic " + base64.b64encode(user.encode()).decode()
            if https:
                tunnel = (url.hostname, url.port, auth)
            else:
                self._prefix = f"http://{url.netloc}{self._prefix}"
                self._headers.update(auth)
        # Idle connections with the pid that last used each, and a generation
        # that close() moves on, so that a connection in use during close()
        # is closed when put back.  Taking one waits while max_in_flight are
        # in use.  One that is closed, as a response that will close or
        # close() leaves it, opens again on its next request.
        connection = HTTPSConnection if https else HTTPConnection
        tls = {"context": ssl.create_default_context()} if https else {}
        self._lock = threading.Condition()
        self._idle = []
        self._generation = 0
        for _ in range(config.max_in_flight):
            conn = connection(*address, timeout=config.timeout, **tls)
            if tunnel is not None:
                conn.set_tunnel(*tunnel)
            self._idle.append((conn, os.getpid()))

    def close(self) -> None:
        """Close the kept connections: the idle ones now, and each one in
        use when it is put back.  The client stays usable and opens
        connections again when next needed."""
        with self._lock:
            self._generation += 1
            for conn, _ in self._idle:
                conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def generate(self, task_input: str, k: int):
        return self._post("/generate", {"input": task_input,
                                        "num_hypotheses": k}).get("hypotheses")

    def score(self, sequences: list[str]):
        return self._post("/score", {"sequences": list(sequences)}).get("scores")

    def complete(self, prompt: str):
        sampling = {"temperature": DEFAULT_TEMPERATURE, "top_p": DEFAULT_TOP_P,
                    "frequency_penalty": DEFAULT_FREQUENCY_PENALTY}
        if not self.config.chat_adapter:
            return self._post("/complete",
                              {"prompt": prompt, **sampling}).get("text")
        data = self._post("/chat/completions", {
            "messages": [{"role": "user", "content": prompt}], **sampling})
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise ProtocolError("chat completion response lacks "
                                "choices[0].message.content") from None

    def encode(self, texts: list[str]) -> list[list[float]]:
        vectors = self._post("/encode", {"texts": list(texts)}).get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError("encoder response lacks one vector per text")
        return vectors

    def _post(self, path: str, payload: dict) -> dict:
        """The JSON object the service answers at ``path``, after retrying
        transport failures and 5xx answers."""
        role, unavailable_error = _SERVICES[path]
        url = self.config.base_url.rstrip("/") + path
        body = json.dumps(payload).encode()
        delay = self.config.backoff
        for attempt in range(1, self.config.retries + 2):
            try:
                status, data = self._round_trip(self._prefix + path, body)
            except (OSError, HTTPException) as exc:
                last_error = exc
            else:
                if status < 500:
                    break
                last_error = HTTPException(f"HTTP {status}")
            log.debug("%s request attempt %d failed: %s", role, attempt,
                      last_error)
            if attempt <= self.config.retries:
                time.sleep(delay)
                delay *= 2
        else:
            raise unavailable_error(
                f"{role} endpoint {url} unavailable after "
                f"{self.config.retries + 1} attempts: {last_error}"
            ) from last_error
        if status >= 300:
            # A 4xx will not improve on retry; redirects are not followed.
            raise unavailable_error(f"{role} endpoint {url} rejected the "
                                    f"request: HTTP {status}")
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise ProtocolError(
                f"{role} endpoint {url} returned non-JSON body") from exc
        if not isinstance(data, dict):
            raise ProtocolError(
                f"{role} endpoint {url} returned {type(data).__name__}, "
                f"expected an object")
        return data

    def _round_trip(self, target: str, body: bytes) -> tuple[int, bytes]:
        """The status and whole body of one POST on an idle connection.  If
        a kept one fails before any status line, the server closed it while
        idle, and the request goes out again at once on a new connection."""
        with self._lock:
            self._lock.wait_for(lambda: self._idle)
            conn, pid = self._idle.pop()
            generation = self._generation
        if pid != os.getpid():
            conn.close()  # a forked child never writes to its parent's socket
        try:
            for kept in (conn.sock is not None, False):
                try:
                    conn.request("POST", target, body, self._headers)
                    response = conn.getresponse()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    if not kept:  # RemoteDisconnected is one of these
                        raise
                    conn.close()
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise
        finally:
            with self._lock:
                if generation != self._generation:
                    conn.close()
                self._idle.append((conn, os.getpid()))
                self._lock.notify()


# Per-role names that callers, the perfbench workloads among them, import.
SketchProviderClient = AlignerClient = CompleterClient = EncoderClient = HttpClient


# --------------------------------------------------------------------------
# Deterministic stubs

class StubScript:
    """Scripted responses for offline runs, and the client for every role.

    The script file is a JSON object with one section per role
    (``generate``, ``score``, ``complete``, ``encode``).  Each section
    maps a request fingerprint to a list of responses, consumed in order,
    repeating the last entry once exhausted; the fingerprint ``"*"``
    matches any request without an exact entry.  Fingerprints are the
    task input (generate), the single aligner input sequence (score), the
    prompt (complete), or the text to encode (encode).  Its calls never
    block, which ``blocking`` declares, so callers need not overlap them.
    """

    ROLES = ("generate", "score", "complete", "encode")
    blocking = False

    def __init__(self, sections: dict):
        if not isinstance(sections, dict):
            raise StubScriptError("stub script must be a JSON object")
        unknown = set(sections) - set(self.ROLES)
        if unknown:
            raise StubScriptError(
                f"unknown stub script section(s): {', '.join(sorted(unknown))}")
        self._sections = {}
        for role, table in sections.items():
            if not isinstance(table, dict):
                raise StubScriptError(f"stub section {role!r} must be an object")
            self._sections[role] = {fp: list(resp) if isinstance(resp, list)
                                    else [resp]
                                    for fp, resp in table.items()}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path) -> "StubScript":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise StubScriptError(f"cannot read stub script: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise StubScriptError(
                f"stub script {path} is not valid JSON: {exc}") from exc
        return cls(data)

    def take(self, role: str, fingerprint: str):
        with self._lock:
            section = self._sections.get(role)
            if section is None:
                raise StubScriptError(f"stub script has no {role!r} section")
            queue = section.get(fingerprint)
            if queue is None:
                queue = section.get("*")
            if queue is None:
                preview = fingerprint if len(fingerprint) <= 120 \
                    else fingerprint[:117] + "..."
                raise StubScriptError(
                    f"stub script section {role!r} has no entry for {preview!r}")
            if len(queue) > 1:
                return queue.pop(0)
            return queue[0]

    # The role clients.  Entries come back unchecked, as a server's would;
    # the request_* helpers check them.

    def generate(self, task_input: str, k: int):
        return self.take("generate", task_input)

    def score(self, sequences: list[str]) -> list:
        return [self.take("score", seq) for seq in sequences]

    def complete(self, prompt: str):
        return self.take("complete", prompt)

    def encode(self, texts: list[str]) -> list:
        """One scripted vector per text.  A missing entry is an unavailable
        encoder, so the sentence-encoder backend falls back to fuzzy."""
        try:
            return [self.take("encode", text) for text in texts]
        except StubScriptError as exc:
            raise EncoderUnavailableError(str(exc)) from exc


def clients_from_script(script: StubScript) -> dict:
    """The client for every role: the script itself."""
    return dict.fromkeys(("sketch", "aligner", "completer", "encoder"), script)


# --------------------------------------------------------------------------
# Role-level helpers: request and response checks, call recording

# The pairs of the innermost recording_calls block, or None.  Work on another
# thread is recorded only when run in a copy of the caller's context.
_recorded_calls = contextvars.ContextVar("sketchsql_recorded_calls", default=None)


@contextmanager
def recording_calls():
    """Collect the ``(request, response)`` pair of every call that
    succeeds through the ``request_*`` helpers inside the block."""
    calls: list = []
    token = _recorded_calls.set(calls)
    try:
        yield calls
    finally:
        _recorded_calls.reset(token)


def _record(request: dict, response) -> None:
    calls = _recorded_calls.get()
    if calls is not None:
        calls.append((request, response))


def _validate_scores(sequences: list, scores) -> list[float]:
    if not isinstance(scores, list) or len(scores) != len(sequences):
        got = len(scores) if isinstance(scores, list) else type(scores).__name__
        raise ProtocolError(
            f"aligner returned {got} score(s) for {len(sequences)} sequence(s)")
    out = []
    for value in scores:
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ProtocolError(f"aligner score {value!r} is not a real in [0,1]")
        out.append(float(value))
    return out


def request_candidates(endpoint, task_input: str, k: int) -> list[str]:
    """Top-k sketch-part hypotheses for ``task_input``, best first.

    The service may legitimately return fewer than ``k``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not task_input:
        raise ValueError("task input must be non-empty")
    hypotheses = endpoint.generate(task_input, k)
    if not isinstance(hypotheses, list) or \
            not all(isinstance(h, str) for h in hypotheses):
        raise ProtocolError("sketch provider response lacks a 'hypotheses' "
                            "list of strings")
    hypotheses = hypotheses[:k]
    _record({"input": task_input}, hypotheses)
    return hypotheses


def request_alignment_scores(endpoint, sequences: list[str]) -> list[float]:
    """One [0,1] alignment score per input sequence, in input order."""
    if not sequences:
        raise ValueError("sequences must be non-empty")
    scores = _validate_scores(sequences, endpoint.score(sequences))
    _record({"sequences": list(sequences)}, scores)
    return scores


def request_completion(endpoint, prompt: str) -> str:
    if not prompt:
        raise ValueError("prompt must be non-empty")
    text = endpoint.complete(prompt)
    if not isinstance(text, str):
        raise ProtocolError("completer response lacks a 'text' string")
    _record({"prompt": prompt}, text)
    return text
