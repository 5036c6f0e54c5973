"""Clients for the model services behind the pipeline.

Three logical roles share one request/response shape: the sketch provider
(``/generate``), the aligner (``/score``), and the completer
(``/complete``, optionally adapted onto a chat-style messages API).  A
sentence-encoder client (``/encode``) backs semantic value matching.
Each HTTP client retries transient failures with exponential backoff,
bounds concurrent in-flight requests, and attaches a bearer token when
one is configured.

The pipeline calls the roles only through the ``request_*`` helpers,
which record each call that succeeds inside a :func:`recording_calls`
block; the evaluation harness counts tokens over those records.  The
completer is always sent temperature 0.0, top_p 1.0, frequency_penalty 0.0.

For offline runs and tests, :class:`StubScript` supplies deterministic
scripted responses keyed by request fingerprint, with in-process stub
clients for every role.
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import requests

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
        if self.timeout <= 0:
            raise ValueError("endpoint timeout must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")


class _TransientHttpError(Exception):
    pass


class _HttpEndpoint:
    """One service endpoint: retry/backoff, in-flight bound, auth, logging."""

    def __init__(self, config: EndpointConfig, role: str, unavailable_error):
        self.config = config
        self.role = role
        self.unavailable_error = unavailable_error
        self._semaphore = threading.BoundedSemaphore(config.max_in_flight)
        self._session = requests.Session()

    def post(self, path: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + path
        headers = {}
        if self.config.auth_token:
            headers["Authorization"] = f"Bearer {self.config.auth_token}"
        delay = self.config.backoff
        last_error: Exception | None = None
        for attempt in range(1, self.config.retries + 2):
            try:
                return self._post_once(url, payload, headers)
            except (requests.RequestException, _TransientHttpError) as exc:
                last_error = exc
                log.debug("%s request attempt %d failed: %s", self.role, attempt, exc)
                if attempt <= self.config.retries:
                    time.sleep(delay)
                    delay *= 2
        message = (f"{self.role} endpoint {url} unavailable after "
                   f"{self.config.retries + 1} attempts: {last_error}")
        raise self.unavailable_error(message) from last_error

    def _post_once(self, url: str, payload: dict, headers: dict) -> dict:
        with self._semaphore:
            response = self._session.post(url, json=payload, headers=headers,
                                          timeout=self.config.timeout)
        if response.status_code >= 500:
            raise _TransientHttpError(f"HTTP {response.status_code}")
        if response.status_code >= 400:
            # Client errors will not improve on retry.
            raise self.unavailable_error(
                f"{self.role} endpoint {url} rejected the request: "
                f"HTTP {response.status_code}")
        try:
            data = response.json()
        except ValueError as exc:
            raise ProtocolError(
                f"{self.role} endpoint {url} returned non-JSON body") from exc
        if not isinstance(data, dict):
            raise ProtocolError(
                f"{self.role} endpoint {url} returned {type(data).__name__}, "
                f"expected an object")
        return data


# --------------------------------------------------------------------------
# Role clients

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


class SketchProviderClient:
    """Client for the sketch-generation service (``POST /generate``)."""

    def __init__(self, config: EndpointConfig):
        self._endpoint = _HttpEndpoint(config, "sketch provider",
                                       ProviderUnavailableError)

    def generate(self, task_input: str, k: int) -> list[str]:
        data = self._endpoint.post("/generate",
                                   {"input": task_input, "num_hypotheses": k})
        hypotheses = data.get("hypotheses")
        if not isinstance(hypotheses, list) or \
                not all(isinstance(h, str) for h in hypotheses):
            raise ProtocolError("sketch provider response lacks a 'hypotheses' "
                                "list of strings")
        return hypotheses[:k]


class AlignerClient:
    """Client for the sketch-ranking service (``POST /score``)."""

    def __init__(self, config: EndpointConfig):
        self._endpoint = _HttpEndpoint(config, "aligner",
                                       ProviderUnavailableError)

    def score(self, sequences: list[str]) -> list[float]:
        data = self._endpoint.post("/score", {"sequences": list(sequences)})
        return _validate_scores(sequences, data.get("scores"))


class CompleterClient:
    """Client for the SQL-completion service.

    The native contract is ``POST /complete`` with prompt and sampling
    parameters; ``chat_adapter`` maps the same call onto a chat-style
    ``POST /chat/completions`` with a single user message.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        self._endpoint = _HttpEndpoint(config, "completer",
                                       CompleterUnavailableError)

    def complete(self, prompt: str,
                 temperature: float = DEFAULT_TEMPERATURE,
                 top_p: float = DEFAULT_TOP_P,
                 frequency_penalty: float = DEFAULT_FREQUENCY_PENALTY) -> str:
        if self.config.chat_adapter:
            payload = {
                "messages": [{"role": "user", "content": prompt}],
                "temperature": temperature,
                "top_p": top_p,
                "frequency_penalty": frequency_penalty,
            }
            data = self._endpoint.post("/chat/completions", payload)
            try:
                text = data["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError):
                raise ProtocolError("chat completion response lacks "
                                    "choices[0].message.content") from None
        else:
            payload = {
                "prompt": prompt,
                "temperature": temperature,
                "top_p": top_p,
                "frequency_penalty": frequency_penalty,
            }
            data = self._endpoint.post("/complete", payload)
            text = data.get("text")
        if not isinstance(text, str):
            raise ProtocolError("completer response lacks a 'text' string")
        return text


class EncoderClient:
    """Client for the sentence-encoder service (``POST /encode``)."""

    def __init__(self, config: EndpointConfig):
        self._endpoint = _HttpEndpoint(config, "sentence encoder",
                                       EncoderUnavailableError)

    def encode(self, texts: list[str]) -> list[list[float]]:
        data = self._endpoint.post("/encode", {"texts": list(texts)})
        vectors = data.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError("encoder response lacks one vector per text")
        return vectors


# --------------------------------------------------------------------------
# Deterministic stubs

class StubScript:
    """Scripted responses for offline runs.

    The script file is a JSON object with one section per role
    (``generate``, ``score``, ``complete``, ``encode``).  Each section
    maps a request fingerprint to a list of responses, consumed in order,
    repeating the last entry once exhausted; the fingerprint ``"*"``
    matches any request without an exact entry.  Fingerprints are the
    task input (generate), the single aligner input sequence (score), the
    prompt (complete), or the text to encode (encode).
    """

    ROLES = ("generate", "score", "complete", "encode")

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
        except json.JSONDecodeError as exc:
            raise StubScriptError(f"stub script is not valid JSON: {exc}") from exc
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


class StubSketchProvider:
    def __init__(self, script: StubScript):
        self._script = script

    def generate(self, task_input: str, k: int) -> list[str]:
        response = self._script.take("generate", task_input)
        if not isinstance(response, list) or \
                not all(isinstance(h, str) for h in response):
            raise StubScriptError("generate stub entries must be lists of strings")
        return response[:k]


class StubAligner:
    def __init__(self, script: StubScript):
        self._script = script

    def score(self, sequences: list[str]) -> list[float]:
        scores = [self._script.take("score", seq) for seq in sequences]
        return _validate_scores(sequences, scores)


class StubCompleter:
    def __init__(self, script: StubScript):
        self._script = script

    def complete(self, prompt: str) -> str:
        response = self._script.take("complete", prompt)
        if not isinstance(response, str):
            raise StubScriptError("complete stub entries must be strings")
        return response


class StubSentenceEncoder:
    """Stub encoder mapping each text to a scripted vector.

    Accepts either a loaded :class:`StubScript` (its ``encode`` section)
    or a plain ``{text: vector}`` mapping.
    """

    def __init__(self, source):
        if isinstance(source, StubScript):
            self._script = source
        else:
            self._script = StubScript(
                {"encode": {text: [vec] for text, vec in source.items()}})

    def encode(self, texts: list[str]) -> list[list[float]]:
        out = []
        for text in texts:
            try:
                vector = self._script.take("encode", text)
            except StubScriptError as exc:
                raise EncoderUnavailableError(str(exc)) from exc
            out.append([float(x) for x in vector])
        return out


def clients_from_script(script: StubScript) -> dict:
    """Build the full stub client set from one script."""
    return {
        "sketch": StubSketchProvider(script),
        "aligner": StubAligner(script),
        "completer": StubCompleter(script),
        "encoder": StubSentenceEncoder(script),
    }


# --------------------------------------------------------------------------
# Role-level helpers with request validation and call recording

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


def request_candidates(endpoint, task_input: str, k: int) -> list[str]:
    """Top-k sketch-part hypotheses for ``task_input``, best first.

    The service may legitimately return fewer than ``k``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not task_input:
        raise ValueError("task input must be non-empty")
    hypotheses = endpoint.generate(task_input, k)
    _record({"input": task_input}, hypotheses)
    return hypotheses[:k]


def request_alignment_scores(endpoint, sequences: list[str]) -> list[float]:
    """One [0,1] alignment score per input sequence, as validated by the
    endpoint, in input order."""
    if not sequences:
        raise ValueError("sequences must be non-empty")
    scores = endpoint.score(sequences)
    _record({"sequences": list(sequences)}, scores)
    return scores


def request_completion(endpoint, prompt: str) -> str:
    if not prompt:
        raise ValueError("prompt must be non-empty")
    text = endpoint.complete(prompt)
    _record({"prompt": prompt}, text)
    return text
