import base64
import json
import os
import re
import signal
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from helpers import SCHOOL_BAD_SQL, SCHOOL_GOLD_SQL, make_school_db

from sketchsql.calibration import (
    CharacterFuzzy,
    SentenceEncoder,
    multi_level_match,
)
import sketchsql.cli as cli
from sketchsql.cli import main
from sketchsql.errors import (
    CompleterUnavailableError,
    EncoderUnavailableError,
    ProtocolError,
    ProviderUnavailableError,
    SketchSqlError,
    StubScriptError,
)
from sketchsql.execution import Database
from sketchsql.gateway import (
    AlignerClient,
    CompleterClient,
    EncoderClient,
    EndpointConfig,
    HttpClient,
    SketchProviderClient,
    StubScript,
    clients_from_script,
    request_alignment_scores,
    request_candidates,
    request_completion,
)
from sketchsql.sql_analysis import parse_sql


class StubServer:
    """Local HTTP server with scripted responses and request capture.

    ``protocol`` "HTTP/1.1" keeps connections open between requests;
    ``close_kept`` then closes each one after its reply all the same, as a
    server that drops idle connections does.  ``closed`` counts the
    connections that have ended.  A CONNECT request, as an
    https client sends a proxy, is recorded and refused with 403."""

    def __init__(self, protocol="HTTP/1.0", close_kept=False):
        self.requests = []
        self.responses = []  # queue of (status, body); body dict -> JSON
        self.default = (200, {})
        self.delay = 0.0
        self.connections = 0
        self.closed = 0
        self._active = 0
        self.high_water = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def finish(self):
                super().finish()
                with outer._lock:
                    outer.closed += 1

            def _record(self, body):
                outer.requests.append({
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "proxy_auth": self.headers.get("Proxy-Authorization"),
                    "payload": body,
                })

            def do_CONNECT(self):
                with outer._lock:
                    self._record(None)
                self.send_response(403)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else None
                with outer._lock:
                    self._record(body)
                    outer._active += 1
                    outer.high_water = max(outer.high_water, outer._active)
                    status, reply = (outer.responses.pop(0)
                                     if outer.responses else outer.default)
                if outer.delay:
                    time.sleep(outer.delay)
                with outer._lock:
                    outer._active -= 1
                data = (reply.encode() if isinstance(reply, str)
                        else json.dumps(reply).encode())
                self.send_response(status)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if close_kept:
                    self.close_connection = True

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.address = f"127.0.0.1:{self._httpd.server_address[1]}"
        self.base_url = f"http://{self.address}"
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def server():
    srv = StubServer()
    yield srv
    srv.stop()


@pytest.fixture
def kept_server():
    """A server that keeps connections open, answering every role."""
    srv = StubServer("HTTP/1.1")
    srv.default = (200, {"hypotheses": ["a"]})
    yield srv
    srv.stop()


def fast_config(server, **kwargs):
    kwargs.setdefault("backoff", 0.01)
    return EndpointConfig(server.base_url, **kwargs)


# --------------------------------------------------------------------------
# HTTP clients

def test_generate_success_and_auth_header(server):
    server.responses.append((200, {"hypotheses": ["SELECT t0.c1", "SELECT *"]}))
    client = SketchProviderClient(fast_config(server, auth_token="sekrit"))
    assert client.generate("inp", 2) == ["SELECT t0.c1", "SELECT *"]
    (req,) = server.requests
    assert req["path"] == "/generate"
    assert req["auth"] == "Bearer sekrit"
    assert req["payload"] == {"input": "inp", "num_hypotheses": 2}


def test_generate_truncates_to_k(server):
    server.responses.append((200, {"hypotheses": ["a", "b", "c"]}))
    client = SketchProviderClient(fast_config(server))
    assert request_candidates(client, "inp", 2) == ["a", "b"]
    assert server.requests[0]["auth"] is None


def test_server_error_retried_then_succeeds(server):
    server.responses += [(500, {}), (200, {"hypotheses": ["a"]})]
    client = SketchProviderClient(fast_config(server))
    assert client.generate("inp", 1) == ["a"]
    assert len(server.requests) == 2


def test_retries_exhausted(server):
    server.default = (503, {})
    client = SketchProviderClient(fast_config(server, retries=2))
    with pytest.raises(ProviderUnavailableError, match="after 3 attempts"):
        client.generate("inp", 1)
    assert len(server.requests) == 3


def test_client_error_fails_fast(server):
    server.responses.append((404, {}))
    client = SketchProviderClient(fast_config(server, retries=5))
    with pytest.raises(ProviderUnavailableError, match="HTTP 404"):
        client.generate("inp", 1)
    assert len(server.requests) == 1


def test_non_json_body(server):
    server.responses.append((200, "this is not json"))
    client = SketchProviderClient(fast_config(server))
    with pytest.raises(ProtocolError, match="non-JSON"):
        client.generate("inp", 1)
    assert len(server.requests) == 1


def test_non_object_body(server):
    server.responses.append((200, "[1, 2]"))
    client = SketchProviderClient(fast_config(server))
    with pytest.raises(ProtocolError, match="expected an object"):
        client.generate("inp", 1)


def test_generate_missing_hypotheses(server):
    server.responses.append((200, {"outputs": ["a"]}))
    client = SketchProviderClient(fast_config(server))
    with pytest.raises(ProtocolError, match="hypotheses"):
        request_candidates(client, "inp", 1)


def test_score_success(server):
    server.responses.append((200, {"scores": [0.25, 1]}))
    client = AlignerClient(fast_config(server))
    assert request_alignment_scores(client, ["s1", "s2"]) == [0.25, 1.0]
    assert server.requests[0]["path"] == "/score"
    assert server.requests[0]["payload"] == {"sequences": ["s1", "s2"]}


@pytest.mark.parametrize("scores", [[0.5], [0.5, 1.5], [0.5, -0.1],
                                    [0.5, True], [0.5, "high"], "oops"])
def test_score_protocol_violations(server, scores):
    server.responses.append((200, {"scores": scores}))
    client = AlignerClient(fast_config(server))
    with pytest.raises(ProtocolError):
        request_alignment_scores(client, ["s1", "s2"])


def test_complete_native(server):
    server.responses.append((200, {"text": "SELECT 1"}))
    client = CompleterClient(fast_config(server))
    assert client.complete("prompt") == "SELECT 1"
    (req,) = server.requests
    assert req["path"] == "/complete"
    assert req["payload"] == {"prompt": "prompt", "temperature": 0.0,
                              "top_p": 1.0, "frequency_penalty": 0.0}


def test_complete_missing_text(server):
    server.responses.append((200, {"text": 7}))
    client = CompleterClient(fast_config(server))
    with pytest.raises(ProtocolError, match="'text'"):
        request_completion(client, "prompt")


def test_complete_unavailable_error_type(server):
    server.default = (500, {})
    client = CompleterClient(fast_config(server, retries=0))
    with pytest.raises(CompleterUnavailableError):
        client.complete("prompt")


def test_complete_chat_adapter(server):
    server.responses.append(
        (200, {"choices": [{"message": {"content": "SELECT 2"}}]}))
    client = CompleterClient(fast_config(server, chat_adapter=True))
    assert client.complete("prompt") == "SELECT 2"
    (req,) = server.requests
    assert req["path"] == "/chat/completions"
    assert req["payload"]["messages"] == [{"role": "user", "content": "prompt"}]
    assert req["payload"]["temperature"] == 0.0


def test_chat_adapter_malformed_response(server):
    server.responses.append((200, {"choices": []}))
    client = CompleterClient(fast_config(server, chat_adapter=True))
    with pytest.raises(ProtocolError, match="choices"):
        client.complete("prompt")


def test_encode_success(server):
    server.responses.append((200, {"vectors": [[1.0, 0.0], [0.0, 1.0]]}))
    client = EncoderClient(fast_config(server))
    assert client.encode(["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]
    assert server.requests[0]["path"] == "/encode"


def test_encode_arity_mismatch(server):
    server.responses.append((200, {"vectors": [[1.0]]}))
    client = EncoderClient(fast_config(server))
    with pytest.raises(ProtocolError):
        client.encode(["a", "b"])
    server.responses.append((500, {}))
    with pytest.raises(EncoderUnavailableError):
        EncoderClient(fast_config(server, retries=0)).encode(["a"])


def test_in_flight_requests_bounded(server):
    server.default = (200, {"hypotheses": ["a"]})
    server.delay = 0.1
    client = SketchProviderClient(fast_config(server, max_in_flight=2,
                                               retries=0))
    threads = [threading.Thread(target=client.generate, args=("inp", 1))
               for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(server.requests) == 6
    assert server.high_water <= 2


# --------------------------------------------------------------------------
# Kept connections, proxies and redirects

def test_sequential_calls_share_one_connection(kept_server):
    with HttpClient(EndpointConfig(kept_server.base_url + "/v1/")) as client:
        for _ in range(20):
            assert client.generate("inp", 1) == ["a"]
    assert kept_server.connections == 1
    assert [r["path"] for r in kept_server.requests] == ["/v1/generate"] * 20


def test_threads_open_at_most_max_in_flight_connections(kept_server):
    kept_server.delay = 0.02
    answers = []
    with HttpClient(fast_config(kept_server, max_in_flight=2)) as client:

        def calls():
            for _ in range(5):
                answers.append(client.generate("inp", 1))

        threads = [threading.Thread(target=calls) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    assert answers == [["a"]] * 20
    assert kept_server.connections <= 2
    assert kept_server.high_water <= 2


def test_connection_closed_while_idle_is_replaced_without_a_retry(monkeypatch):
    """Each kept connection is closed by the server after its reply; the
    next call notices before any status line and sends again at once."""
    srv = StubServer("HTTP/1.1", close_kept=True)
    srv.default = (200, {"hypotheses": ["a"]})
    sleeps = []
    monkeypatch.setattr("sketchsql.gateway.time.sleep", sleeps.append)
    try:
        with HttpClient(EndpointConfig(srv.base_url, retries=2)) as client:
            for _ in range(5):
                assert client.generate("inp", 1) == ["a"]
    finally:
        srv.stop()
    assert len(srv.requests) == 5
    assert srv.connections == 5
    assert sleeps == []


def _clear_proxy_variables(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def test_http_proxy_gets_the_absolute_form(server, monkeypatch):
    _clear_proxy_variables(monkeypatch)
    server.default = (200, {"hypotheses": ["a"]})
    monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{server.address}")
    # Nothing listens on port 9, so a request sent direct fails.
    proxied = HttpClient(EndpointConfig("http://127.0.0.1:9/v1/", retries=0))
    # The variables were read when the client was made.
    monkeypatch.setenv("no_proxy", "*")
    assert proxied.generate("inp", 1) == ["a"]
    (req,) = server.requests
    assert req["path"] == "http://127.0.0.1:9/v1/generate"
    assert req["proxy_auth"] == \
        "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_no_proxy_bypasses_the_proxy(server, monkeypatch):
    _clear_proxy_variables(monkeypatch)
    server.default = (200, {"hypotheses": ["a"]})
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")  # nothing listens
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    client = HttpClient(fast_config(server, retries=0))
    assert client.generate("inp", 1) == ["a"]
    assert server.requests[0]["path"] == "/generate"
    assert server.requests[0]["proxy_auth"] is None


@pytest.mark.parametrize("env", [
    {"HTTP_PROXY": "proxy"},
    {"http_proxy": "", "HTTP_PROXY": "proxy"},
    {"http_proxy": "proxy", "HTTP_PROXY": "http://127.0.0.1:9"},
    {"REQUEST_METHOD": "GET", "HTTP_PROXY": "proxy"},
    {"REQUEST_METHOD": "GET", "http_proxy": "proxy"},
    {"https_proxy": "proxy"},
])
def test_proxy_variables_are_read_as_getproxies_reads_them(server,
                                                           monkeypatch, env):
    """The client proxies a request exactly when the standard library's
    reading of the variables names a proxy for its scheme."""
    _clear_proxy_variables(monkeypatch)
    monkeypatch.delenv("REQUEST_METHOD", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, server.address if value == "proxy" else value)
    server.default = (200, {"hypotheses": ["a"]})
    client = HttpClient(EndpointConfig("http://127.0.0.1:9/v1", retries=0))
    if urllib.request.getproxies().get("http") == server.address:
        assert client.generate("inp", 1) == ["a"]
        assert server.requests[0]["path"] == "http://127.0.0.1:9/v1/generate"
    else:
        with pytest.raises(ProviderUnavailableError):  # sent direct
            client.generate("inp", 1)
        assert server.requests == []


def test_https_proxy_gets_a_connect_tunnel(server, monkeypatch):
    _clear_proxy_variables(monkeypatch)
    monkeypatch.setenv("https_proxy", f"http://user:pw@{server.address}")
    client = HttpClient(EndpointConfig("https://127.0.0.1:9/v1", retries=0))
    with pytest.raises(ProviderUnavailableError,
                       match="Tunnel connection failed: 403"):
        client.generate("inp", 1)
    (req,) = server.requests
    assert req["path"] == "127.0.0.1:9"
    assert req["proxy_auth"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_redirect_is_an_error_naming_the_status(server):
    server.responses.append((307, {}))
    client = SketchProviderClient(fast_config(server, retries=3))
    with pytest.raises(ProviderUnavailableError,
                       match="rejected the request: HTTP 307$"):
        client.generate("inp", 1)
    assert len(server.requests) == 1


def test_forked_child_opens_its_own_connection(kept_server):
    with HttpClient(fast_config(kept_server)) as client:
        assert client.generate("inp", 1) == ["a"]  # a kept connection
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                signal.alarm(10)  # a child whose request never ends dies here
                code = 0 if client.generate("inp", 1) == ["a"] else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert client.generate("inp", 1) == ["a"]  # the parent's is still kept
    assert kept_server.connections == 2
    assert len(kept_server.requests) == 3


def _wait_for(condition, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_close_closes_the_kept_connections(kept_server):
    """The server sees every kept connection end at close(); the client
    stays usable and opens a new one."""
    kept_server.delay = 0.3  # so that the two calls overlap
    client = HttpClient(fast_config(kept_server, max_in_flight=2))
    threads = [threading.Thread(target=client.generate, args=("inp", 1))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert kept_server.connections == 2 and kept_server.closed == 0
    client.close()
    assert _wait_for(lambda: kept_server.closed == 2)
    with client:
        assert client.generate("inp", 1) == ["a"]
        assert kept_server.connections == 3
    assert _wait_for(lambda: kept_server.closed == 3)


def test_a_connection_in_use_during_close_is_closed_when_put_back(kept_server):
    kept_server.delay = 0.3
    client = HttpClient(fast_config(kept_server))
    call = threading.Thread(target=client.generate, args=("inp", 1))
    call.start()
    assert _wait_for(lambda: kept_server.requests)
    client.close()
    assert kept_server.closed == 0  # its reply is still on the way
    call.join(timeout=10)
    assert not call.is_alive()
    assert _wait_for(lambda: kept_server.closed == 1)


def test_commands_close_the_clients_they_build(kept_server, tmp_path,
                                              monkeypatch):
    """``calibrate`` with the encoder backend builds an HTTP client; its
    kept connection ends with the command.  The test holds the client, so
    that only close(), not garbage collection, can end it."""
    built = []
    real_build_clients = cli.build_clients
    monkeypatch.setattr(cli, "build_clients",
                        lambda config: built.append(real_build_clients(config))
                        or built[-1])
    kept_server.default = (200, {"vectors": [[1.0, 0.0], [1.0, 0.0]]})
    db = make_school_db(tmp_path / "school.sqlite")
    assert main(["calibrate", "--db", str(db), "--sql", SCHOOL_GOLD_SQL,
                 "--backend", "encoder",
                 "--encoder-url", kept_server.base_url]) == 0
    assert isinstance(built[0]["encoder"], HttpClient)
    assert kept_server.connections == 1
    assert _wait_for(lambda: kept_server.closed == 1)


@pytest.mark.parametrize("url", ["localhost:8000", "127.0.0.1:8000",
                                 "ftp://host/v1", "http://", "http:///v1",
                                 "/v1", ""])
def test_endpoint_url_must_be_http_with_a_host(url):
    with pytest.raises(ValueError, match=re.escape(f"endpoint URL {url!r}")):
        EndpointConfig(url)


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig("http://x", timeout=0)
    with pytest.raises(ValueError):
        EndpointConfig("http://x", max_in_flight=0)
    with pytest.raises(ValueError, match="retries"):
        EndpointConfig("http://x", retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        EndpointConfig("http://x", backoff=-1)


def test_role_client_names_are_the_http_client():
    for name in (SketchProviderClient, AlignerClient, CompleterClient,
                 EncoderClient):
        assert name is HttpClient


# method -> (its arguments, the error it raises, the label it names)
ROLE_FAILURES = {
    "generate": (("inp", 1), ProviderUnavailableError, "sketch provider"),
    "score": ((["s1"],), ProviderUnavailableError, "aligner"),
    "complete": (("prompt",), CompleterUnavailableError, "completer"),
    "encode": ((["a"],), EncoderUnavailableError, "sentence encoder"),
}


@pytest.mark.parametrize("chat_adapter", [False, True])
def test_one_client_keeps_each_role_error(server, chat_adapter):
    server.default = (404, {})
    client = HttpClient(fast_config(server, chat_adapter=chat_adapter))
    for method, (args, error, label) in ROLE_FAILURES.items():
        with pytest.raises(SketchSqlError) as caught:
            getattr(client, method)(*args)
        assert type(caught.value) is error
        assert str(caught.value).startswith(f"{label} endpoint ")
        assert str(caught.value).endswith("rejected the request: HTTP 404")
    complete = "/chat/completions" if chat_adapter else "/complete"
    assert [r["path"] for r in server.requests] == \
        ["/generate", "/score", complete, "/encode"]


def test_encoder_backend_over_http(server, tmp_path, monkeypatch, caplog,
                                   capsys):
    """``calibrate --backend encoder`` reaches the encoder URL with its
    token; an encoder that rejects the request leaves fuzzy matching."""
    db = tmp_path / "school.sqlite"
    make_school_db(db)
    monkeypatch.setenv("ENCODER_TOKEN", "tok-e")
    server.default = (404, {})
    bad = ("SELECT course FROM Student WHERE given_name = 'timmothy' "
           "AND last_name = 'wards' ORDER BY score LIMIT 1")
    assert main(["calibrate", "--db", str(db), "--sql", bad,
                 "--backend", "encoder",
                 "--encoder-url", server.base_url]) == 0
    assert capsys.readouterr().out == SCHOOL_GOLD_SQL + "\n"
    assert "sentence encoder unavailable" in caplog.text
    # The rejected encoder is dropped: no request for any later value pair.
    assert [(r["path"], r["auth"]) for r in server.requests] == \
        [("/encode", "Bearer tok-e")]


def test_unavailable_encoder_is_called_once(server, tmp_path, caplog):
    """An encoder that answers 503 costs one retry schedule, not one per
    value pair, and the match is the character-fuzzy one.  No level holds a
    value within the threshold of 'timmothy', so its search scores every
    column of the database."""
    server.default = (503, {})
    db = Database(make_school_db(tmp_path / "school.sqlite"))
    query = parse_sql(SCHOOL_BAD_SQL)
    backend = SentenceEncoder(EncoderClient(fast_config(server, retries=2)))
    feedback = multi_level_match(db, query, 0.65, backend)
    assert len(server.requests) == 3
    assert sum("sentence encoder unavailable" in r.message
               for r in caplog.records) == 1
    assert feedback == multi_level_match(db, query, 0.65, CharacterFuzzy())
    db.close()


# --------------------------------------------------------------------------
# Stub script

def test_stub_script_consumes_in_order():
    script = StubScript({"complete": {"p": ["a", "b"]}})
    takes = [script.take("complete", "p") for _ in range(4)]
    assert takes == ["a", "b", "b", "b"]  # last entry repeats forever


def test_stub_script_wildcard_fallback():
    script = StubScript({"score": {"exact": [0.5], "*": [0.9]}})
    assert script.take("score", "exact") == 0.5
    assert script.take("score", "anything else") == 0.9


def test_stub_script_missing_entry():
    script = StubScript({"score": {"exact": [0.5]}})
    with pytest.raises(StubScriptError, match="no entry"):
        script.take("score", "other " * 40)
    with pytest.raises(StubScriptError, match="no 'generate' section"):
        script.take("generate", "x")


def test_stub_script_scalar_entry_wrapped():
    script = StubScript({"complete": {"p": "only"}})
    assert script.take("complete", "p") == "only"


def test_stub_script_validation():
    with pytest.raises(StubScriptError, match="unknown"):
        StubScript({"fetch": {}})
    with pytest.raises(StubScriptError):
        StubScript(["not", "a", "dict"])
    with pytest.raises(StubScriptError):
        StubScript({"score": ["not a dict"]})


def test_stub_script_load(tmp_path):
    path = tmp_path / "script.json"
    path.write_text('{"complete": {"p": ["x"]}}', encoding="utf-8")
    assert StubScript.load(path).take("complete", "p") == "x"
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(StubScriptError, match="not valid JSON"):
        StubScript.load(bad)
    with pytest.raises(StubScriptError, match="cannot read"):
        StubScript.load(tmp_path / "missing.json")


def test_stub_clients():
    script = StubScript({
        "generate": {"inp": [["s1", "s2", "s3"]]},
        "score": {"*": [0.5]},
        "complete": {"p": ["SELECT 1"]},
        "encode": {"*": [[1.0, 0.0]]},
    })
    assert request_candidates(script, "inp", 2) == ["s1", "s2"]
    assert request_alignment_scores(script, ["a", "b"]) == [0.5, 0.5]
    assert request_completion(script, "p") == "SELECT 1"
    assert script.encode(["a", "b"]) == [[1.0, 0.0], [1.0, 0.0]]
    clients = clients_from_script(script)
    assert clients == dict.fromkeys(("sketch", "aligner", "completer",
                                     "encoder"), script)


def test_stub_clients_type_checks():
    script = StubScript({"generate": {"inp": ["not-a-list"]},
                         "complete": {"p": [["not-a-string"]]}})
    with pytest.raises(ProtocolError, match="'hypotheses' list of strings"):
        request_candidates(script, "inp", 1)
    with pytest.raises(ProtocolError, match="'text' string"):
        request_completion(script, "p")


def test_stub_aligner_rejects_out_of_range():
    script = StubScript({"score": {"*": [1.5]}})
    with pytest.raises(ProtocolError):
        request_alignment_scores(script, ["a"])


@pytest.mark.parametrize("scripted", [True, "0.5", "x"])
def test_stub_aligner_rejects_non_numbers_like_the_client(scripted):
    script = StubScript({"score": {"*": [scripted]}})
    with pytest.raises(ProtocolError):
        request_alignment_scores(script, ["a"])


# --------------------------------------------------------------------------
# One response check for both transports

# (role, request helper arguments after the client, the role's answer)
MALFORMED_ANSWERS = {
    "hypotheses not a list": ("generate", ("inp", 2), "SELECT 1"),
    "hypothesis not a string": ("generate", ("inp", 2), ["SELECT 1", 7]),
    "score out of range": ("score", (["s1", "s2"],), [0.5, 1.5]),
    "score negative": ("score", (["s1", "s2"],), [-0.1, 0.5]),
    "score a bool": ("score", (["s1", "s2"],), [0.5, True]),
    "score a string": ("score", (["s1", "s2"],), ["0.5", 0.5]),
    "completion not a string": ("complete", ("p",), ["SELECT 1"]),
}
HELPERS = {"generate": request_candidates, "score": request_alignment_scores,
           "complete": request_completion}
HTTP = {"generate": (SketchProviderClient, "hypotheses"),
        "score": (AlignerClient, "scores"),
        "complete": (CompleterClient, "text")}


def _protocol_error(helper, client, args) -> str:
    with pytest.raises(ProtocolError) as caught:
        helper(client, *args)
    return str(caught.value)


@pytest.mark.parametrize("case", sorted(MALFORMED_ANSWERS))
def test_stub_and_http_answers_fail_the_same_check(server, case):
    role, args, answer = MALFORMED_ANSWERS[case]
    if role == "score":
        # The stub answers each sequence from its own entry.
        stub = StubScript({"score": dict(zip(args[0], answer))})
    else:
        stub = StubScript({role: {args[0]: [answer]}})
    cls, field = HTTP[role]
    server.responses.append((200, {field: answer}))
    http = cls(fast_config(server))
    helper = HELPERS[role]
    assert _protocol_error(helper, stub, args) == \
        _protocol_error(helper, http, args)


def test_score_count_is_checked_in_the_helper(server):
    """A stub answers one score per sequence by construction, so a short
    answer can only come from a server or another client."""
    class ShortAligner:
        def score(self, sequences):
            return [0.5]

    server.responses.append((200, {"scores": [0.5]}))
    http = AlignerClient(fast_config(server))
    message = "aligner returned 1 score(s) for 2 sequence(s)"
    for client in (http, ShortAligner()):
        with pytest.raises(ProtocolError, match=re.escape(message)):
            request_alignment_scores(client, ["s1", "s2"])


# --------------------------------------------------------------------------
# Request helpers

def test_request_helpers_validate_inputs():
    script = StubScript({"generate": {"inp": [["s1"]]},
                         "score": {"*": [0.9]},
                         "complete": {"p": ["SELECT 1"]}})
    clients = clients_from_script(script)
    assert request_candidates(clients["sketch"], "inp", 4) == ["s1"]
    assert request_alignment_scores(clients["aligner"], ["x"]) == [0.9]
    assert request_completion(clients["completer"], "p") == "SELECT 1"
    with pytest.raises(ValueError):
        request_candidates(clients["sketch"], "inp", 0)
    with pytest.raises(ValueError):
        request_candidates(clients["sketch"], "", 1)
    with pytest.raises(ValueError):
        request_alignment_scores(clients["aligner"], [])
    with pytest.raises(ValueError):
        request_completion(clients["completer"], "")
