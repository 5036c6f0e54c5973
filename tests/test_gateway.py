import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sketchsql.errors import (
    CompleterUnavailableError,
    EncoderUnavailableError,
    ProtocolError,
    ProviderUnavailableError,
    StubScriptError,
)
from sketchsql.gateway import (
    AlignerClient,
    CompleterClient,
    EncoderClient,
    EndpointConfig,
    SketchProviderClient,
    StubAligner,
    StubCompleter,
    StubScript,
    StubSketchProvider,
    clients_from_script,
    request_alignment_scores,
    request_candidates,
    request_completion,
)


class StubServer:
    """Local HTTP server with scripted responses and request capture."""

    def __init__(self):
        self.requests = []
        self.responses = []  # queue of (status, body); body dict -> JSON
        self.default = (200, {})
        self.delay = 0.0
        self._active = 0
        self.high_water = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else None
                with outer._lock:
                    outer.requests.append({
                        "path": self.path,
                        "auth": self.headers.get("Authorization"),
                        "payload": body,
                    })
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

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.base_url = f"http://127.0.0.1:{self._httpd.server_address[1]}"
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
    assert client.generate("inp", 2) == ["a", "b"]
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
        client.generate("inp", 1)


def test_score_success(server):
    server.responses.append((200, {"scores": [0.25, 1]}))
    client = AlignerClient(fast_config(server))
    assert client.score(["s1", "s2"]) == [0.25, 1.0]
    assert server.requests[0]["path"] == "/score"
    assert server.requests[0]["payload"] == {"sequences": ["s1", "s2"]}


@pytest.mark.parametrize("scores", [[0.5], [0.5, 1.5], [0.5, -0.1],
                                    [0.5, True], [0.5, "high"], "oops"])
def test_score_protocol_violations(server, scores):
    server.responses.append((200, {"scores": scores}))
    client = AlignerClient(fast_config(server))
    with pytest.raises(ProtocolError):
        client.score(["s1", "s2"])


def test_complete_native(server):
    server.responses.append((200, {"text": "SELECT 1"}))
    client = CompleterClient(fast_config(server))
    assert client.complete("prompt", temperature=0.2) == "SELECT 1"
    (req,) = server.requests
    assert req["path"] == "/complete"
    assert req["payload"] == {"prompt": "prompt", "temperature": 0.2,
                              "top_p": 1.0, "frequency_penalty": 0.0}


def test_complete_missing_text(server):
    server.responses.append((200, {"text": 7}))
    client = CompleterClient(fast_config(server))
    with pytest.raises(ProtocolError, match="'text'"):
        client.complete("prompt")


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


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig("http://x", timeout=0)
    with pytest.raises(ValueError):
        EndpointConfig("http://x", max_in_flight=0)


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
    })
    assert StubSketchProvider(script).generate("inp", 2) == ["s1", "s2"]
    assert StubAligner(script).score(["a", "b"]) == [0.5, 0.5]
    assert StubCompleter(script).complete("p") == "SELECT 1"
    clients = clients_from_script(script)
    assert set(clients) == {"sketch", "aligner", "completer", "encoder"}


def test_stub_clients_type_checks():
    script = StubScript({"generate": {"inp": ["not-a-list"]},
                         "complete": {"p": [["not-a-string"]]}})
    with pytest.raises(StubScriptError):
        StubSketchProvider(script).generate("inp", 1)
    with pytest.raises(StubScriptError):
        StubCompleter(script).complete("p")


def test_stub_aligner_rejects_out_of_range():
    script = StubScript({"score": {"*": [1.5]}})
    with pytest.raises(ProtocolError):
        StubAligner(script).score(["a"])


@pytest.mark.parametrize("scripted", [True, "0.5", "x"])
def test_stub_aligner_rejects_non_numbers_like_the_client(scripted):
    script = StubScript({"score": {"*": [scripted]}})
    with pytest.raises(ProtocolError):
        StubAligner(script).score(["a"])


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
