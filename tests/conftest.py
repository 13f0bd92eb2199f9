import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import yaml

from ttexplore import load_builtin_world
from ttexplore.policies import PolicyHandle, RemoteBackend, scripted
from ttexplore.world import builtin_world_path, load_world


@pytest.fixture
def minihouse1():
    return load_builtin_world("minihouse1")


@pytest.fixture
def minihouse2():
    return load_builtin_world("minihouse2")


@pytest.fixture
def keymaze1():
    return load_builtin_world("keymaze1")


@pytest.fixture
def oracle():
    return scripted("actor", "oracle-actor")


@pytest.fixture
def greedy():
    return scripted("actor", "greedy-actor")


@pytest.fixture
def oracle_thinker():
    return scripted("thinker", "oracle-thinker")


@pytest.fixture
def open_fridge(tmp_path):
    """minihouse1 with the fridge already open: the task starts at 33.33."""
    doc = yaml.safe_load(builtin_world_path("minihouse1").read_text(encoding="utf-8"))
    doc["entities"]["fridge 1"]["open"] = True
    doc["tasks"][0]["allow_initial_subgoals"] = True
    path = tmp_path / "open-fridge.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_world(path)


class StatusStub:
    """A loopback chat endpoint that answers the n-th request with
    `statuses[n]` (the last status repeats); a 200 carries `body`, by default
    a completion, and every answer also carries `answer_headers`. Each
    request's headers and JSON payload are kept in `received`. With
    `delay_s` set, every answer waits that long, and a request still waiting
    when the test ends gets no answer."""

    def __init__(self):
        self.statuses = [200]
        self.body = json.dumps(
            {"choices": [{"message": {"content": "done"}}]}).encode()
        self.answer_headers = {}
        self.delay_s = 0.0
        self.done = threading.Event()
        self.requests = 0
        self.received = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                payload = self.rfile.read(int(self.headers["Content-Length"]))
                stub.received.append((self.headers, json.loads(payload)))
                status = stub.statuses[min(stub.requests, len(stub.statuses) - 1)]
                stub.requests += 1
                # not time.sleep: the `sleeps` fixture replaces it in every
                # thread, this one included
                if stub.delay_s and stub.done.wait(stub.delay_s):
                    return
                body = (stub.body if status == 200
                        else json.dumps({"error": status}).encode())
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in stub.answer_headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)

    def handle(self, max_retries=2, timeout_s=5.0):
        host, port = self.httpd.server_address[:2]
        return PolicyHandle(
            role="actor",
            backend=RemoteBackend(
                endpoint=f"http://{host}:{port}/v1/chat/completions",
                model="test-model", max_retries=max_retries,
                timeout_s=timeout_s, temperature=0.5, max_output_tokens=64))


@pytest.fixture
def stub(monkeypatch):
    # urllib sends even a loopback call to a proxy named in the environment
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = StatusStub()
    server.thread.start()
    try:
        yield server
    finally:
        server.done.set()
        server.httpd.shutdown()
        server.thread.join(timeout=10)
        server.httpd.server_close()
    assert not server.thread.is_alive()
