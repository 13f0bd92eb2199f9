"""Loopback chat-completions stub for the remote policy path.

The stub binds port 0 on 127.0.0.1, so the benchmark needs no network and no
fixed port. It serves one connection at a time from a single thread and
answers every request by running the scripted policy named by the request's
``model`` field on the received prompt. It never injects failures. For each
request it records the client port and the handler time (reading the request
and computing the answer, not sending it), so the benchmark can split a round
trip into stub time and client time and count connections.

It uses the standard library only, so the benchmark adds no dependency.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable

Policy = Callable[[str, int], str]


class StubServer:
    """A single-threaded HTTP server whose requests are answered by policies."""

    def __init__(self, policies: dict[str, Policy]):
        self.policies = policies
        # (client port, handler ms), appended by the server thread only
        self.records: list[tuple[int, float]] = []
        self._httpd = HTTPServer(("127.0.0.1", 0), _handler_for(self))
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        name="loopback-stub", daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def take_records(self) -> list[tuple[int, float]]:
        """Return and clear the records; call only while no request is in flight."""
        records, self.records = self.records, []
        return records

    def close(self) -> None:
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=10)
        self._httpd.server_close()


def _handler_for(stub: StubServer) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # lets a pooling client keep its connection
        timeout = 5  # an idle kept-alive connection cannot block the next client

        def do_POST(self) -> None:
            t0 = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            policy = stub.policies[body["model"]]
            content = policy(body["messages"][-1]["content"], 0)
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant",
                                          "content": content}}]}).encode("utf-8")
            # recorded before the reply goes out, so a client that has its
            # answer always finds the record of that request
            stub.records.append((self.client_address[1],
                                 (time.perf_counter() - t0) * 1000.0))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, format: str, *args) -> None:
            pass

    return Handler
