"""Loopback HTTP fixture for the crawl workload.

Serves every crawled site of every pass from the Host header and the path
alone (see ``gen.respond``), so it needs no per-pass set-up. It prints its
port on the first line of stdout and serves until terminated.

Each response goes out in one write. A header write followed by a body
write on a kept-alive connection stalls every page on the client's
delayed ACK (about 40 ms a page instead of about 2 ms).

Usage: python3 fixture.py <seed>
"""

from __future__ import annotations

import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import gen

_REASONS = {200: "OK", 301: "Moved Permanently", 302: "Found", 404: "Not Found"}


def make_handler(seed: int):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            host = self.headers.get("Host", "").split(":", 1)[0].lower()
            response = gen.respond(seed, host, urlsplit(self.path).path)
            body = response.body.encode("utf-8")
            head = [f"HTTP/1.1 {response.status} {_REASONS[response.status]}",
                    f"Content-Type: {response.content_type}",
                    f"Content-Length: {len(body)}"]
            if response.location is not None:
                head.append(f"Location: {response.location}")
            self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> int:
    seed = int(sys.argv[1])
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(seed))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
