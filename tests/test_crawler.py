"""Crawler tests against a loopback HTTP server."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helixmap.crawler import CrawlPolicy, crawl_outlinks, extract_hrefs
from helixmap.urls import ReductionRules, SiteKey

RULES = ReductionRules.bundled()

# path -> body of the pages that site.com serves; anything else is a 404
PAGES = {
    "/": '<a href="/a.html">a</a> <a href="/b.html">b</a>',
    "/a.html": '<a href="/c.html">c</a> <a href="http://other.org/">o</a>',
    "/b.html": '<a href="/d.html">d</a>',
    "/c.html": "",
    "/d.html": '<a href="/based/">based</a>',
    "/based/": (
        '<base href="http://cdn.other.com/"><base href="http://ignored.net/">'
        '<a href="page.html">p</a> <a href="https://third.org/x">t</a>'
    ),
}


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        body = PAGES.get(self.path)
        payload = (body or "").encode("utf-8")
        self.send_response(200 if body is not None else 404)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


@pytest.fixture(scope="module")
def host_map():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield {"site.com": f"127.0.0.1:{server.server_address[1]}"}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_extract_hrefs_resolves_against_first_base():
    html = '<base href="http://cdn.other.com/"><a href="page.html">p</a>'
    assert extract_hrefs(html) == ["http://cdn.other.com/page.html"]
    # a relative base is resolved against the document's own URL
    html = '<base href="/docs/"><a href="p.html">p</a><area href="../q.html">'
    assert extract_hrefs(html, "http://site.com/x/y.html") == [
        "http://site.com/docs/p.html",
        "http://site.com/q.html",
    ]


def test_extract_hrefs_without_base_returns_values_as_written():
    html = '<a href="page.html">p</a><a>no href</a><area href="/map">'
    assert extract_hrefs(html, "http://site.com/x/") == ["page.html", "/map"]


def test_crawl_is_breadth_first_and_honours_base(host_map):
    policy = CrawlPolicy(delay_per_host=0, max_depth=5, timeout=5)
    result = crawl_outlinks(SiteKey("site.com"), policy, RULES, host_map=host_map)
    fetched = [e.url for e in result.report.log if e.url != "http://site.com/robots.txt"]
    assert fetched == [
        "http://site.com/",
        "http://site.com/a.html",
        "http://site.com/b.html",
        "http://site.com/c.html",
        "http://site.com/d.html",
        "http://site.com/based/",
    ]
    targets = {record.target.value for record in result.links.records()}
    assert targets == {"other.org", "other.com", "third.org"}
    assert result.report.errors == []
