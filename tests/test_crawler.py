"""Crawler tests against a loopback HTTP server."""

from __future__ import annotations

import gc
import gzip
import select
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helixmap import crawler, harvest
from helixmap.crawler import (
    MAX_REDIRECT_HOPS,
    CrawlPolicy,
    CrawlReport,
    Fetcher,
    HostThrottle,
    crawl_outlinks,
    document_base,
    extract_hrefs,
)
from helixmap.harvest import LinkRecord, SourceTag
from helixmap.registry import load_registry
from helixmap.urls import ReductionRules, SiteKey, canonicalize

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


# redirects served for every host: path -> (status, Location or None)
REDIRECTS = {
    "/old.html": (301, "/new.html"),
    "/away.html": (302, "http://elsewhere.org/"),
    "/nowhere.html": (302, None),
    "/loop.html": (301, "/loop.html"),
}

REPEATED_HREFS = (
    '<a href="y.html">r</a> <a href="/d/">d</a> <a href="http://ext.org/">e</a> '
    '<a href="mailto:office@repeat.com">m</a> '
) * 2

# host -> its pages; site.com has no robots.txt (a 404), busy.com serves the
# same pages but its robots.txt answers 503
SITES = {
    "site.com": PAGES,
    "busy.com": PAGES,
    "hops.com": {
        "/": "".join(f'<a href="{path}">r</a>' for path in REDIRECTS),
        "/new.html": "",
    },
    "elsewhere.org": {"/": ""},
    # its second link is a 404
    "broken.com": {
        "/": '<a href="/ok.html">o</a> <a href="/missing.html">m</a> <a href="/more.html">x</a>',
        "/ok.html": "",
        "/more.html": "",
    },
    # a chain of pages, each one level deeper: / -> /1.html -> /2.html ...
    "chain.com": {
        ("/" if i == 0 else f"/{i}.html"): f'<a href="/{i + 1}.html">next</a>'
        for i in range(10)
    },
    # "/" is UTF-8 that says so only in a <meta>: its Content-Type is bare
    "intl.com": {
        "/": ('<meta charset="utf-8"><a href="http://bücher.de/">b</a>'
              '<a href="/latin.html">l</a> <a href="/bogus.html">x</a>'
              '<a href="/wide.html">w</a> <a href="/b64.html">6</a>'),
        "/latin.html": '<a href="http://münchen.de/">m</a>',
        "/bogus.html": '<a href="http://lost.org/">l</a>',
        "/wide.html": '<a href="http://köln.de/">k</a>',
        "/b64.html": '<a href="http://lost.org/">l</a>',
    },
    # its robots.txt allows everything, in a charset with no codec
    "shy.com": {"/": "", "/robots.txt": "User-agent: *\nAllow: /\n"},
    # its second page ends in "<![", which html.parser cannot read
    "marked.com": {
        "/": '<a href="/odd.html">o</a> <a href="/after.html">a</a>',
        "/odd.html": '<a href="http://before.org/">b</a> <![ foo',
        "/after.html": '<a href="http://after.org/">a</a>',
    },
    # every page but one repeats the same hrefs; "y.html" resolves
    # differently on "/d/", and "/b/" and "/c/x.html" resolve theirs on "/d/"
    # by a <base>, written two ways
    "repeat.com": {
        "/": REPEATED_HREFS,
        "/y.html": REPEATED_HREFS,
        "/d/": REPEATED_HREFS,
        "/d/y.html": '<a href="/b/">b</a> <a href="/c/x.html">c</a>',
        "/b/": '<base href="/d/">' + REPEATED_HREFS,
        "/c/x.html": '<base href="HTTP://Repeat.com:80/d/">' + REPEATED_HREFS,
    },
    # its pages' bases are in schemes the crawl does not follow, so their
    # relative hrefs ("//ext.org/" among them) lead nowhere
    "unfollowed.com": {
        "/": ('<base href="ftp://cdn.x/"><a href="p.html">p</a> <a href="/q.html">q</a> '
              '<a href="//ext.org/">n</a> <a href="http://unfollowed.com/r.html">r</a> '
              '<a href="http://other.org/">o</a>'),
        "/r.html": '<base href="javascript:void(0)"><a href="s.html">s</a> <a href="https://third.org/">t</a>',
        "/p.html": "",
        "/q.html": "",
        "/s.html": "",
    },
    # its hosts end in a Unicode full stop, a root dot UTS #46 maps to "."
    "dots.com": {
        "/": '<a href="http://ext.org\u3002/">e</a> <a href="http://dots.com\uff0e/x.html">x</a>',
        "/x.html": '<a href="https://other.org\uff61/y">o</a>',
    },
    # links to ext.org and elsewhere.org twice each: by an href and by
    # www.ext.org's, and by a redirect (/away.html) and an href
    "mixed.com": {
        "/": '<a href="http://ext.org/">x</a> <a href="/away.html">a</a> <a href="/p.html">p</a>',
        "/p.html": '<a href="http://elsewhere.org/y">e</a> <a href="http://www.ext.org/">x</a>',
    },
    # its robots.txt has a group for helixmap and a stricter one for the rest
    "agent.com": {
        "/": '<a href="/x.html">x</a> <a href="http://ext.org/">e</a>',
        "/x.html": "",
        "/robots.txt": "User-agent: helixmap\nDisallow: /x.html\n\nUser-agent: *\nDisallow: /\n",
    },
    # its second link is a page of 1000 bytes
    "heavy.com": {
        "/": '<a href="/big.html">b</a> <a href="/after.html">a</a>',
        "/big.html": "x" * 1000,
        "/after.html": '<a href="http://after.org/">a</a>',
    },
    # its second to fourth links are answers cut short: 33 bytes of a
    # Content-Length of 500, a chunked body without its last chunk, and 33
    # bytes of a Content-Length of 500 followed by a stall
    "cut.com": {
        "/": ('<a href="/short.html">s</a> <a href="/chunked.html">c</a> '
              '<a href="/stall.html">t</a> <a href="/after.html">a</a>'),
        "/after.html": '<a href="http://after.org/">a</a>',
    },
    # the Host an IPv6 key's requests name
    "[::1]": {
        "/": '<a href="/x.html">x</a> <a href="http://ext.org/">e</a>',
        "/x.html": "",
    },
    # its second link is a page in gzip, which the crawl did not ask for
    "zipped.com": {
        "/": '<a href="/z.html">z</a> <a href="/after.html">a</a>',
        "/after.html": '<a href="http://after.org/">a</a>',
    },
    # the host of bücher.de
    "xn--bcher-kva.de": {
        "/": '<a href="/x.html">x</a>',
        "/x.html": '<a href="http://ext.org/">e</a>',
    },
    # its links take branches a crawl seldom does: paths the request must
    # percent-encode, a redirect (/mail.html) to a URL canonicalize refuses,
    # and an absolute href canonicalize refuses on every page
    "odd.com": {
        "/": ('<a href="/a b/ü.html">u</a> <a href="/100%.html">p</a> '
              '<a href="/mail.html">m</a> <a href="/after.html">a</a> '
              '<a href="http://exa mple.com/">x</a>'),
        "/a%20b/%C3%BC.html": '<a href="http://encoded.org/">e</a> <a href="http://exa mple.com/">x</a>',
        "/100%25.html": "",
        "/after.html": '<a href="http://after.org/">a</a>',
    },
    # a site whose queue, after "/", holds a redirect (/old.html), a path
    # robots.txt disallows, a 404 and a page that is not HTML (/doc.txt)
    "ahead.com": {
        "/": ('<a href="/a.html">a</a> <a href="/old.html">o</a> <a href="/private/p.html">p</a> '
              '<a href="/missing.html">m</a> <a href="/doc.txt">t</a> '
              '<a href="mailto:office@ahead.com">x</a> <a href="http://ext.org/">e</a>'),
        "/a.html": '<a href="/c.html">c</a> <a href="/private/q.html">q</a>',
        "/new.html": '<a href="/b.html">b</a> <a href="http://other.org/">o</a>',
        "/doc.txt": '<a href="/never.html">n</a>',
        "/b.html": '<a href="/d.html">d</a>',
        "/c.html": "",
        "/d.html": "",
        "/robots.txt": "User-agent: *\nDisallow: /private/\n",
    },
}
_LINK = b'<a href="http://short.org/">s</a>'
_ZIPPED = gzip.compress(b'<a href="http://zipped.org/">z</a>')
# (host, path) -> the whole answer, sent as it is
RAW = {
    ("cut.com", "/short.html"): (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                                 b"Content-Length: 500\r\n\r\n" + _LINK),
    ("cut.com", "/chunked.html"): (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                                   b"Transfer-Encoding: chunked\r\n\r\n"
                                   + b"%x\r\n" % len(_LINK) + _LINK + b"\r\n"),
    ("cut.com", "/stall.html"): (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                                 b"Content-Length: 500\r\n\r\n" + _LINK),
    ("odd.com", "/mail.html"): (b"HTTP/1.1 302 Found\r\nLocation: mailto:x@y.org\r\n"
                                b"Content-Length: 0\r\nConnection: close\r\n\r\n"),
    ("zipped.com", "/z.html"): (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                                b"Content-Encoding: gzip\r\n"
                                b"Content-Length: %d\r\n\r\n" % len(_ZIPPED) + _ZIPPED),
}
# (host, path) of the RAW answers whose server then sends nothing for
# STALL_SECONDS, and hangs up
STALLED = {("cut.com", "/stall.html")}
STALL_SECONDS = 2.0
ROBOTS_STATUS = {"busy.com": 503, "shy.com": 200, "agent.com": 200, "ahead.com": 200}
# (host, path) -> (Content-Type, the codec of its body); other pages are
# UTF-8 as bare text/html
ENCODINGS = {
    ("intl.com", "/latin.html"): ("text/html; charset=ISO-8859-1", "latin-1"),
    ("intl.com", "/bogus.html"): ("text/html; charset=x-no-such-codec", "utf-8"),
    ("intl.com", "/wide.html"): ("text/html; charset=utf-16", "utf-16"),
    # a codec that turns bytes into bytes, not into text
    ("intl.com", "/b64.html"): ("text/html; charset=base64", "utf-8"),
    ("shy.com", "/robots.txt"): ("text/plain; charset=x-no-such-codec", "utf-8"),
    ("ahead.com", "/robots.txt"): ("text/plain", "utf-8"),
    ("ahead.com", "/doc.txt"): ("text/plain", "utf-8"),
}


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        host = self.headers["Host"]
        raw = RAW.get((host, self.path))
        if raw is not None:
            self.wfile.write(raw)
            if (host, self.path) in STALLED:
                time.sleep(STALL_SECONDS)
            return
        body = SITES[host].get(self.path)
        status, location = REDIRECTS.get(self.path, (200 if body is not None else 404, None))
        if self.path == "/robots.txt":
            status = ROBOTS_STATUS.get(host, 404)
        content_type, codec = ENCODINGS.get((host, self.path), ("text/html", "utf-8"))
        payload = (body or "").encode(codec)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if location:
            self.send_header("Location", location)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


@contextmanager
def _serving(handler, server_class=ThreadingHTTPServer):
    server = server_class(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def host_map():
    with _serving(_Handler) as server:
        address = f"127.0.0.1:{server.server_address[1]}"
        yield {host: address for host in SITES}


def _resolved(html: str, page: str) -> list[str]:
    """The hrefs of ``html``, resolved as a crawl of ``page`` resolves them."""
    hrefs = extract_hrefs(html)
    base = document_base(canonicalize(page), hrefs.base)
    return [str(canonicalize(href, base)) for href in hrefs]


def test_extract_hrefs_resolves_against_first_base():
    html = '<base href="http://cdn.other.com/"><a href="page.html">p</a>'
    assert extract_hrefs(html) == ["page.html"]
    assert extract_hrefs(html).base == "http://cdn.other.com/"
    assert _resolved(html, "http://site.com/") == ["http://cdn.other.com/page.html"]
    # a relative base is resolved against the document's own URL
    html = '<base href="/docs/"><a href="p.html">p</a><area href="../q.html">'
    assert _resolved(html, "http://site.com/x/y.html") == [
        "http://site.com/docs/p.html",
        "http://site.com/q.html",
    ]


def test_extract_hrefs_without_base_returns_values_as_written():
    html = '<a href="page.html">p</a><a>no href</a><area href="/map">'
    assert extract_hrefs(html) == ["page.html", "/map"]
    assert extract_hrefs(html).base is None
    page = canonicalize("http://site.com/x/")
    assert document_base(page, None) is page
    assert _resolved(html, "http://site.com/x/") == ["http://site.com/x/page.html",
                                                      "http://site.com/map"]


def test_a_base_in_a_scheme_the_crawl_does_not_follow_resolves_no_href():
    page = canonicalize("http://site.com/x/y.html")
    for base in ("ftp://cdn.x/", "javascript:void(0)", "mailto:me@site.com"):
        assert document_base(page, base) is None, base
    # an empty base, or one canonicalize cannot read, is the page itself
    for base in ("", "  ", "http://user@cdn.x/", "http://exa mple.com/"):
        assert document_base(page, base) is page, base
    assert str(document_base(page, "../z/")) == "http://site.com/z/"


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


def test_unreachable_robots_disallows_the_whole_site(host_map, closed_port):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    # a 5xx robots.txt is unreachable (RFC 9309 section 2.3.1.4)
    busy = crawl_outlinks(SiteKey("busy.com"), policy, RULES, host_map=host_map)
    # so is a host that accepts no connection
    gone = crawl_outlinks(SiteKey("gone.com"), policy, RULES,
                          host_map={"gone.com": f"127.0.0.1:{closed_port}"})
    # a robots.txt that cannot be read has rules all the same
    shy = crawl_outlinks(SiteKey("shy.com"), policy, RULES, host_map=host_map)
    for result, site, status in ((busy, "busy.com", "503"), (gone, "gone.com", "error"),
                                 (shy, "shy.com", "200")):
        assert result.report.robots_blocked
        assert result.report.pages_fetched == 0
        assert len(result.links) == 0
        assert result.report.errors == []  # the failed probe is not a page error
        assert [(e.url, e.status) for e in result.report.log] == [
            (f"http://{site}/robots.txt", status),
            (f"http://{site}/", "robots"),
        ]


def test_robots_txt_group_naming_helixmap_applies(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("agent.com"), policy, RULES, host_map=host_map)
    assert not result.report.robots_blocked
    assert [(e.url, e.status) for e in result.report.log] == [
        ("http://agent.com/robots.txt", "200"),
        ("http://agent.com/", "200"),
        ("http://agent.com/x.html", "robots"),
    ]
    assert {record.key for record in result.links} == {("agent.com", "ext.org")}


def test_pages_are_read_in_their_declared_charset_else_utf8(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("intl.com"), policy, RULES, host_map=host_map)
    assert result.report.skipped_links == 0
    assert {record.target.value for record in result.links} == {
        "xn--bcher-kva.de", "xn--mnchen-3ya.de", "xn--kln-sna.de",
    }
    # a page in a charset with no text codec is a page error, not a guess
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://intl.com/bogus.html", "unknown charset 'x-no-such-codec'", 200),
        ("http://intl.com/b64.html", "unknown charset 'base64'", 200),
    ]
    assert result.report.pages_fetched == 3


def _requests(result) -> list[tuple[str, str]]:
    return [(e.url, e.status) for e in result.report.log if e.status != "robots"]


def test_redirects_are_logged_followed_and_recorded(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("hops.com"), policy, RULES, host_map=host_map)
    log = _requests(result)
    # a same-site hop is logged, then its target
    hop = log.index(("http://hops.com/old.html", "301"))
    assert log[hop + 1] == ("http://hops.com/new.html", "200")
    # an off-site redirect is itself an external link
    assert ("http://elsewhere.org/", "200") in log
    assert {record.key for record in result.links} == {("hops.com", "elsewhere.org")}
    assert next(iter(result.links)).provenance == frozenset({SourceTag.CRAWL})
    # a redirect without a Location, and a loop, are page errors with a cause
    # each carries the status of the last answer
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://hops.com/nowhere.html", "redirect without Location", 302),
        ("http://hops.com/loop.html", "too many redirects", 301),
    ]
    assert log.count(("http://hops.com/loop.html", "301")) == MAX_REDIRECT_HOPS + 1
    # "/", old.html and away.html were fetched; nowhere.html and loop.html failed
    assert result.report.pages_fetched == 3


def test_depth_and_page_caps(host_map):
    deep = CrawlPolicy(delay_per_host=0, timeout=5, max_depth=2)
    result = crawl_outlinks(SiteKey("chain.com"), deep, RULES, host_map=host_map)
    assert [url for url, _ in _requests(result)] == [
        "http://chain.com/robots.txt",
        "http://chain.com/",
        "http://chain.com/1.html",
        "http://chain.com/2.html",
    ]
    few = CrawlPolicy(delay_per_host=0, timeout=5, max_depth=9, max_pages_per_site=2)
    result = crawl_outlinks(SiteKey("chain.com"), few, RULES, host_map=host_map)
    assert result.report.pages_fetched == 2
    assert [url for url, _ in _requests(result)][1:] == [
        "http://chain.com/",
        "http://chain.com/1.html",
    ]


def test_failed_fetches_count_against_the_page_cap_but_not_as_fetched(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5, max_pages_per_site=3)
    result = crawl_outlinks(SiteKey("broken.com"), policy, RULES, host_map=host_map)
    assert _requests(result) == [
        ("http://broken.com/robots.txt", "404"),
        ("http://broken.com/", "200"),
        ("http://broken.com/ok.html", "200"),
        ("http://broken.com/missing.html", "404"),
    ]
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://broken.com/missing.html", "HTTP 404", 404),
    ]
    assert result.report.pages_fetched == 2


def test_requests_to_one_host_are_spaced_by_the_delay(host_map, monkeypatch):
    # stamp the log on the throttle's clock, so that a wall-clock step cannot
    # make correctly spaced requests look too close
    monkeypatch.setattr(crawler, "time", SimpleNamespace(
        time=time.monotonic, monotonic=time.monotonic, sleep=time.sleep))
    policy = CrawlPolicy(delay_per_host=0.05, timeout=5, max_depth=4)
    # the count is robots.txt and the pages, and ahead.com's redirect hop
    for site, requests in (("chain.com", 6), ("ahead.com", 10)):
        result = crawl_outlinks(SiteKey(site), policy, RULES, host_map=host_map)
        stamps = [e.timestamp for e in result.report.log if e.host == site and e.status != "robots"]
        assert len(stamps) == requests, site
        assert all(b - a >= 0.05 for a, b in zip(stamps, stamps[1:])), site


def test_a_page_past_the_byte_bound_is_a_page_error(host_map, monkeypatch):
    monkeypatch.setattr(crawler, "MAX_PAGE_BYTES", 999)
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("heavy.com"), policy, RULES, host_map=host_map)
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://heavy.com/big.html", "answer exceeds 999 bytes", 200),
    ]
    # the answer came, so the log has its status; the crawl goes on past it
    assert _requests(result) == [
        ("http://heavy.com/robots.txt", "404"),
        ("http://heavy.com/", "200"),
        ("http://heavy.com/big.html", "200"),
        ("http://heavy.com/after.html", "200"),
    ]
    assert result.report.pages_fetched == 2
    assert {record.key for record in result.links} == {("heavy.com", "after.org")}
    # a page of exactly the bound is read
    monkeypatch.setattr(crawler, "MAX_PAGE_BYTES", 1000)
    result = crawl_outlinks(SiteKey("heavy.com"), policy, RULES, host_map=host_map)
    assert result.report.errors == []
    assert result.report.pages_fetched == 3


def test_a_crawl_reduces_each_host_once(host_map, monkeypatch):
    calls = []
    real = crawler.reduce_host

    def counting(host, rules):
        calls.append(host)
        return real(host, rules)

    monkeypatch.setattr(crawler, "reduce_host", counting)
    policy = CrawlPolicy(delay_per_host=0, max_depth=5, timeout=5)
    result = crawl_outlinks(SiteKey("site.com"), policy, RULES, host_map=host_map)
    assert sorted(calls) == ["cdn.other.com", "other.org", "site.com", "third.org"]
    assert sum(len(extract_hrefs(body)) for body in PAGES.values()) > len(calls)
    # what the crawl found and asked for is that of a crawl reducing every link
    assert {record.key for record in result.links} == {
        ("site.com", "other.org"), ("site.com", "other.com"), ("site.com", "third.org"),
    }
    assert _requests(result) == [
        ("http://site.com/robots.txt", "404"),
        ("http://site.com/", "200"),
        ("http://site.com/a.html", "200"),
        ("http://site.com/b.html", "200"),
        ("http://site.com/c.html", "200"),
        ("http://site.com/d.html", "200"),
        ("http://site.com/based/", "200"),
    ]
    assert result.report.skipped_links == 0


def test_a_crawl_canonicalizes_each_distinct_href_once(host_map, monkeypatch):
    calls = []
    real = crawler.canonicalize

    def counting(raw, base=None):
        calls.append((raw, None if base is None else str(base)))
        return real(raw, base)

    monkeypatch.setattr(crawler, "canonicalize", counting)
    policy = CrawlPolicy(delay_per_host=0, max_depth=5, timeout=5)
    result = crawl_outlinks(SiteKey("repeat.com"), policy, RULES, host_map=host_map)
    # five pages of eight hrefs; no href is resolved twice against one base
    assert len(calls) < 5 * len(extract_hrefs(REPEATED_HREFS))
    assert len(calls) == len(set(calls))
    # the pages with a <base> resolve only it: their hrefs were resolved on
    # "/d/" already
    assert [call for call in calls if call[1] in ("http://repeat.com/b/",
                                                  "http://repeat.com/c/x.html")] == [
        ("/d/", "http://repeat.com/b/"),
        ("HTTP://Repeat.com:80/d/", "http://repeat.com/c/x.html"),
    ]
    # what the crawl found and asked for is that of a crawl resolving every href
    assert _requests(result) == [
        ("http://repeat.com/robots.txt", "404"),
        ("http://repeat.com/", "200"),
        ("http://repeat.com/y.html", "200"),
        ("http://repeat.com/d/", "200"),
        ("http://repeat.com/d/y.html", "200"),
        ("http://repeat.com/b/", "200"),
        ("http://repeat.com/c/x.html", "200"),
    ]
    assert {record.key for record in result.links} == {("repeat.com", "ext.org")}
    # each page's two mailto: links are skipped, each time they occur
    assert result.report.skipped_links == 10


def test_relative_hrefs_under_a_base_in_another_scheme_are_skipped_links(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("unfollowed.com"), policy, RULES, host_map=host_map)
    # no request for p.html, /q.html or s.html; the absolute hrefs are followed
    assert _requests(result) == [
        ("http://unfollowed.com/robots.txt", "404"),
        ("http://unfollowed.com/", "200"),
        ("http://unfollowed.com/r.html", "200"),
    ]
    assert {record.key for record in result.links} == {
        ("unfollowed.com", "other.org"), ("unfollowed.com", "third.org"),
    }
    assert result.report.skipped_links == 4
    assert result.report.errors == []


def test_a_host_ending_in_a_unicode_full_stop_is_its_host_without_it(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("dots.com"), policy, RULES, host_map=host_map)
    assert _requests(result) == [
        ("http://dots.com/robots.txt", "404"),
        ("http://dots.com/", "200"),
        ("http://dots.com/x.html", "200"),
    ]
    assert {record.key for record in result.links} == {
        ("dots.com", "ext.org"), ("dots.com", "other.org"),
    }
    assert result.report.skipped_links == 0


def test_a_page_html_parser_cannot_read_does_not_stop_the_crawl(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("marked.com"), policy, RULES, host_map=host_map)
    assert result.report.errors == []
    assert result.report.pages_fetched == 3
    assert {record.key for record in result.links} == {
        ("marked.com", "before.org"), ("marked.com", "after.org"),
    }


def test_a_crawl_records_each_linked_site_once(host_map, monkeypatch):
    added = []
    real = harvest.LinkSet.add

    def counting(self, source, target, tag, first_seen):
        added.append((source.value, target.value, tag, first_seen))
        return real(self, source, target, tag, first_seen)

    monkeypatch.setattr(harvest.LinkSet, "add", counting)
    policy = CrawlPolicy(delay_per_host=0, max_depth=5, timeout=5)
    for site, targets, requests, skipped in (
        ("mixed.com", ["ext.org", "elsewhere.org"], [
            ("http://mixed.com/robots.txt", "404"),
            ("http://mixed.com/", "200"),
            ("http://mixed.com/away.html", "302"),
            ("http://elsewhere.org/", "200"),
            ("http://mixed.com/p.html", "200"),
        ], 0),
        ("repeat.com", ["ext.org"], [
            ("http://repeat.com/robots.txt", "404"),
            ("http://repeat.com/", "200"),
            ("http://repeat.com/y.html", "200"),
            ("http://repeat.com/d/", "200"),
            ("http://repeat.com/d/y.html", "200"),
            ("http://repeat.com/b/", "200"),
            ("http://repeat.com/c/x.html", "200"),
        ], 10),
    ):
        added.clear()
        result = crawl_outlinks(SiteKey(site), policy, RULES, host_map=host_map, now=7)
        assert len(added) == len(result.links), site
        assert added == [(site, target, SourceTag.CRAWL, 7) for target in targets]
        # the sites in the order they were first linked to
        assert list(result.links) == [
            LinkRecord(SiteKey(site), SiteKey(target), frozenset({SourceTag.CRAWL}), 7)
            for target in targets
        ]
        assert _requests(result) == requests
        assert result.report.skipped_links == skipped


@pytest.mark.parametrize("now", [-1, 1.5, True])
def test_a_crawl_checks_now_before_its_first_request(host_map, monkeypatch, now):
    def no_fetcher(*args):
        pytest.fail("a Fetcher was made")

    monkeypatch.setattr(crawler, "Fetcher", no_fetcher)
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    with pytest.raises(ValueError, match="first_seen must be a non-negative int"):
        crawl_outlinks(SiteKey("site.com"), policy, RULES, host_map=host_map, now=now)


def test_a_body_cut_short_is_a_page_error(host_map):
    # shorter than STALL_SECONDS, so the stalled answer times out
    policy = CrawlPolicy(delay_per_host=0, timeout=0.5)
    result = crawl_outlinks(SiteKey("cut.com"), policy, RULES, host_map=host_map)
    # the transport failed, so no status; what came of the bodies is not read
    assert [(e.url, e.status) for e in result.report.errors] == [
        ("http://cut.com/short.html", None),
        ("http://cut.com/chunked.html", None),
        ("http://cut.com/stall.html", None),
    ]
    assert "timed out" in result.report.errors[-1].cause
    assert _requests(result) == [
        ("http://cut.com/robots.txt", "404"),
        ("http://cut.com/", "200"),
        ("http://cut.com/short.html", "error"),
        ("http://cut.com/chunked.html", "error"),
        ("http://cut.com/stall.html", "error"),
        ("http://cut.com/after.html", "200"),
    ]
    assert result.report.pages_fetched == 2
    assert {record.key for record in result.links} == {("cut.com", "after.org")}


def test_an_answer_in_a_content_coding_is_a_page_error(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("zipped.com"), policy, RULES, host_map=host_map)
    # asked for identity, sent gzip: recorded, never decoded or read as text
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://zipped.com/z.html", "answer in content coding 'gzip'", 200),
    ]
    assert ("http://zipped.com/z.html", "200") in _requests(result)
    assert result.report.pages_fetched == 2
    assert {record.key for record in result.links} == {("zipped.com", "after.org")}


def test_a_redirect_to_a_url_canonicalize_refuses_is_a_page_error(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("odd.com"), policy, RULES, host_map=host_map)
    # the error carries the status of the redirect
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://odd.com/mail.html", "unsupported scheme 'mailto' in 'mailto:x@y.org'", 302),
    ]
    # and the crawl goes on
    assert _requests(result)[-2:] == [("http://odd.com/mail.html", "302"),
                                      ("http://odd.com/after.html", "200")]
    assert result.report.pages_fetched == 4
    assert ("odd.com", "after.org") in {record.key for record in result.links}


def test_an_absolute_href_canonicalize_refuses_is_a_skipped_link(host_map):
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("odd.com"), policy, RULES, host_map=host_map)
    # http://exa mple.com/ is on "/" and on /a b/ü.html; each occurrence counts
    assert result.report.skipped_links == 2
    assert {record.target.value for record in result.links} == {"encoded.org", "after.org"}


class _HostRecorder(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.hosts.append(self.headers["Host"])
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass


def test_the_host_header_names_the_urls_authority():
    with _serving(_HostRecorder) as server:
        server.hosts = []
        address = f"127.0.0.1:{server.server_address[1]}"
        fetcher = Fetcher(CrawlPolicy(delay_per_host=0, timeout=5), HostThrottle(0),
                          CrawlReport(), host_map={"a.com": address, "::1": address})
        urls = ["http://a.com:8080/x", "http://a.com/x", "http://a.com:80/x",
                "http://[::1]:8443/x", "http://[::1]/x", f"http://{address}/x"]
        try:
            for url in urls:
                assert not isinstance(fetcher.fetch(canonicalize(url)), crawler.FetchError)
        finally:
            fetcher.close()
    # the port unless it is the default, an IPv6 host in brackets; mapped or not
    assert server.hosts == ["a.com:8080", "a.com", "a.com", "[::1]:8443", "[::1]", address]


@pytest.mark.parametrize("key", ["Park.TEST", "park.test.", "PARK.test\u3002", "[::1]", "::1"])
def test_a_host_map_key_is_read_by_the_one_host_rule(key):
    url = canonicalize("http://[::1]/x" if ":" in key else "http://park.test/x")
    with _serving(_HostRecorder) as server:
        server.hosts = []
        fetcher = Fetcher(CrawlPolicy(delay_per_host=0, timeout=5), HostThrottle(0), CrawlReport(),
                          host_map={key: f"127.0.0.1:{server.server_address[1]}"})
        try:
            # checked first, so that a key the map misses sends no request
            # to a name server
            assert url.host in fetcher.addresses
            assert not isinstance(fetcher.fetch(url), crawler.FetchError)
        finally:
            fetcher.close()
    assert server.hosts == [url.authority]


@pytest.mark.parametrize("key, address", [
    ("a b.test", "127.0.0.1:80"), ("", "127.0.0.1:80"), ("park.test:80", "127.0.0.1:80"),
    ("[park.test]", "127.0.0.1:80"), ("[::1]x", "127.0.0.1:80"), ("park.test", "user@127.0.0.1:80"),
    ("park.test", "[::1]junk:80"), ("park.test", "127.0.0.1:99999"), ("park.test", "127.0.0.1:x"),
    ("park.test", ""),
])
def test_a_host_map_entry_that_is_no_host_and_address_fails_before_any_request(
        key, address, monkeypatch):
    def no_request(*args):
        raise AssertionError("a request was made")

    monkeypatch.setattr(Fetcher, "_get", no_request)
    with pytest.raises(ValueError):
        crawl_outlinks(SiteKey("park.test"), CrawlPolicy(delay_per_host=0), RULES,
                       host_map={key: address})


def test_a_site_keyed_by_an_ipv6_literal_is_crawled(host_map):
    # the key reduce_host gives http://[::1]/; its requests name [::1] as
    # Host, and the host map's key [::1] is read as ::1
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(SiteKey("::1"), policy, RULES, host_map=host_map)
    assert result.report.errors == []
    assert _requests(result) == [
        ("http://[::1]/robots.txt", "404"),
        ("http://[::1]/", "200"),
        ("http://[::1]/x.html", "200"),
    ]
    assert {record.key for record in result.links} == {("::1", "ext.org")}


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Leaves each connection open for the next request (HTTP/1.1, with a
    Content-Length)."""

    protocol_version = "HTTP/1.1"
    pages = {
        "/": '<a href="/big.html">b</a> <a href="/after.html">a</a>',
        "/big.html": "x" * 1000,
        "/after.html": '<a href="/last.html">l</a>',
        "/last.html": "",
    }

    def do_GET(self):
        self.server.peers.append(self.client_address)
        body = self.pages.get(self.path)
        payload = (body or "").encode("utf-8")
        self.send_response(404 if body is None else 200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


def test_an_answer_left_half_read_does_not_carry_the_next_request(monkeypatch):
    # the read of the 1000-byte page stops at the bound, before its end; all
    # of it has come, so no unread byte on the socket shows the fetcher that
    # the connection is unusable
    monkeypatch.setattr(crawler, "MAX_PAGE_BYTES", 999)
    with _serving(_KeepAliveHandler) as server:
        server.peers = []
        policy = CrawlPolicy(delay_per_host=0, timeout=5)
        result = crawl_outlinks(SiteKey("kept.com"), policy, RULES,
                                host_map={"kept.com": f"127.0.0.1:{server.server_address[1]}"})
    assert [(e.url, e.cause, e.status) for e in result.report.errors] == [
        ("http://kept.com/big.html", "answer exceeds 999 bytes", 200),
    ]
    assert _requests(result) == [
        ("http://kept.com/robots.txt", "404"),
        ("http://kept.com/", "200"),
        ("http://kept.com/big.html", "200"),
        ("http://kept.com/after.html", "200"),
        ("http://kept.com/last.html", "200"),
    ]
    # answers read to their end share a connection; the half-read one's is
    # closed, and the next request opens another
    before, after = server.peers[:3], server.peers[3:]
    assert len(set(before)) == len(set(after)) == 1
    assert before[0] != after[0]


class _IdleClosingServer(ThreadingHTTPServer):
    """Closes each connection once its answer is sent, though the answer
    (HTTP/1.1, with a Content-Length) lets the client keep it open."""

    def __init__(self, *args):
        super().__init__(*args)
        self.closed = threading.Semaphore(0)  # released per closed connection
        self.peers = []

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


class _IdleClosingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        self.server.peers.append(self.client_address)
        body = {"/": b'<a href="/a.html">a</a>',
                "/a.html": b'<a href="http://after.org/">a</a>'}.get(self.path)
        self.send_response(404 if body is None else 200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body or b"")))
        self.end_headers()
        self.wfile.write(body or b"")
        self.close_connection = True

    def log_message(self, format, *args):
        pass


class _AfterEachClose(HostThrottle):
    """Lets each request after the first go only once the server has closed
    the connection of the one before."""

    def __init__(self, server):
        super().__init__(0)
        self.server = server
        self.requests = 0

    def wait(self, host):
        if self.requests:
            assert self.server.closed.acquire(timeout=5)
        self.requests += 1


def test_a_connection_the_server_closed_while_idle_is_opened_again():
    with _serving(_IdleClosingHandler, _IdleClosingServer) as server:
        policy = CrawlPolicy(delay_per_host=0, timeout=5)
        result = crawl_outlinks(SiteKey("idle.com"), policy, RULES,
                                host_map={"idle.com": f"127.0.0.1:{server.server_address[1]}"},
                                throttle=_AfterEachClose(server))
    assert result.report.errors == []
    assert _requests(result) == [
        ("http://idle.com/robots.txt", "404"),
        ("http://idle.com/", "200"),
        ("http://idle.com/a.html", "200"),
    ]
    assert {record.key for record in result.links} == {("idle.com", "after.org")}
    assert len(set(server.peers)) == 3  # a new connection for each request


def test_a_site_a_registry_writes_in_unicode_is_crawled(host_map, tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("site,actor_id,label,sector,category,role\n"
                    "park.co.uk,park,P,Government,SciencePark,\n"
                    "bücher.de,books,B,Industry,KnowledgeBasedFirm,\n", encoding="utf-8")
    [site] = load_registry(path).get("books").sites
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    result = crawl_outlinks(site, policy, RULES, host_map=host_map)
    # the key is the host a link to the site reduces to, so its home page is
    # not taken for a redirect off the site
    assert result.report.pages_fetched == 2
    assert {record.key for record in result.links} == {("xn--bcher-kva.de", "ext.org")}


# how long each answer is held back
HOLD_SECONDS = 0.02


class _RecordingServer(ThreadingHTTPServer):
    """Records the requests it reads, and how many it held unanswered at once."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lock = threading.Lock()
        self.requests = []  # (Host, path, peer) of each request, in the order read
        self.unanswered = 0
        self.most_unanswered = 0
        self.early = 0  # requests sent on a connection before its last one was answered
        self.dropped = []  # paths of the requests whose connection closed unanswered
        # paths whose next request is read and its connection then closed
        # unanswered, though the answers before it left the connection open
        self.hang_up = set()


class _RecordingHandler(_Handler):
    """Serves what ``_Handler`` serves over kept-alive connections, holding
    each answer back until a request sent too early or the client's close
    would show."""

    protocol_version = "HTTP/1.1"
    rbufsize = 0  # read no byte past a request: one sent early stays on the socket
    wbufsize = -1  # each answer goes out in one write, once do_GET returns

    def do_GET(self):
        server = self.server
        with server.lock:
            server.requests.append((self.headers["Host"], self.path, self.client_address))
            if self.path in server.hang_up:
                server.hang_up.discard(self.path)
                self.close_connection = True
                return
            server.unanswered += 1
            server.most_unanswered = max(server.most_unanswered, server.unanswered)
        held = select.select([self.connection], [], [], HOLD_SECONDS)[0]
        try:
            closed = bool(held) and not self.connection.recv(1, socket.MSG_PEEK)
        except ConnectionError:
            closed = True
        with server.lock:
            # counted as answered before any byte of the answer leaves
            server.unanswered -= 1
            if closed:
                server.dropped.append(self.path)
            elif held:
                server.early += 1
        if closed:
            self.close_connection = True
            return
        super().do_GET()


def _recorded(server) -> dict[str, str]:
    return {"ahead.com": f"127.0.0.1:{server.server_address[1]}"}


def test_a_crawl_sends_one_request_at_a_time_in_the_order_of_its_queue():
    # the cap stops the crawl with /b.html, /private/q.html and /d.html queued
    policy = CrawlPolicy(delay_per_host=0, timeout=5, max_depth=5, max_pages_per_site=6)
    with _serving(_RecordingHandler, _RecordingServer) as server:
        result = crawl_outlinks(SiteKey("ahead.com"), policy, RULES,
                                host_map=_recorded(server), now=7)
    assert server.most_unanswered == 1
    assert server.early == 0
    assert server.dropped == []
    assert [path for _, path, _ in server.requests] == [
        "/robots.txt", "/", "/a.html", "/old.html", "/new.html",
        "/missing.html", "/doc.txt", "/c.html"]
    report = result.report
    assert [(e.host, e.url, e.status) for e in report.log] == [
        ("ahead.com", "http://ahead.com/robots.txt", "200"),
        ("ahead.com", "http://ahead.com/", "200"),
        ("ahead.com", "http://ahead.com/a.html", "200"),
        ("ahead.com", "http://ahead.com/old.html", "301"),
        ("ahead.com", "http://ahead.com/new.html", "200"),
        ("ahead.com", "http://ahead.com/private/p.html", "robots"),
        ("ahead.com", "http://ahead.com/missing.html", "404"),
        ("ahead.com", "http://ahead.com/doc.txt", "200"),
        ("ahead.com", "http://ahead.com/c.html", "200"),
    ]
    assert report.pages_fetched == 5
    assert [(e.url, e.status) for e in report.errors] == [("http://ahead.com/missing.html", 404)]
    assert report.skipped_links == 1  # the mailto: link
    assert [record.target.value for record in result.links] == ["ext.org", "other.org"]


def test_a_fetch_from_a_closed_port_is_a_page_error(closed_port):
    report = CrawlReport()
    fetcher = Fetcher(CrawlPolicy(delay_per_host=0, timeout=5), HostThrottle(0), report,
                      host_map={"gone.com": f"127.0.0.1:{closed_port}"})
    try:
        fetched = fetcher.fetch(canonicalize("http://gone.com/x.html"))
    finally:
        fetcher.close()
    assert (fetched.url, fetched.status) == ("http://gone.com/x.html", None)
    assert [(e.host, e.url, e.status) for e in report.log] == [
        ("gone.com", "http://gone.com/x.html", "error")]


def test_a_crawl_whose_scan_raises_with_a_connection_open_closes_its_sockets(monkeypatch):
    real = crawler.extract_hrefs

    def failing(html):
        if html == SITES["ahead.com"]["/a.html"]:
            raise RuntimeError("scan failed")
        return real(html)

    monkeypatch.setattr(crawler, "extract_hrefs", failing)
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with _serving(_RecordingHandler, _RecordingServer) as server:
            # /a.html's answer is read to its end, so its connection is
            # kept open for the next request when the scan raises
            with pytest.raises(RuntimeError, match="scan failed"):
                crawl_outlinks(SiteKey("ahead.com"), policy, RULES, host_map=_recorded(server))
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert [path for _, path, _ in server.requests][-1] == "/a.html"
    assert server.dropped == []


def test_a_request_target_is_percent_encoded():
    policy = CrawlPolicy(delay_per_host=0, timeout=5)
    with _serving(_RecordingHandler, _RecordingServer) as server:
        result = crawl_outlinks(SiteKey("odd.com"), policy, RULES,
                                host_map={"odd.com": f"127.0.0.1:{server.server_address[1]}"})
    # the space and the ü as UTF-8 octets, and a "%" that starts no
    # percent-encoding; the log keeps each URL as canonicalize gives it
    assert [path for _, path, _ in server.requests] == [
        "/robots.txt", "/", "/a%20b/%C3%BC.html", "/100%25.html", "/mail.html", "/after.html",
    ]
    assert _requests(result)[2:4] == [("http://odd.com/a b/ü.html", "200"),
                                      ("http://odd.com/100%.html", "200")]
    assert ("odd.com", "encoded.org") in {record.key for record in result.links}


class _CountingThrottle(HostThrottle):
    """A throttle without delay that counts the slots it gives."""

    def __init__(self):
        super().__init__(0)
        self.slots = 0

    def wait(self, host):
        self.slots += 1
        super().wait(host)


def test_a_request_on_a_kept_alive_connection_the_server_then_closes_is_sent_again():
    # the server answers /a.html with a Content-Length and no "Connection:
    # close", so the connection is kept alive; it reads /old.html, the next
    # request on that connection, and closes it without answering
    policy = CrawlPolicy(delay_per_host=0, timeout=5, max_depth=5, max_pages_per_site=6)
    throttle = _CountingThrottle()
    with _serving(_RecordingHandler, _RecordingServer) as server:
        server.hang_up.add("/old.html")
        result = crawl_outlinks(SiteKey("ahead.com"), policy, RULES,
                                host_map=_recorded(server), throttle=throttle, now=7)
    requests = [(path, peer) for _, path, peer in server.requests]
    assert [path for path, _ in requests] == [
        "/robots.txt", "/", "/a.html", "/old.html", "/old.html", "/new.html",
        "/missing.html", "/doc.txt", "/c.html"]
    # the GET goes again on a new connection, which carries the rest
    peers = [peer for _, peer in requests]
    assert len(set(peers[:4])) == len(set(peers[4:])) == 1
    assert peers[3] != peers[4]
    # it waited for its slot, and both sends are logged
    assert throttle.slots == len(requests)
    assert _requests(result)[3:6] == [("http://ahead.com/old.html", "error"),
                                      ("http://ahead.com/old.html", "301"),
                                      ("http://ahead.com/new.html", "200")]
    report = result.report
    assert [(e.url, e.status) for e in report.errors] == [("http://ahead.com/missing.html", 404)]
    assert report.pages_fetched == 5
    assert [record.target.value for record in result.links] == ["ext.org", "other.org"]


def test_a_request_on_a_new_connection_the_server_closes_unanswered_is_not_sent_again():
    throttle = _CountingThrottle()
    with _serving(_RecordingHandler, _RecordingServer) as server:
        server.hang_up.add("/c.html")
        report = CrawlReport()
        fetcher = Fetcher(CrawlPolicy(delay_per_host=0, timeout=5), throttle, report,
                          host_map=_recorded(server))
        try:
            fetched = fetcher.fetch(canonicalize("http://ahead.com/c.html"))
        finally:
            fetcher.close()
    assert (fetched.url, fetched.status) == ("http://ahead.com/c.html", None)
    assert "without response" in fetched.cause
    assert [(e.url, e.status) for e in report.log] == [("http://ahead.com/c.html", "error")]
    assert [path for _, path, _ in server.requests] == ["/c.html"]
    assert throttle.slots == 1
