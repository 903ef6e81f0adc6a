"""Polite breadth-first crawler that collects a site's external outlinks.

The crawler walks pages under one actor site and records hyperlinks that
point at *other* sites, reduced to site keys. Only static ``a[href]`` and
``area[href]`` links are extracted; script-injected links are invisible
to it, which matches the behaviour of the desk-scale crawlers this kind
of study relies on.

Politeness contract: consecutive requests to one host are spaced by at
least the configured delay, robots.txt is honoured as RFC 9309 says
(including a full-site exclusion, and complete disallow while robots.txt
is unreachable), redirects are followed up to 5 hops with the final URL
deciding the site key, and per-page failures never abort a crawl.

A host map ("host -> address:port") lets fixtures and mirrors serve a
logical hostname from a local address, exactly like a hosts-file entry.
It is the one supported way to redirect a crawl: pages are fetched over
one urllib3 connection pool per crawl, which reads no proxy variable and
no ``~/.netrc``, and every transport failure (``urllib3``'s
``HTTPError``s) is a recorded page error.
"""

from __future__ import annotations

import logging
import time
import urllib.robotparser
from collections import deque
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit, urlunsplit

import urllib3

from . import __version__
from .harvest import (
    HTTP_HEADERS,
    BodyTooLarge,
    Direction,
    LinkRecord,
    LinkSet,
    SourceTag,
    body_charset,
    http_get,
    read_chunks,
)
from .urls import (
    CanonicalUrl,
    MalformedUrl,
    ReductionRules,
    SiteKey,
    UnsupportedScheme,
    canonicalize,
    reduce_host,
)

log = logging.getLogger(__name__)

MAX_REDIRECT_HOPS = 5
# the most a page body may hold once decoded; a larger page is a page error
MAX_PAGE_BYTES = 8 * 2**20


@dataclass(frozen=True)
class CrawlPolicy:
    max_pages_per_site: int = 500
    max_depth: int = 3
    delay_per_host: float = 1.0
    timeout: float = 10.0
    user_agent: str = f"helixmap/{__version__}"

    def __post_init__(self):
        if self.max_pages_per_site < 1:
            raise ValueError("max_pages_per_site must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.delay_per_host < 0 or self.timeout <= 0:
            raise ValueError("delay_per_host must be >= 0 and timeout > 0")


@dataclass
class CrawlLogEntry:
    timestamp: float
    host: str
    url: str
    status: str


@dataclass
class FetchError:
    url: str
    cause: str
    status: int | None  # of the last answer; None when none came


@dataclass
class CrawlReport:
    pages_fetched: int = 0
    errors: list[FetchError] = field(default_factory=list)
    robots_blocked: bool = False
    skipped_links: int = 0
    log: list[CrawlLogEntry] = field(default_factory=list)


@dataclass
class CrawlResult:
    links: LinkSet
    report: CrawlReport


class HostThrottle:
    """Spaces consecutive requests to one host by at least ``delay`` seconds.

    Crawls run one at a time; a throttle is not shared between threads.
    """

    def __init__(self, delay: float):
        self.delay = delay
        self._next_allowed: dict[str, float] = {}

    def wait(self, host: str) -> None:
        """Sleep until the host's next slot, then book the one after it."""
        pause = self._next_allowed.get(host, 0.0) - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        self._next_allowed[host] = time.monotonic() + self.delay


class _LinkCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []
        self.base: str | None = None

    def handle_starttag(self, tag, attrs):
        if tag in ("a", "area"):
            for name, value in attrs:
                if name == "href" and value:
                    self.hrefs.append(value)
        elif tag == "base" and self.base is None:
            for name, value in attrs:
                if name == "href" and value is not None:
                    self.base = value


def _join(base: str, href: str) -> str:
    try:
        return urljoin(base, href.strip())
    except ValueError:
        return href  # unparseable: left for canonicalize to reject


def extract_hrefs(html: str, url: str = "") -> list[str]:
    """All a[href] / area[href] values in document order.

    When the document has a ``<base href>``, the first one is resolved
    against ``url`` (the document's own URL) and every href against it, as
    a browser does; otherwise the values are returned as written.
    """
    collector = _LinkCollector()
    collector.feed(html)
    if collector.base is None:
        return collector.hrefs
    base = _join(url, collector.base)
    return [_join(base, href) for href in collector.hrefs]


class Fetcher:
    """HTTP fetcher with manual redirect handling and host-map support,
    over one connection pool that never retries."""

    def __init__(
        self,
        policy: CrawlPolicy,
        throttle: HostThrottle,
        report: CrawlReport,
        host_map: dict[str, str] | None = None,
    ):
        self.policy = policy
        self.throttle = throttle
        self.report = report
        self.host_map = host_map or {}
        self.pool = urllib3.PoolManager(retries=False)

    def _transport_url(self, url: CanonicalUrl) -> tuple[str, dict[str, str]]:
        headers = {"User-Agent": self.policy.user_agent, **HTTP_HEADERS}
        address = self.host_map.get(url.host)
        if address is None:
            return str(url), headers
        split = urlsplit(str(url))
        headers["Host"] = url.host
        return urlunsplit((split.scheme, address, split.path, split.query, "")), headers

    def _log(self, sent: float, url: CanonicalUrl, status: str) -> None:
        self.report.log.append(CrawlLogEntry(sent, url.host, str(url), status))

    def fetch(self, url: CanonicalUrl) -> tuple[CanonicalUrl, str, str] | FetchError:
        """GET one page: (final_url, content_type, body), or why it failed.

        Follows up to MAX_REDIRECT_HOPS redirects; every hop is throttled
        and logged against its own host, stamped with the time it was sent.
        Every answer's body is read, up to MAX_PAGE_BYTES; the page's is
        decoded in the charset ``body_charset`` picks.
        """
        current = url
        for _ in range(MAX_REDIRECT_HOPS + 1):
            self.throttle.wait(current.host)
            sent = time.time()
            transport, headers = self._transport_url(current)
            try:
                with http_get(self.pool, transport, headers=headers,
                              timeout=self.policy.timeout, redirect=False) as response:
                    body = b"".join(read_chunks(response, MAX_PAGE_BYTES))
            except BodyTooLarge as exc:
                self._log(sent, current, str(response.status))
                return FetchError(str(current), str(exc), response.status)
            except urllib3.exceptions.HTTPError as exc:
                self._log(sent, current, "error")
                return FetchError(str(current), str(exc), None)
            status = response.status
            self._log(sent, current, str(status))
            if status in (301, 302, 303, 307, 308):
                location = response.headers.get("Location")
                if not location:
                    return FetchError(str(current), "redirect without Location", status)
                try:
                    current = canonicalize(location, base=current)
                except (MalformedUrl, UnsupportedScheme) as exc:
                    return FetchError(str(current), str(exc), status)
                continue
            if status != 200:
                return FetchError(str(current), f"HTTP {status}", status)
            content_type = response.headers.get("Content-Type", "")
            try:
                charset = body_charset(content_type)
            except LookupError as exc:
                return FetchError(str(current), str(exc), status)
            return current, content_type, body.decode(charset, "replace")
        return FetchError(str(url), "too many redirects", status)


def _load_robots(entry: CanonicalUrl, fetcher: Fetcher) -> urllib.robotparser.RobotFileParser:
    """The entry host's robots.txt rules, per RFC 9309 §2.3.1.

    A file that is unavailable (a 4xx, or redirects that lead nowhere)
    allows everything. A file that is unreachable (a 5xx, or no answer
    from the host), or one in an unknown charset, means complete disallow.
    """
    parser = urllib.robotparser.RobotFileParser()
    robots_url = CanonicalUrl(scheme=entry.scheme, host=entry.host,
                              port=entry.port, path="/robots.txt")
    fetched = fetcher.fetch(robots_url)
    if not isinstance(fetched, FetchError):
        parser.parse(fetched[2].splitlines())
    elif fetched.status is not None and 300 <= fetched.status < 500:
        parser.parse([])
    else:
        parser.disallow_all = True
    return parser


def crawl_outlinks(
    site: SiteKey,
    policy: CrawlPolicy,
    rules: ReductionRules,
    host_map: dict[str, str] | None = None,
    throttle: HostThrottle | None = None,
    now: int | None = None,
) -> CrawlResult:
    """Crawl one actor site and collect its external outlinks as a LinkSet.

    External means the target reduces to a different site key than the
    crawled site; same-site links only feed the frontier. The returned
    report carries per-page errors, the robots verdict, and the request
    log used for politeness auditing. Each distinct host is reduced to its
    site key once per crawl, and the crawl's connections are closed when
    it returns.
    """
    if now is None:
        now = int(time.time())
    report = CrawlReport()
    links = LinkSet(Direction.OUTLINKS)
    throttle = throttle or HostThrottle(policy.delay_per_host)
    fetcher = Fetcher(policy, throttle, report, host_map)
    tags = frozenset({SourceTag.CRAWL})
    site_of: dict[str, SiteKey] = {}  # host -> its site key: each host is reduced once

    def reduced(host: str) -> SiteKey:
        key = site_of.get(host)
        if key is None:
            key = site_of[host] = reduce_host(host, rules).site
        return key

    try:
        entry = canonicalize(f"http://{site.value}/")
        robots = _load_robots(entry, fetcher)
        queue: deque[tuple[CanonicalUrl, int]] = deque([(entry, 0)])
        seen: set[str] = {str(entry)}

        attempts = 0  # the page cap bounds requests, failed ones included
        while queue and attempts < policy.max_pages_per_site:
            url, depth = queue.popleft()
            if not robots.can_fetch(policy.user_agent, str(url)):
                report.log.append(CrawlLogEntry(time.time(), url.host, str(url), "robots"))
                if url == entry:
                    report.robots_blocked = True
                continue
            attempts += 1
            fetched = fetcher.fetch(url)
            if isinstance(fetched, FetchError):
                report.errors.append(fetched)
                continue
            report.pages_fetched += 1
            final_url, content_type, body = fetched

            final_site = reduced(final_url.host)
            if final_site != site:
                # a redirector leaving the site is itself an external link
                links.add(LinkRecord(source=site, target=final_site, provenance=tags,
                                     first_seen=now))
                continue
            if "html" not in content_type.lower():
                continue

            for href in extract_hrefs(body, str(final_url)):
                try:
                    resolved = canonicalize(href, base=final_url)
                except (MalformedUrl, UnsupportedScheme):
                    report.skipped_links += 1
                    continue
                target_site = reduced(resolved.host)
                if target_site == site:
                    if depth + 1 <= policy.max_depth and str(resolved) not in seen:
                        seen.add(str(resolved))
                        queue.append((resolved, depth + 1))
                else:
                    links.add(LinkRecord(source=site, target=target_site, provenance=tags,
                                         first_seen=now))
    finally:
        fetcher.pool.clear()
    return CrawlResult(links=links, report=report)
