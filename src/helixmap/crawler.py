"""Polite breadth-first crawler that collects a site's external outlinks.

The crawler walks pages under one actor site and records hyperlinks that
point at *other* sites, reduced to site keys. Only static ``a[href]`` and
``area[href]`` links are extracted; script-injected links are invisible
to it, which matches the behaviour of the desk-scale crawlers this kind
of study relies on.

Links are found by one compiled pattern that scans each page once, left to
right. It recognises comments, ``<![CDATA[...]]>`` sections, ``<!...>``
declarations (the doctype among them), ``<?...>`` processing
instructions, end tags, the raw text of ``script`` and ``style``, and start
tags whose attribute values are double-quoted, single-quoted or bare; a
``>`` inside a quoted value does not end a tag. A construct left unclosed
ends the scan, so the scan's time grows linearly with the page; so does a
start tag holding more than 1,000 attribute values, which bounds the
memory one tag can take. A tag that repeats ``href`` is read by its first,
as the HTML tokenizer drops a repeated attribute; otherwise, on well-formed
markup, the scanner finds what the standard library's ``html.parser``
finds. ``<![ foo``, on which ``html.parser`` raises, is read as a
declaration.

Politeness contract: consecutive requests to one host are spaced by at
least the configured delay, robots.txt is honoured as RFC 9309 says
(including a full-site exclusion, and complete disallow while robots.txt
is unreachable), redirects are followed up to 5 hops with the final URL
deciding the site key, and per-page failures never abort a crawl. A crawl
has at most one request in flight: once a page's answer is read, and
before the page is scanned, the request for the next page in the queue is
sent (after its host's delay, as every request is), so the server answers
it while the crawl resolves this page's links.
Requests go in the order of a crawl that sends each one only after the
page before is scanned, since a page's links join the queue at its end.

A host map ("host -> address:port") lets fixtures and mirrors serve a
logical hostname from a local address, exactly like a hosts-file entry:
the request goes to the address and still names the logical host and port
in its ``Host`` header. It is the one supported way to redirect a crawl:
pages are fetched with the standard library's ``http.client`` by one
``Fetcher`` per crawl, which keeps a connection per origin and reads no
proxy variable and no ``~/.netrc``. Every transport failure (an
``OSError`` or an ``http.client.HTTPException``, a body cut short among
them) is a recorded page error, and so is a body in a content coding.
"""

from __future__ import annotations

import email.message
import http.client
import logging
import re
import select
import socket
import time
import urllib.robotparser
import weakref
from collections import deque
from dataclasses import dataclass, field
from html import unescape
from urllib.parse import urlsplit

from . import __version__
from .harvest import Direction, LinkRecord, LinkSet, SourceTag
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

# the most a page body may hold; a larger page is a page error
MAX_PAGE_BYTES = 8 * 2**20
# the most redirects one fetch follows
MAX_REDIRECT_HOPS = 5
# statuses whose Location a fetch follows
REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})
# the name every request gives, which robots.txt groups are matched against
USER_AGENT = f"helixmap/{__version__}"
# the headers of every request besides Host; a body in any content coding
# but identity is refused, so no decoder ever runs on an answer
HTTP_HEADERS = {"User-Agent": USER_AGENT, "Accept": "*/*",
                "Accept-Encoding": "identity", "Connection": "keep-alive"}
_READ_CHUNK = 2**16
# a character a request target may not hold as it is: outside RFC 3986's
# unreserved, sub-delims, ":", "@", "/" and "?", or a "%" that starts no
# percent-encoding
_UNSAFE_IN_TARGET = re.compile(r"[^A-Za-z0-9\-._~!$&'()*+,;=:@/?%]|%(?![0-9A-Fa-f]{2})")


@dataclass(frozen=True)
class CrawlPolicy:
    max_pages_per_site: int = 500
    max_depth: int = 3
    delay_per_host: float = 1.0
    timeout: float = 10.0

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

    A fetcher waits for a slot before every request it sends, a request sent
    ahead of its page's fetch included. Crawls run one at a time; a
    throttle is not shared between threads.
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


# one attribute value as html.parser reads it: after one or more "=", a
# quoted value (which may hold ">") or a bare one up to white space or ">"
_VALUE = r"""=+\s*(?:"[^"]*"|'[^']*'|(?!["'])[^\s>]*)"""
# the most attribute values one tag may hold: the regex engine keeps a frame
# for each repetition, so an unbounded run of values on a hostile page would
# take memory in proportion to the page; a longer tag is taken as unclosed
_MAX_VALUES = 1000
# what ends a tag name, as html.parser reads it
_NAME_END = r"(?=[\t\n\r\f />])"

# One token of markup, starting at "<". Only an a, area or base start tag
# sets the "attrs" group: the text between its name and its ">". A tag's
# attribute text is taken whole by a lookahead and a backreference, which
# nothing can backtrack into, and a construct left unclosed runs to the end
# of the page, so the scan never looks again from a later "<" for an end
# it has not found.
_SCAN = re.compile(
    rf"""<(?:
        # an a, area or base start tag
        (?:(?P<base>[bB][aA][sS][eE])|[aA](?:[rR][eE][aA])?){_NAME_END}
        (?=(?P<attrs>[^>=]*(?:{_VALUE}[^>=]*){{0,{_MAX_VALUES}}}))(?P=attrs)>
      | # a script or style start tag that "/>" does not close (a "/" that
        # ends a bare value is the value's), then its raw text and end tag
        (?i:(?P<raw>script|style)){_NAME_END}
        (?=(?P<head>(?:[^>=]*{_VALUE}){{0,{_MAX_VALUES}}})(?P<tail>(?:[^>=]*[^>=/])?))
        (?P=head)(?P=tail)>(?:.*?</\s*(?i:(?P=raw))\s*>|.*)
      | !--(?:.*?--\s*>|.*)              # a comment
      | !\[(?i:cdata)\[(?:.*?\]\]>|.*)   # a CDATA section
      | [!?/][^>]*>?                     # a declaration, processing instruction or end tag
      | [a-zA-Z]                         # any other start tag
        (?=(?P<tag>[^\t\n\r\f />\x00]*[^>=]*(?:{_VALUE}[^>=]*){{0,{_MAX_VALUES}}}))(?P=tag)>
      | [a-zA-Z].*                       # a start tag left unclosed
    )""",
    re.DOTALL | re.VERBOSE,
)
# one attribute of a start tag: its name, and "=" with its value if it has one
_ATTRIBUTE = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?"""
)


def _href_value(attrs: str) -> str | None:
    """The value of the first href attribute in a start tag's attribute
    text, unquoted and with character references replaced: "" for an href
    written without a value, None when the tag has no href."""
    for attribute in _ATTRIBUTE.finditer(attrs):
        name, _, value = attribute.groups("")
        if name.lower() == "href":
            if value[:1] in ("'", '"'):
                value = value[1:-1]
            return unescape(value)
    return None


def _canonical(raw: str, base: CanonicalUrl | None = None) -> CanonicalUrl | None:
    try:
        return canonicalize(raw, base)
    except (MalformedUrl, UnsupportedScheme):
        return None


def extract_hrefs(html: str, url: str = "") -> list[str]:
    """All a[href] / area[href] values in document order.

    When the document has a ``<base href>``, the first one is resolved
    against ``url`` (the document's own URL), and every href against it, by
    ``canonicalize``: the RFC 3986 resolution a crawl gives an href on a
    page without a base. Those hrefs are returned as canonical URL text, or
    as written when canonicalize rejects them. Without a base, or with one
    that canonicalize rejects, the values are returned as written. A tag
    that repeats ``href`` gives its first value only, as the HTML tokenizer
    drops a repeated attribute; an empty href gives no link.
    """
    hrefs: list[str] = []
    base: str | None = None
    for token in _SCAN.finditer(html):
        attrs = token["attrs"]
        if attrs is None:
            continue
        href = _href_value(attrs)
        if token["base"] is None:
            if href:
                hrefs.append(href)
        elif base is None:
            base = href
    if base is None:
        return hrefs
    # an empty base is the document itself, though canonicalize, which reads
    # an empty href as no link, refuses it
    base_url = _canonical(base, _canonical(url)) if base.strip() else _canonical(url)
    if base_url is None:
        return hrefs
    return [str(resolved) if (resolved := _canonical(href, base_url)) else href
            for href in hrefs]


def body_charset(content_type: str) -> str:
    """The charset a ``Content-Type`` declares, else UTF-8 (not the
    ISO-8859-1 that RFC 2616 gave text/*); ``LookupError`` when it names no
    text codec."""
    header = email.message.Message()
    header["Content-Type"] = content_type
    charset = header.get_content_charset("utf-8")
    try:
        b"\n".decode(charset, "replace")  # bytes-to-bytes codecs raise LookupError
    except (LookupError, UnicodeError):
        raise LookupError(f"unknown charset {charset!r}") from None
    return charset


class UnreadableBody(Exception):
    """An answer went on past ``MAX_PAGE_BYTES``, or came in a content
    coding."""


def _percent_encoded(match: re.Match) -> str:
    return "".join(f"%{byte:02X}" for byte in match[0].encode("utf-8", "surrogatepass"))


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket has something to read: the server
    closed it, or sent what no request asked for. Either way it cannot
    carry the next request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(connections: dict) -> None:
    for connection in connections.values():
        connection.close()
    connections.clear()


def _body(response: http.client.HTTPResponse) -> bytes:
    """The whole body of ``response``, which is closed once it is read:
    ``UnreadableBody`` for one in a content coding or of more than
    ``MAX_PAGE_BYTES``, ``http.client.HTTPException`` for one cut short."""
    coding = response.getheader("Content-Encoding", "").strip().lower()
    if coding not in ("", "identity"):
        raise UnreadableBody(f"answer in content coding {coding!r}")
    bound = MAX_PAGE_BYTES
    chunks = []
    received = 0
    while chunk := response.read1(_READ_CHUNK):
        received += len(chunk)
        if received > bound:
            raise UnreadableBody(f"answer exceeds {bound} bytes")
        chunks.append(chunk)
    # read1 ends a body cut short of its Content-Length without raising
    if response.length:
        raise http.client.HTTPException(
            f"answer ends {response.length} bytes short of its Content-Length")
    # nor does it close an answer read to the end, which the connection's
    # next request needs
    response.close()
    return b"".join(chunks)


class Fetcher:
    """HTTP fetcher with manual redirect handling and host-map support.

    GETs go over one keep-alive ``http.client`` connection per origin
    (scheme, address, port), open until ``close``. A request is sent once:
    no retry, and no proxy variable or ``~/.netrc`` is read. HTTPS is
    verified with the default ``ssl`` context. ``policy.timeout`` bounds
    each socket operation. A connection carries the next request only after
    its answer was read to the end; one that the server closed while it was
    idle is opened again first.

    A fetch either sends its first request or reads the answer to the one
    sent ahead for its URL by ``_send_ahead``, which the crawl calls before
    it scans a page, so that the server's work and the crawl's overlap. At
    most one request is sent ahead. It waits for its host's slot as any
    request does, the fetch that reads its answer logs it, and ``close``
    closes its connection with the rest.
    """

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
        # host -> the (address, port) its requests go to; None is the
        # scheme's default port
        self.addresses: dict[str, tuple[str, int | None]] = {}
        for host, address in (host_map or {}).items():
            split = urlsplit(f"//{address}")
            self.addresses[host] = (split.hostname, split.port)
        self._connections: dict[tuple[str, str, int], http.client.HTTPConnection] = {}
        # the request sent ahead of its fetch: (URL, time sent, connection,
        # the error that stopped its send or None)
        self._ahead: tuple[CanonicalUrl, float, http.client.HTTPConnection,
                           Exception | None] | None = None
        # an unclosed fetcher closes its connections when it is collected
        self._finalizer = weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection."""
        self._finalizer()

    def _connection(self, url: CanonicalUrl) -> http.client.HTTPConnection:
        """The connection to ``url``'s origin, at its mapped address if the
        host map has one."""
        host, port = self.addresses.get(url.host) or (url.host, url.port)
        if port is None:
            port = http.client.HTTPS_PORT if url.scheme == "https" else http.client.HTTP_PORT
        origin = (url.scheme, host, port)
        connection = self._connections.get(origin)
        if connection is None:
            kind = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
            connection = self._connections[origin] = kind(host, port, timeout=self.policy.timeout)
        elif connection.sock is not None and _dropped(connection.sock):
            connection.close()  # the request opens it again
        return connection

    def _log(self, sent: float, url: CanonicalUrl, status: str) -> None:
        self.report.log.append(CrawlLogEntry(sent, url.host, str(url), status))

    def _send(self, url: CanonicalUrl) -> tuple[float, http.client.HTTPConnection, Exception | None]:
        """Wait for the slot of ``url``'s host, then send its GET: the time
        it was sent, the connection it went over, and the transport error
        that stopped it, if one did."""
        self.throttle.wait(url.host)
        sent = time.time()
        connection = self._connection(url)
        target = url.path if url.query is None else f"{url.path}?{url.query}"
        try:
            connection.request("GET", _UNSAFE_IN_TARGET.sub(_percent_encoded, target),
                               headers={**HTTP_HEADERS, "Host": url.authority})
        except (OSError, http.client.HTTPException) as exc:
            return sent, connection, exc
        return sent, connection, None

    def _send_ahead(self, url: CanonicalUrl) -> None:
        """Send the GET of ``url`` now, so that the server answers it while
        the caller works; the next ``fetch`` of ``url`` reads the answer."""
        self._ahead = (url, *self._send(url))

    def fetch(self, url: CanonicalUrl) -> tuple[CanonicalUrl, str, str] | FetchError:
        """GET one page: (final_url, content_type, body), or why it failed.

        Follows up to MAX_REDIRECT_HOPS redirects; every hop is throttled
        and logged against its own host, stamped with the time it was sent.
        Every request carries ``HTTP_HEADERS`` and the URL's authority as
        ``Host``. Every answer's body is read, up to MAX_PAGE_BYTES; the
        page's is decoded in the charset ``body_charset`` picks. An answer
        left half-read is closed with its connection, so the rest of its
        body can never be taken for the start of the next answer.

        The first request is the one sent ahead for ``url``, if there is
        one; a request sent ahead for another URL is closed with its
        connection, its answer unread.
        """
        ahead, self._ahead = self._ahead, None
        if ahead is not None and ahead[0] != url:
            ahead[2].close()
            ahead = None
        current = url
        for _ in range(MAX_REDIRECT_HOPS + 1):
            sent, connection, error = self._send(current) if ahead is None else ahead[1:]
            ahead = None
            response = None
            try:
                if error is not None:
                    raise error
                response = connection.getresponse()
                status = response.status
                body = _body(response)
            except UnreadableBody as exc:
                self._log(sent, current, str(status))
                return FetchError(str(current), str(exc), status)
            except (OSError, http.client.HTTPException) as exc:
                self._log(sent, current, "error")
                return FetchError(str(current), str(exc), None)
            finally:
                if response is None or not response.isclosed():
                    # an answer that ends its connection (HTTP/1.0, say) has
                    # left it and holds the socket itself: close both
                    connection.close()
                    if response is not None:
                        response.close()
            self._log(sent, current, str(status))
            if status in REDIRECT_STATUSES:
                location = response.getheader("Location")
                if not location:
                    return FetchError(str(current), "redirect without Location", status)
                try:
                    current = canonicalize(location, base=current)
                except (MalformedUrl, UnsupportedScheme) as exc:
                    return FetchError(str(current), str(exc), status)
                continue
            if status != 200:
                return FetchError(str(current), f"HTTP {status}", status)
            content_type = response.getheader("Content-Type", "")
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


# what crawl_outlinks has for an href it has not resolved yet, and for one
# that resolves only against the page it is on
_UNSEEN = object()
_NEEDS_PAGE = object()


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
    site key, each distinct href resolved, and each linked site recorded,
    once per crawl; the crawl's connections are closed when it returns.
    """
    if now is None:
        now = int(time.time())
    report = CrawlReport()
    throttle = throttle or HostThrottle(policy.delay_per_host)
    fetcher = Fetcher(policy, throttle, report, host_map)
    targets: dict[SiteKey, None] = {}  # the linked sites, in first-seen order
    site_of: dict[str, SiteKey] = {}  # host -> its site key: each host is reduced once
    # href -> what it resolves to, or _NEEDS_PAGE; (href, page URL) -> what
    # an href that needs its page resolves to on that page. What an href
    # resolves to is (URL, URL text, site key) for a page of this site,
    # (None, None, site key) for another site, and None when it is skipped.
    resolved_of: dict[str | tuple[str, str], object] = {}
    # URL text -> the one (URL, URL text, site key) of a page of this site,
    # which every href that resolves to it shares
    same_site: dict[str, tuple[CanonicalUrl, str, SiteKey]] = {}

    def reduced(host: str) -> SiteKey:
        key = site_of.get(host)
        if key is None:
            key = site_of[host] = reduce_host(host, rules).site
        return key

    def target(url: CanonicalUrl) -> tuple[CanonicalUrl | None, str | None, SiteKey]:
        key = reduced(url.host)
        if key != site:
            return None, None, key
        text = str(url)
        return same_site.setdefault(text, (url, text, key))

    def resolve(href: str, page: CanonicalUrl, page_text: str):
        # canonicalize reads a base only for an href without a scheme, and
        # without a base raises MalformedUrl for one: any other answer to
        # the base-less call holds on every page
        hit = resolved_of.get(href, _UNSEEN)
        if hit is _UNSEEN:
            try:
                hit = target(canonicalize(href))
            except UnsupportedScheme:
                hit = None
            except MalformedUrl:
                hit = _NEEDS_PAGE
            resolved_of[href] = hit
        if hit is not _NEEDS_PAGE:
            return hit
        key = (href, page_text)
        hit = resolved_of.get(key, _UNSEEN)
        if hit is _UNSEEN:
            try:
                hit = target(canonicalize(href, base=page))
            except (MalformedUrl, UnsupportedScheme):
                hit = None
            resolved_of[key] = hit
        return hit

    try:
        # str() brackets an IPv6 key
        entry = canonicalize(str(CanonicalUrl("http", site.value, None, "/")))
        robots = _load_robots(entry, fetcher)
        queue: deque[tuple[CanonicalUrl, int]] = deque([(entry, 0)])
        seen: set[str] = {str(entry)}

        attempts = 0  # the page cap bounds requests, failed ones included

        def next_page() -> tuple[CanonicalUrl, int] | None:
            # the queue's next URL robots.txt allows, with its depth, if the
            # page cap allows one more request; the URLs passed over are logged
            nonlocal attempts
            while queue and attempts < policy.max_pages_per_site:
                url, depth = queue.popleft()
                if robots.can_fetch(USER_AGENT, str(url)):
                    attempts += 1
                    return url, depth
                report.log.append(CrawlLogEntry(time.time(), url.host, str(url), "robots"))
                if url == entry:
                    report.robots_blocked = True
            return None

        ahead = None  # the next page, when its request is already sent
        while (page := ahead or next_page()) is not None:
            ahead = None
            url, depth = page
            fetched = fetcher.fetch(url)
            if isinstance(fetched, FetchError):
                report.errors.append(fetched)
                continue
            report.pages_fetched += 1
            final_url, content_type, body = fetched

            final_site = reduced(final_url.host)
            if final_site != site:
                targets[final_site] = None  # a redirector leaving the site links to it
                continue
            if "html" not in content_type.lower():
                continue

            # the server answers the next page while this one is scanned:
            # the page's links join the queue at its end, so its head, and
            # the order of requests, are what they would be after the scan
            ahead = next_page()
            if ahead is not None:
                fetcher._send_ahead(ahead[0])
            page_text = str(final_url)
            for href in extract_hrefs(body, page_text):
                resolved = resolve(href, final_url, page_text)
                if resolved is None:
                    report.skipped_links += 1
                    continue
                link_url, link_text, target_site = resolved
                if link_url is None:
                    targets[target_site] = None
                elif depth + 1 <= policy.max_depth and link_text not in seen:
                    seen.add(link_text)
                    queue.append((link_url, depth + 1))
    finally:
        fetcher.close()
    tags = frozenset({SourceTag.CRAWL})
    links = LinkSet(Direction.OUTLINKS, (LinkRecord(site, target, tags, now) for target in targets))
    return CrawlResult(links=links, report=report)
