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
declaration. The scanner resolves nothing: it returns the hrefs as written,
with the first ``<base href>`` beside them, and the crawl resolves each
distinct (href, base) once, on the URL ``document_base`` gives, so a base
in a scheme the crawl does not follow leaves every relative href skipped.

Politeness contract: consecutive requests to one host are spaced by at
least the configured delay, robots.txt is honoured (a full-site exclusion
included, and complete disallow while it is unreachable), redirects are
followed up to 5 hops with the final URL deciding the site key, and
per-page failures never abort a crawl. ``urllib.robotparser`` reads
robots.txt and departs from RFC 9309: ``User-agent: map`` binds
``helixmap`` (a substring, not §2.2.1's product token), the first rule
that matches wins (not the longest, nor allow on a tie), ``*`` and ``$``
are read as text, and groups naming one agent are not merged. A crawl
has one request in flight at a time: a page's request is sent only once
the page before it was read and scanned.

A host map ("host -> address:port") lets fixtures and mirrors serve a
logical hostname from a local address, exactly like a hosts-file entry:
the request goes to the address and still names the logical host and port
in its ``Host`` header. A key is read by the one host rule, as
``SiteKey.parse`` reads a site (``Park.TEST.`` is ``park.test``, and
``[::1]`` is ``::1``), and an address as ``canonicalize`` reads an
authority; a key that is no host or an address that is no authority
raises ``ValueError`` before the first request. The map is the one
supported way to redirect a crawl: pages are fetched with the standard
library's ``http.client`` by one ``Fetcher`` per crawl, closed in its
``finally``, which keeps a connection per origin, reads no proxy variable
and no ``~/.netrc``, reads each body by one bounded ``read`` and takes its
charset from the header ``http.client`` parsed. Every transport failure
(an ``OSError`` or an ``http.client.HTTPException``, a body cut short
among them) is a recorded page error, as is a body in a content coding.
"""

from __future__ import annotations

import http.client
import logging
import re
import select
import socket
import time
import urllib.robotparser
from collections import deque
from dataclasses import dataclass, field
from html import unescape

from . import __version__
from .harvest import Direction, LinkSet, SourceTag, check_first_seen
from .urls import (
    CanonicalUrl,
    MalformedUrl,
    ReductionRules,
    SiteKey,
    UnsupportedScheme,
    _host_and_port,
    canonicalize,
    input_lines,
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

    A fetcher waits for a slot before every request it sends, each redirect
    hop and resend included. Crawls run one at a time; a throttle is not
    shared between threads.
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


class Hrefs(list):
    """The a/area hrefs of a page as written, in document order, and
    ``base``: the href of its first ``<base>`` that has one, or None."""

    base: str | None = None


def extract_hrefs(html: str) -> Hrefs:
    """All a[href] / area[href] values in document order, as written, with
    the first ``<base href>`` value as ``base``; nothing is resolved. A tag
    that repeats ``href`` gives its first value only, as the HTML tokenizer
    drops a repeated attribute; an empty href gives no link.
    """
    hrefs = Hrefs()
    for token in _SCAN.finditer(html):
        attrs = token["attrs"]
        if attrs is None:
            continue
        href = _href_value(attrs)
        if token["base"] is None:
            if href:
                hrefs.append(href)
        elif hrefs.base is None:
            hrefs.base = href
    return hrefs


def document_base(page: CanonicalUrl, base: str | None) -> CanonicalUrl | None:
    """The URL the relative hrefs of the page at ``page`` resolve on (HTML's
    document base URL), given its ``<base href>``: the base resolved against
    ``page``; ``page`` when there is none, or it is empty or canonicalize
    cannot read it; None when its scheme is one the crawl does not follow,
    where no relative href leads anywhere (RFC 3986 §5.1)."""
    if base is None or not base.strip():
        return page
    try:
        return canonicalize(base, page)
    except MalformedUrl:
        return page
    except UnsupportedScheme:
        return None


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


def _body(response: http.client.HTTPResponse) -> bytes:
    """The whole body of ``response``, by one bounded ``read`` that keeps to
    its framing and closes it at the body's end: ``UnreadableBody`` for one
    in a content coding or of more than ``MAX_PAGE_BYTES``,
    ``http.client.HTTPException`` for one cut short."""
    coding = response.getheader("Content-Encoding", "").strip().lower()
    if coding not in ("", "identity"):
        raise UnreadableBody(f"answer in content coding {coding!r}")
    body = response.read(MAX_PAGE_BYTES + 1)
    if len(body) > MAX_PAGE_BYTES:
        raise UnreadableBody(f"answer exceeds {MAX_PAGE_BYTES} bytes")
    # read ends a body cut short of its Content-Length without raising
    if response.length:
        raise http.client.HTTPException(
            f"answer ends {response.length} bytes short of its Content-Length")
    return body


# what a reused connection that the server closed before answering raises
_UNANSWERED = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class Fetcher:
    """HTTP fetcher with manual redirect handling and host-map support.

    GETs go over one keep-alive ``http.client`` connection per origin
    (scheme, address, port), open until ``close``, which a crawl calls in
    its ``finally``; no proxy variable or ``~/.netrc`` is read. HTTPS is
    verified with the default ``ssl`` context. ``policy.timeout`` bounds
    each socket operation. A connection carries the next request only after
    its answer was read to the end; one that the server closed while it was
    idle is opened again first. A GET is sent once more only when a reused
    connection closes before its answer's status line comes, and then on a
    new connection; the second send waits for its host's slot and is logged
    as every request is.
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
            if host[:1] + host[-1:] == "[]" and ":" in host:  # an IPv6 literal as Host writes it
                host = host[1:-1]
            self.addresses[SiteKey.parse(host).value] = _host_and_port(address, address)
        self._connections: dict[tuple[str, str, int], http.client.HTTPConnection] = {}

    def close(self) -> None:
        """Close every connection, and forget it."""
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

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

    def _get(self, url: CanonicalUrl) -> tuple[http.client.HTTPResponse, bytes] | FetchError:
        """Wait for the slot of ``url``'s host, send its GET and read the
        answer, its body to the end; or why there is none. The request is
        logged with the answer's status, or as an error. An answer left
        half-read is closed with its connection, so the rest of its body can
        never be taken for the start of the next answer.

        A server may close a kept-alive connection just as a request goes
        out on it. So a GET that a reused connection dropped before any
        status line came is sent once more, on a new connection, as RFC
        9112 §9.3.1 allows for an idempotent request; one sent on a new
        connection is not.
        """
        self.throttle.wait(url.host)
        sent = time.time()
        connection = self._connection(url)
        reused = connection.sock is not None
        target = url.path if url.query is None else f"{url.path}?{url.query}"
        response = None
        try:
            connection.request("GET", _UNSAFE_IN_TARGET.sub(_percent_encoded, target),
                               headers={**HTTP_HEADERS, "Host": url.authority})
            response = connection.getresponse()
            body = _body(response)
        except UnreadableBody as exc:
            self._log(sent, url, str(response.status))
            return FetchError(str(url), str(exc), response.status)
        except (OSError, http.client.HTTPException) as exc:
            self._log(sent, url, "error")
            if not (reused and response is None and isinstance(exc, _UNANSWERED)):
                return FetchError(str(url), str(exc), None)
        else:
            self._log(sent, url, str(response.status))
            return response, body
        finally:
            if response is None or not response.isclosed():
                # an answer that ends its connection (HTTP/1.0, say) has
                # left it and holds the socket itself: close both
                connection.close()
                if response is not None:
                    response.close()
        return self._get(url)

    def fetch(self, url: CanonicalUrl) -> tuple[CanonicalUrl, str, str] | FetchError:
        """GET one page: (final_url, content_type, body), or why it failed.

        Follows up to MAX_REDIRECT_HOPS redirects; every hop is throttled
        and logged against its own host, stamped with the time it was sent.
        Every request carries ``HTTP_HEADERS`` and the URL's authority as
        ``Host``. Every answer's body is read, up to MAX_PAGE_BYTES; the
        page's is decoded once, in ``response.msg``'s charset, else UTF-8 (not
        RFC 2616's ISO-8859-1 for text/*); one with no text codec is a page error.
        """
        current = url
        for _ in range(MAX_REDIRECT_HOPS + 1):
            answer = self._get(current)
            if isinstance(answer, FetchError):
                return answer
            response, body = answer
            status = response.status
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
            charset = response.msg.get_content_charset("utf-8")
            try:
                text = body.decode(charset, "replace")
                if not body:  # b"" decodes in any charset, a text codec or not
                    b"\n".decode(charset, "replace")
            except (LookupError, UnicodeError):  # bytes-to-bytes codecs raise LookupError
                return FetchError(str(current), f"unknown charset {charset!r}", status)
            return current, response.getheader("Content-Type", ""), text
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
        with input_lines(fetched[2]) as lines:
            parser.parse(lines)
    elif fetched.status is not None and 300 <= fetched.status < 500:
        parser.parse([])
    else:
        parser.disallow_all = True
    return parser


# what crawl_outlinks has for an href it has not resolved yet, and for one
# without a scheme, which resolves only on a base
_UNSEEN = object()
_RELATIVE = object()


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
    site key, each distinct (href, base) resolved, and each linked site
    recorded, once per crawl; the crawl's connections are closed when it
    returns. ``now``, every record's ``first_seen``, must be a non-negative
    ``int``; it is checked before the first request.
    """
    if now is None:
        now = int(time.time())
    check_first_seen(now)
    report = CrawlReport()
    throttle = throttle or HostThrottle(policy.delay_per_host)
    fetcher = Fetcher(policy, throttle, report, host_map)
    targets: dict[SiteKey, None] = {}  # the linked sites, in first-seen order
    site_of: dict[str, SiteKey] = {}  # host -> its site key: each host is reduced once
    # href -> its outcome, or _RELATIVE for an href without a scheme;
    # (href, base text) -> the outcome of such an href on that base. An
    # outcome is (URL, URL text) for a page of this site, the SiteKey of
    # another site, or None for a skipped link.
    outcomes: dict[str | tuple[str, str], object] = {}

    def reduced(host: str) -> SiteKey:
        key = site_of.get(host)
        if key is None:
            key = site_of[host] = reduce_host(host, rules).site
        return key

    def outcome(href: str, base: CanonicalUrl | None, base_text: str):
        # canonicalize reads a base only for an href without a scheme, and
        # without a base raises MalformedUrl for one: any other answer to
        # the base-less call holds on every base
        key, against = href, None
        while True:
            hit = outcomes.get(key, _UNSEEN)
            if hit is _UNSEEN:
                try:
                    url = canonicalize(href, against)
                except UnsupportedScheme:
                    hit = None
                except MalformedUrl:
                    hit = _RELATIVE if against is None else None
                else:
                    linked = reduced(url.host)
                    hit = (url, str(url)) if linked == site else linked
                outcomes[key] = hit
            if hit is not _RELATIVE:
                return hit
            if base is None:
                return None
            key, against = (href, base_text), base

    try:
        entry = CanonicalUrl("http", site.value, None, "/")
        robots = _load_robots(entry, fetcher)
        queue: deque[tuple[CanonicalUrl, int]] = deque([(entry, 0)])
        seen: set[str] = {str(entry)}

        attempts = 0  # the page cap bounds requests, failed ones included
        while queue and attempts < policy.max_pages_per_site:
            url, depth = queue.popleft()
            if not robots.can_fetch(USER_AGENT, str(url)):
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
                targets[final_site] = None  # a redirector leaving the site links to it
                continue
            if "html" not in content_type.lower():
                continue
            hrefs = extract_hrefs(body)
            base = document_base(final_url, hrefs.base)
            base_text = str(base)
            for href in hrefs:
                hit = outcome(href, base, base_text)
                if hit is None:
                    report.skipped_links += 1
                elif type(hit) is SiteKey:
                    targets[hit] = None
                elif depth + 1 <= policy.max_depth and hit[1] not in seen:
                    seen.add(hit[1])
                    queue.append((hit[0], depth + 1))
    finally:
        fetcher.close()
    links = LinkSet(Direction.OUTLINKS)
    for target in targets:
        links.add(site, target, SourceTag.CRAWL, now)
    return CrawlResult(links=links, report=report)
