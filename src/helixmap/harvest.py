"""Link-evidence collection from indexes, and link-set algebra.

Three kinds of evidence feed an interlinking study: a crawl over the
actors' own pages, an inlink index and an outlink index (the role
commercial search engines used to play). Each observation is reduced to a
directed ``source site -> target site`` record carrying provenance tags,
and records are deduplicated per (source, target) pair.

A ``LinkSet`` stores each record in its CSV form: the (source, target)
pair of site-key texts maps to a (provenance label, ``first_seen``) tuple.
Reading, filtering, merging and writing a set work on those values alone;
``LinkRecord`` objects are made only while a caller iterates a set or asks
it for records.

Index backends implement the small LinkIndex interface. Two adapters
ship: a local snapshot index (a directory of per-site link lists, the
only thing tests rely on) and a generic HTTP adapter for whatever
backlink service a study has access to.
"""

from __future__ import annotations

import codecs
import csv
import email.message
import http.client
import logging
import re
import select
import socket
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, starmap
from pathlib import Path
from typing import Iterable, Iterator, KeysView
from urllib.parse import urlencode

from . import __version__
from .urls import (
    CanonicalUrl,
    GenericFilterList,
    MalformedUrl,
    ReductionFlag,
    ReductionRules,
    SiteKey,
    UnsupportedScheme,
    canonicalize,
    reduce_host,
)

log = logging.getLogger(__name__)


class SourceTag(Enum):
    CRAWL = "Crawl"
    INLINK_INDEX = "InlinkIndex"
    OUTLINK_INDEX = "OutlinkIndex"


class Direction(Enum):
    INLINKS = "Inlinks"
    OUTLINKS = "Outlinks"


class DirectionMismatch(ValueError):
    """Attempt to merge link sets of different directions."""


class IndexUnavailable(RuntimeError):
    """The configured link index cannot be reached, or its answer is unusable."""


@dataclass(frozen=True, slots=True)
class LinkRecord:
    source: SiteKey
    target: SiteKey
    provenance: frozenset[SourceTag]
    first_seen: int

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("link record without provenance")

    @property
    def key(self) -> tuple[str, str]:
        return (self.source.value, self.target.value)


def provenance_label(tags: frozenset[SourceTag]) -> str:
    return "+".join(sorted(tag.value for tag in tags))


# every non-empty tag set under its label, and back: the one frozenset a
# label stands for, and the one string that labels a tag set
_TAG_SETS: dict[str, frozenset[SourceTag]] = {
    provenance_label(frozenset(tags)): frozenset(tags)
    for n in range(1, len(SourceTag) + 1)
    for tags in combinations(SourceTag, n)
}
_LABELS: dict[frozenset[SourceTag], str] = {tags: label for label, tags in _TAG_SETS.items()}


def _merged(old: tuple[str, int], new: tuple[str, int]) -> tuple[str, int]:
    """The stored values of two records of one pair as one record's: the
    union of their tags and the earlier ``first_seen``."""
    return (_LABELS[_TAG_SETS[old[0]] | _TAG_SETS[new[0]]], min(old[1], new[1]))


class LinkSet:
    """Directed link records, at most one per (source, target) pair.

    A set stores each record as the atomic values of its CSV row:
    ``_records`` maps the (source, target) pair of site-key texts to the
    record's (provenance label, ``first_seen``). Tuples of strings and ints
    drop out of the cyclic garbage collector, however many records a set
    holds.

    ``LinkRecord``s are made on demand, by iteration and ``records()``, and
    share one provenance frozenset per label. Iteration yields them in
    insertion order; ``records()`` returns them sorted by (source, target),
    for output that must be deterministic.
    """

    def __init__(self, direction: Direction, records: Iterable[LinkRecord] = ()):
        self.direction = direction
        self._records: dict[tuple[str, str], tuple[str, int]] = {}
        for record in records:
            self.add(record)

    def add(self, record: LinkRecord) -> None:
        key = record.key
        value = (_LABELS[record.provenance], record.first_seen)
        old = self._records.setdefault(key, value)
        if old is not value:
            self._records[key] = _merged(old, value)

    @staticmethod
    def _record(key: tuple[str, str], value: tuple[str, int]) -> LinkRecord:
        return LinkRecord(SiteKey(key[0]), SiteKey(key[1]), _TAG_SETS[value[0]], value[1])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LinkRecord]:
        return starmap(self._record, self._records.items())

    def records(self) -> list[LinkRecord]:
        """Records sorted by (source, target) for deterministic output."""
        return [self._record(key, self._records[key]) for key in sorted(self._records)]

    def pairs(self) -> KeysView[tuple[str, str]]:
        """The (source, target) site-key texts of the records, in insertion order."""
        return self._records.keys()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkSet):
            return NotImplemented
        return self.direction == other.direction and self._records == other._records


def merge_link_sets(a: LinkSet, b: LinkSet) -> LinkSet:
    """Key-union of two same-direction link sets; provenance tags union."""
    if a.direction != b.direction:
        raise DirectionMismatch(f"{a.direction.value} vs {b.direction.value}")
    merged = LinkSet(a.direction)
    merged._records = records = dict(a._records)
    for key, value in b._records.items():
        old = records.setdefault(key, value)
        if old is not value:
            records[key] = _merged(old, value)
    return merged


# --- index adapters ---------------------------------------------------------


class LinkIndex:
    """Interface to a link-evidence backend (inlink/outlink lookups).

    A backend that cannot answer for a site raises ``OSError`` (a file
    that cannot be read), ``UnicodeError`` or ``IndexUnavailable`` (every
    HTTP failure); ``harvest_index`` records the site as failed and goes
    on.
    """

    def inlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        raise NotImplementedError

    def outlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        raise NotImplementedError


class SnapshotLinkIndex(LinkIndex):
    """Directory of per-site link lists: ``<sitekey>.in`` / ``<sitekey>.out``,
    one URL per line. A missing file means no recorded links for that site."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise IndexUnavailable(f"snapshot directory {self.directory} does not exist")

    def _read(self, site: SiteKey, suffix: str, limit: int) -> list[str]:
        path = self.directory / f"{site.value}.{suffix}"
        if not path.is_file():
            return []
        lines = [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        return lines[:limit]

    def inlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._read(site, "in", limit)

    def outlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._read(site, "out", limit)


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


# the name every request gives, which robots.txt groups are matched against
USER_AGENT = f"helixmap/{__version__}"
# headers every request carries besides its own; a body in any content
# coding but identity is refused, so no decoder ever runs on an answer
HTTP_HEADERS = {"User-Agent": USER_AGENT, "Accept": "*/*",
                "Accept-Encoding": "identity", "Connection": "keep-alive"}
_READ_CHUNK = 2**16
# statuses whose Location both HTTP clients follow
REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})
# a character a request target may not hold as it is: outside RFC 3986's
# unreserved, sub-delims, ":", "@", "/" and "?", or a "%" that starts no
# percent-encoding
_UNSAFE_IN_TARGET = re.compile(r"[^A-Za-z0-9\-._~!$&'()*+,;=:@/?%]|%(?![0-9A-Fa-f]{2})")


class UnreadableBody(Exception):
    """An HTTP answer went on past the byte bound its reader set, or came in
    a content coding."""


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


class HttpClient:
    """GETs over one keep-alive ``http.client`` connection per origin
    (scheme, address, port), open until ``close``.

    A request is sent once: no retry, no redirect, and no proxy variable or
    ``~/.netrc`` is read. HTTPS is verified with the default ``ssl``
    context. ``timeout`` bounds each socket operation. A connection carries
    the next request only after its answer was read to the end; one that
    the server closed while it was idle is opened again first.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._connections: dict[tuple[str, str, int], http.client.HTTPConnection] = {}
        # an unclosed client closes its connections when it is collected
        self._finalizer = weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection."""
        self._finalizer()

    @contextmanager
    def get(self, url: CanonicalUrl, headers: dict[str, str], bound: int,
            address: tuple[str, int | None] | None = None,
            ) -> Iterator[tuple[http.client.HTTPResponse, Iterator[bytes]]]:
        """GET ``url``, from ``address`` (host, port) if one is given: the
        answer, and its body chunk by chunk.

        The request carries ``headers`` and ``url``'s authority as ``Host``.
        The chunks raise ``UnreadableBody`` for a body in a content coding
        or as soon as more than ``bound`` bytes have come, and
        ``http.client.HTTPException`` for one cut short. An answer left
        half-read closes its connection on leaving the block, so the rest of
        its body can never be taken for the start of the next answer.
        """
        host, port = address or (url.host, url.port)
        if port is None:
            port = http.client.HTTPS_PORT if url.scheme == "https" else http.client.HTTP_PORT
        origin = (url.scheme, host, port)
        connection = self._connections.get(origin)
        if connection is None:
            kind = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
            connection = self._connections[origin] = kind(host, port, timeout=self.timeout)
        elif connection.sock is not None and _dropped(connection.sock):
            connection.close()  # the request opens it again
        target = url.path if url.query is None else f"{url.path}?{url.query}"
        response = None
        try:
            connection.request("GET", _UNSAFE_IN_TARGET.sub(_percent_encoded, target),
                               headers={**headers, "Host": url.authority})
            response = connection.getresponse()
            yield response, _chunks(response, bound)
        finally:
            if response is None or not response.isclosed():
                connection.close()


def _chunks(response: http.client.HTTPResponse, bound: int) -> Iterator[bytes]:
    coding = response.getheader("Content-Encoding", "").strip().lower()
    if coding not in ("", "identity"):
        raise UnreadableBody(f"answer in content coding {coding!r}")
    received = 0
    while chunk := response.read1(_READ_CHUNK):
        received += len(chunk)
        if received > bound:
            raise UnreadableBody(f"answer exceeds {bound} bytes")
        yield chunk
    # read1 ends a body cut short of its Content-Length without raising
    if response.length:
        raise http.client.HTTPException(
            f"answer ends {response.length} bytes short of its Content-Length")
    # nor does it close an answer read to the end, which the connection's
    # next request needs
    response.close()


# the most an HTTP index answer may hold: 16 MiB is over 100k URLs, and a
# service that sends more is broken or hostile
MAX_INDEX_RESPONSE_BYTES = 16 * 2**20
# the most redirects one HTTP request follows, in either client
MAX_REDIRECT_HOPS = 5


def _lines(chunks: Iterator[bytes], charset: str, limit: int) -> list[str]:
    """The first ``limit`` non-empty lines of a body in ``charset``, read
    from ``chunks`` no further than those lines."""
    decoder = codecs.getincrementaldecoder(charset)("replace")
    links: list[str] = []
    pending: list[str] = []  # the text of a line whose break has not come
    while len(links) < limit:
        chunk = next(chunks, b"")
        # with a sentinel appended, the last item is what follows the last
        # line break: it waits for the rest of its line, unless the body
        # has ended, which ends the line too
        text = decoder.decode(chunk, final=not chunk)
        *ended, rest = (text + ("x" if chunk else "\nx")).splitlines()
        if ended:
            ended[0] = "".join(pending) + ended[0]
            pending.clear()
        pending.append(rest[:-1])
        links += [line.strip() for line in ended if line.strip()]
        if not chunk:
            break
    return links[:limit]


class HttpLinkIndex(LinkIndex):
    """Generic HTTP backlink-service adapter.

    Expects ``GET <endpoint>/inlinks?site=<key>&limit=<n>`` (and
    ``/outlinks``) to return ``text/plain``, one URL per line, in UTF-8
    unless the answer declares a charset. An optional bearer token covers
    the common auth case.

    Queries share one ``HttpClient``, which keeps a connection per origin
    open until ``close``. A query is tried once and follows up to
    ``MAX_REDIRECT_HOPS`` redirects, each ``Location`` resolved as
    ``canonicalize`` resolves an href; the token is not sent again once a
    redirect leaves the origin it was sent to. Every failure to get a
    usable answer (no connection, a stall past ``timeout``, a 4xx or 5xx
    status, a redirect loop, an unknown charset, a body cut short, in a
    content coding, or past ``MAX_INDEX_RESPONSE_BYTES``) raises
    ``IndexUnavailable``. No proxy variable and no ``~/.netrc`` is read.
    """

    def __init__(self, endpoint: str, token: str | None = None, timeout: float = 30.0):
        try:
            self.endpoint = canonicalize(endpoint)
        except (MalformedUrl, UnsupportedScheme):
            raise IndexUnavailable(f"bad index endpoint {endpoint!r}") from None
        if self.endpoint.query is not None:
            raise IndexUnavailable(f"bad index endpoint {endpoint!r}: it has a query")
        self._headers = dict(HTTP_HEADERS)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        self._client = HttpClient(timeout)

    def close(self) -> None:
        """Close the connections the index keeps open between queries."""
        self._client.close()

    def _query(self, kind: str, site: SiteKey, limit: int) -> list[str]:
        """The first ``limit`` non-empty lines of the answer. The body is
        streamed and read no further than those lines, so a service that
        sends more than it was asked for is not waited for."""
        endpoint = self.endpoint
        url = CanonicalUrl(endpoint.scheme, endpoint.host, endpoint.port,
                           f"{endpoint.path.rstrip('/')}/{kind}",
                           urlencode({"site": site.value, "limit": limit}))
        headers = self._headers
        try:
            for _ in range(MAX_REDIRECT_HOPS + 1):
                with self._client.get(url, headers, MAX_INDEX_RESPONSE_BYTES) as (response, chunks):
                    status = response.status
                    if status in REDIRECT_STATUSES:
                        location = response.getheader("Location")
                    elif status >= 400:
                        raise IndexUnavailable(f"{url}: HTTP {status}")
                    else:
                        try:
                            charset = body_charset(response.getheader("Content-Type", ""))
                        except LookupError as exc:
                            raise IndexUnavailable(f"{url}: {exc}") from None
                        return _lines(chunks, charset, limit)
                if not location:
                    raise IndexUnavailable(f"{url}: redirect without Location")
                moved = canonicalize(location, base=url)
                if (moved.scheme, moved.host, moved.port) != (url.scheme, url.host, url.port):
                    headers = {k: v for k, v in headers.items() if k != "Authorization"}
                url = moved
            raise IndexUnavailable(f"{url}: too many redirects")
        except (OSError, http.client.HTTPException, UnreadableBody,
                MalformedUrl, UnsupportedScheme) as exc:
            raise IndexUnavailable(f"{url}: {exc}") from exc

    def inlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._query("inlinks", site, limit)

    def outlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._query("outlinks", site, limit)


# --- harvesting -------------------------------------------------------------


@dataclass
class HarvestResult:
    """A harvested link set plus everything that went wrong along the way."""

    links: LinkSet
    failed_sites: list[SiteKey] = field(default_factory=list)
    skipped_urls: int = 0
    flags: dict[ReductionFlag, int] = field(default_factory=dict)


def harvest_index(
    sites: list[SiteKey],
    index: LinkIndex,
    direction: Direction,
    rules: ReductionRules,
    limit: int = 1000,
    now: int | None = None,
) -> HarvestResult:
    """Query the index for every site, reducing results to site-key records.

    Per-site transport and index failures are isolated: the failing site is
    recorded and the harvest continues. Any other exception is a bug and
    propagates. Self-pairs (source equals target after reduction)
    are retained here; the network builder removes them later.
    """
    if now is None:
        now = int(time.time())
    tag = SourceTag.INLINK_INDEX if direction is Direction.INLINKS else SourceTag.OUTLINK_INDEX
    tags = frozenset({tag})
    result = HarvestResult(links=LinkSet(direction))
    for site in sites:
        try:
            if direction is Direction.INLINKS:
                urls = index.inlinks_of(site, limit)
            else:
                urls = index.outlinks_of(site, limit)
        except (OSError, UnicodeError, IndexUnavailable) as exc:
            log.warning("index query failed for %s: %s", site.value, exc)
            result.failed_sites.append(site)
            continue
        for raw in urls:
            reduced = _reduce_url(raw, rules)
            if reduced is None:
                result.skipped_urls += 1
                continue
            if reduced.flag is not None:
                result.flags[reduced.flag] = result.flags.get(reduced.flag, 0) + 1
            if direction is Direction.INLINKS:
                source, target = reduced.site, site
            else:
                source, target = site, reduced.site
            result.links.add(
                LinkRecord(source=source, target=target, provenance=tags, first_seen=now)
            )
    return result


def _reduce_url(raw: str, rules: ReductionRules):
    # index dumps often list bare hosts; tolerate a missing scheme
    if "://" not in raw:
        raw = "http://" + raw
    try:
        url = canonicalize(raw)
    except (MalformedUrl, UnsupportedScheme):
        return None
    return reduce_host(url.host, rules)


def filter_generic(links: LinkSet, filter_list: GenericFilterList) -> tuple[LinkSet, int]:
    """Drop records whose source or target site key exactly matches a
    generic denylist entry; return the kept set and the dropped count.

    The kept set holds the input's own stored values, in the input's
    iteration order.
    """
    generic = filter_list.entries
    kept = LinkSet(links.direction)
    kept._records = {
        key: value
        for key, value in links._records.items()
        if key[0] not in generic and key[1] not in generic
    }
    return kept, len(links) - len(kept)


# --- link-set CSV form ------------------------------------------------------

LINKSET_HEADER = ["source", "target", "provenance", "first_seen"]


def write_link_set(links: LinkSet, path: str | Path) -> None:
    """CSV form: source,target,provenance,first_seen with "+"-joined tags,
    rows sorted by (source, target), written from the stored values."""
    records = links._records
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LINKSET_HEADER)
        writer.writerows(key + records[key] for key in sorted(records))


def _canonical_label(text: str) -> str:
    """The shared label string of a provenance text, which must be a
    canonical label: "+"-joined ``SourceTag`` values, sorted, no repeats."""
    tags = _TAG_SETS.get(text)
    if tags is None:
        tags = frozenset(SourceTag(t) for t in text.split("+"))
        raise ValueError(
            f"provenance {text!r} is not in canonical form {provenance_label(tags)!r}"
        )
    return _LABELS[tags]


def read_link_set(path: str | Path, direction: Direction) -> LinkSet:
    """Read the CSV form ``write_link_set`` writes.

    The first row must be the header; blank rows are skipped. Every other
    row has four fields:

    - ``source`` and ``target``: ``SiteKey`` values, so non-empty,
      lower-case and free of whitespace;
    - ``provenance``: one or more "+"-joined ``SourceTag`` values, sorted
      and without repeats, as ``provenance_label`` writes them;
    - ``first_seen``: ASCII digits without a leading zero.

    A row that breaks a rule raises ``ValueError("<path>:<line>: ...")``.
    Rows repeating a (source, target) pair merge as ``LinkSet.add`` merges
    them.

    Rows go straight into the set's storage; no ``LinkRecord`` is built.
    Each distinct site text is checked as a ``SiteKey`` once and stored as
    one string, which every key naming the site shares, and each distinct
    provenance text is checked once and stored as the one shared label
    string.
    """
    links = LinkSet(direction)
    records = links._records
    sites: dict[str, str] = {}  # site text -> the first string read for it
    labels: dict[str, str] = {}  # provenance text -> its shared label
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LINKSET_HEADER:
            raise ValueError(f"{path}: bad link-set header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 fields, got {len(row)}")
            source, target, tags_text, first_seen = row
            try:
                try:
                    source = sites[source]
                except KeyError:
                    sites[source] = SiteKey(source).value
                try:
                    target = sites[target]
                except KeyError:
                    sites[target] = SiteKey(target).value
                try:
                    label = labels[tags_text]
                except KeyError:
                    label = labels[tags_text] = _canonical_label(tags_text)
                if not (first_seen.isascii() and first_seen.isdigit()):
                    raise ValueError(f"first_seen {first_seen!r} is not ASCII digits")
                if first_seen[0] == "0" and len(first_seen) > 1:
                    raise ValueError(f"first_seen {first_seen!r} has a leading zero")
                key = (source, target)
                value = (label, int(first_seen))
                old = records.setdefault(key, value)
                if old is not value:
                    records[key] = _merged(old, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return links
