"""URL canonicalization and actor-level site reduction.

Link harvesting produces raw URL strings from crawls and link indexes.
Before they can be counted they are normalized into a canonical form and
then reduced to a *site key*: the registrable domain of the host (e.g.
``wlv.ac.uk``), or a configured sub-domain when a study keeps the
sub-sites of one registrable domain apart (e.g. ``cybermetrics.wlv.ac.uk``).

A site key is non-empty, lower-case ASCII text without whitespace, as every
reduced host is. ``SiteKey`` alone holds that rule, and every site read from
a file is built as one, so a site that no host can reduce to is refused; a
site a file writes in Unicode is read in the ``xn--`` form of its host.

Canonicalization rules:

- only ``http``/``https`` URLs are accepted; everything else (``mailto:``,
  ``data:``, userinfo URLs) is rejected,
- scheme and host are lowercased; hosts holding a WHATWG forbidden domain
  code point (space, ``<``, ``>``, ``%``, ``^``, ``|``, controls) are
  rejected; non-ASCII hosts are converted to punycode by UTS #46
  non-transitional processing, so ``faß.de`` becomes ``xn--fa-hia.de``,
- default ports are dropped, fragments are removed,
- percent-encodings in the path and query are normalized (RFC 3986
  §6.2.2.2): hex digits are uppercased and encoded unreserved characters
  are decoded, so ``%7e`` becomes ``~`` and ``%2f`` becomes ``%2F``,
- dot segments (``./``, ``../``) are resolved out of the path,
- a relative reference is resolved against its base as RFC 3986 section
  5.2.2 says, on the base's parsed parts, before it is normalized,
- ``www.`` is never special-cased: it disappears only through registrable
  domain reduction.

Reduction follows the publicsuffix.org algorithm against a versioned
suffix snapshot: it walks the host's own suffixes (``a.b.c``, ``b.c``,
``c``) and looks each up in the rule sets, so its cost grows with the
host's label count, not with the size of the list. Hosts that cannot be
reduced cleanly (IP literals, hosts with no matching suffix rule) are kept
and flagged rather than dropped, so the analyst decides their fate.
"""

from __future__ import annotations

import ipaddress
import re
import string
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

import idna


class MalformedUrl(ValueError):
    """Raised for URL strings that cannot be parsed into a canonical form."""


class UnsupportedScheme(ValueError):
    """Raised for parseable URLs whose scheme is not http or https."""


_ALLOWED_SCHEMES = ("http", "https")
_DEFAULT_PORTS = {"http": 80, "https": 443}
# the forbidden domain code points of the WHATWG URL standard
_FORBIDDEN_HOST_CHARS = re.compile(r"[\x00-\x20#%/:<>?@\[\\\]^|\x7f]")
_PERCENT_ENCODED = re.compile(r"%[0-9A-Fa-f]{2}")
# what urlsplit drops from a URL before it parses it: C0 controls and
# spaces at its start, and every tab and line break
_C0_CONTROL_OR_SPACE = "".join(map(chr, range(0x21)))
_TAB_AND_NEWLINE = str.maketrans("", "", "\t\n\r")
_UNRESERVED = frozenset(string.ascii_letters + string.digits + "-._~")


@dataclass(frozen=True)
class CanonicalUrl:
    """A normalized http(s) URL: lowercase scheme/host, clean path, no fragment."""

    scheme: str
    host: str
    port: int | None
    path: str
    query: str | None = None

    @property
    def authority(self) -> str:
        """The host, in brackets when it is an IPv6 literal, and ``:port``
        unless the port is the scheme's default: what the URL and the
        ``Host`` header of a request for it write."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return host if self.port is None else f"{host}:{self.port}"

    def __str__(self) -> str:
        query = f"?{self.query}" if self.query is not None else ""
        return f"{self.scheme}://{self.authority}{self.path}{query}"


@dataclass(frozen=True, order=True, slots=True)
class SiteKey:
    """An actor-level web identity: a registrable domain, a kept sub-domain
    or an IP literal, as non-empty, lower-case ASCII text without
    whitespace."""

    value: str

    def __post_init__(self):
        # split() is [value] only for non-empty text without whitespace
        value = self.value
        if not value.isascii() or value.split() != [value] or value != value.lower():
            raise ValueError(f"bad site key {value!r}")

    @classmethod
    def parse(cls, text: str) -> "SiteKey":
        """The key of a site as a file writes it: lower-cased, with a name
        written in Unicode encoded by UTS #46 as ``canonicalize`` encodes a
        host, so ``Bücher.de`` is ``xn--bcher-kva.de``. ValueError for text
        that is no site key, a ``MalformedUrl`` for a name IDNA cannot
        encode."""
        text = text.lower()
        if not text.isascii():
            text = _encoded_idn(text, text)
        return cls(text)


class ReductionFlag(Enum):
    """Why a host could not be reduced cleanly (kept anyway, flagged)."""

    IP_LITERAL = "ip-literal"
    UNKNOWN_SUFFIX = "unknown-suffix"


@dataclass(frozen=True)
class Reduction:
    """Result of reducing one host: the site key plus an optional flag."""

    site: SiteKey
    flag: ReductionFlag | None = None


class ReductionRules:
    """Public-suffix snapshot plus the set of sub-domain exception domains.

    The suffix snapshot uses the standard one-rule-per-line text form:
    ``//`` comments, ``*`` wildcard labels, ``!`` exception rules. Rules are
    kept as plain suffix strings in three sets: exact rules, wildcard bases
    (``*.b.c`` is kept as ``b.c``) and exceptions (``!a.b.c`` as ``a.b.c``).
    A host is matched by looking its own suffixes up in those sets, longest
    first: an exception prevails and its suffix drops the leftmost label;
    otherwise the longest suffix that is an exact rule, or whose one-label-
    shorter suffix is a wildcard base, is the public suffix.

    The sub-domain exception file lists one registrable domain per line whose
    sub-domains are to be kept as distinct site keys. Each exception must be
    a site key (lower-case, no whitespace) and a registrable domain, or the
    rules raise ``ValueError``.
    """

    def __init__(self, suffix_text: str, subdomain_exceptions: set[str] | None = None):
        self.version = "unversioned"
        self._exact: set[str] = set()
        self._wildcards: set[str] = set()
        self._exceptions: set[str] = set()
        for line in suffix_text.splitlines():
            line = line.strip()
            if line.startswith("//"):
                comment = line[2:].strip()
                if comment.upper().startswith("VERSION:"):
                    self.version = comment.split(":", 1)[1].strip()
                continue
            if not line:
                continue
            rule = line.split()[0].lower()
            if rule.startswith("!"):
                self._exceptions.add(rule[1:])
            elif rule.startswith("*."):
                self._wildcards.add(rule[2:])
            else:
                self._exact.add(rule)
        if not (self._exact or self._wildcards):
            raise ValueError("suffix snapshot contains no rules")

        # each exception is a site key, so that a host can match it
        self.subdomain_exceptions = frozenset(
            SiteKey(domain).value for domain in sorted(subdomain_exceptions or ())
        )
        for domain in self.subdomain_exceptions:
            labels = domain.split(".")
            if self.registrable_length(labels) != len(labels):
                raise ValueError(
                    f"subdomain exception {domain!r} is not a registrable domain"
                )

    @classmethod
    def from_files(
        cls, suffix_path: str | Path, exceptions_path: str | Path | None = None
    ) -> "ReductionRules":
        suffix_text = Path(suffix_path).read_text(encoding="utf-8")
        exceptions: set[str] = set()
        if exceptions_path is not None:
            for line in Path(exceptions_path).read_text(encoding="utf-8").splitlines():
                line = line.split("#", 1)[0].strip().lower()
                if line:
                    exceptions.add(line)
        return cls(suffix_text, exceptions)

    @classmethod
    def bundled(cls, subdomain_exceptions: set[str] | None = None) -> "ReductionRules":
        """Rules backed by the suffix snapshot shipped with the package."""
        text = (
            resources.files("helixmap.data")
            .joinpath("public_suffix_snapshot.dat")
            .read_text(encoding="utf-8")
        )
        return cls(text, subdomain_exceptions)

    def registrable_length(self, labels: list[str]) -> int:
        """Label count of the registrable domain of a host split into
        ``labels``: its public suffix plus one label. 0 when there is none,
        because no rule matches or the host is itself a public suffix."""
        n = len(labels)
        candidates = [".".join(labels[i:]) for i in range(n)]  # longest first
        suffix = 0
        for i, candidate in enumerate(candidates):
            if candidate in self._exceptions:
                suffix = n - i - 1
                break
        else:
            for i, candidate in enumerate(candidates):
                if candidate in self._exact or (
                    i + 1 < n and candidates[i + 1] in self._wildcards
                ):
                    suffix = n - i
                    break
        return suffix + 1 if 0 < suffix < n else 0


def canonicalize(raw: str, base: CanonicalUrl | None = None) -> CanonicalUrl:
    """Parse and normalize a URL string, resolving it against ``base`` if relative.

    A relative reference is resolved as RFC 3986 section 5.2.2 says, on
    the base's own parts: a merged path keeps its empty segments, and an
    empty query (``?``) replaces the base's. Raises MalformedUrl for
    unparseable input (or a relative reference with no base) and
    UnsupportedScheme for non-http(s) schemes. Idempotent: canonicalizing
    the rendering of a canonical URL returns an equal value.
    """
    if raw is None or not raw.strip():
        raise MalformedUrl("empty URL")
    raw = raw.strip()
    if not raw.isprintable():
        # drop what urlsplit drops before it parses, so that raw is the
        # text it parses
        raw = raw.lstrip(_C0_CONTROL_OR_SPACE).translate(_TAB_AND_NEWLINE)

    try:
        scheme, netloc, path, query, _ = urlsplit(raw)
    except ValueError as exc:
        raise MalformedUrl(f"unparseable URL {raw!r}: {exc}") from exc
    query = _normalize_percent(query) if query else None

    if scheme:
        if scheme not in _ALLOWED_SCHEMES:
            raise UnsupportedScheme(f"unsupported scheme {scheme!r} in {raw!r}")
        if not netloc:
            raise MalformedUrl(f"missing host in {raw!r}")
    elif base is None:
        raise MalformedUrl(f"relative URL {raw!r} without a base")
    elif netloc or raw.startswith("//"):
        # a network-path reference: the base's scheme and its own authority
        scheme = base.scheme
        path = _remove_dot_segments(path)
    elif path:
        if path[0] != "/":
            path = base.path[: base.path.rfind("/") + 1] + path
        path = _normalize_path(_remove_dot_segments(path))
        return CanonicalUrl(base.scheme, base.host, base.port, path, query)
    elif "?" in raw.partition("#")[0]:
        return CanonicalUrl(base.scheme, base.host, base.port, base.path, query)
    else:
        return base  # a fragment alone, or nothing

    host, port = _host_and_port(netloc, raw)
    if port == _DEFAULT_PORTS[scheme]:
        port = None
    return CanonicalUrl(scheme, host, port, _normalize_path(path), query)


def _host_and_port(netloc: str, raw: str) -> tuple[str, int | None]:
    """The normalized host and the port of a URL's authority, read as
    urlsplit's ``hostname`` and ``port`` read them; userinfo is refused."""
    if "@" in netloc:
        raise MalformedUrl(f"userinfo is not supported: {raw!r}")
    if "[" in netloc:
        host, _, port = netloc.partition("[")[2].partition("]")
        port = port.partition(":")[2]
    else:
        host, _, port = netloc.partition(":")
    if not port:
        number = None
    elif port.isascii() and port.isdigit() and len(port.lstrip("0")) <= 5 and int(port) <= 65535:
        number = int(port)
    else:
        raise MalformedUrl(f"bad port in {raw!r}")
    if not host:
        raise MalformedUrl(f"empty host in {raw!r}")
    return _normalize_host(host, raw), number


def _normalize_host(host: str, raw: str) -> str:
    host = host.rstrip(".").lower()
    if not host:
        raise MalformedUrl(f"empty host in {raw!r}")
    if ":" in host:
        # bracketed IPv6 literal; urlsplit has stripped the brackets
        try:
            ipaddress.ip_address(host)
        except ValueError as exc:
            raise MalformedUrl(f"bad IPv6 literal in {raw!r}") from exc
        return host
    if any(not label for label in host.split(".")):
        raise MalformedUrl(f"empty host label in {raw!r}")
    if _FORBIDDEN_HOST_CHARS.search(host):
        raise MalformedUrl(f"forbidden code point in host of {raw!r}")
    if not host.isascii():
        host = _encoded_idn(host, raw)
    return host


def _encoded_idn(host: str, raw: str) -> str:
    """A non-ASCII host in its UTS #46 (non-transitional) ASCII form."""
    try:
        return idna.encode(host, uts46=True, transitional=False).decode("ascii")
    except UnicodeError as exc:
        raise MalformedUrl(f"cannot encode IDN host in {raw!r}") from exc


def _normalize_percent(text: str) -> str:
    # RFC 3986 section 6.2.2.2
    if "%" not in text:
        return text

    def normalize(match: re.Match) -> str:
        char = chr(int(match.group()[1:], 16))
        return char if char in _UNRESERVED else match.group().upper()

    return _PERCENT_ENCODED.sub(normalize, text)


def _normalize_path(path: str) -> str:
    # RFC 3986 sections 6.2.2.2 and 6.2.2.3, and "/" for an empty path
    return _remove_dot_segments(_normalize_percent(path) or "/")


def _remove_dot_segments(path: str) -> str:
    # RFC 3986 section 5.2.4
    if "/." not in path and path[:1] != ".":
        return path  # no segment is "." or ".."
    output: list[str] = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):
            path = "/" + path[3:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):
            path = "/" + path[4:]
            if output:
                output.pop()
        elif path == "/..":
            path = "/"
            if output:
                output.pop()
        elif path in (".", ".."):
            path = ""
        else:
            cut = path.find("/", 1)
            if cut == -1:
                output.append(path)
                path = ""
            else:
                output.append(path[:cut])
                path = path[cut:]
    return "".join(output)


def reduce_host(host: str, rules: ReductionRules) -> Reduction:
    """Reduce one lowercase host name to its site key.

    IP literals and hosts with no matching suffix rule are retained and
    flagged; for unknown suffixes the fallback key is the last two labels.
    """
    # every string ip_address accepts holds a colon or ends in a digit
    if ":" in host or host[-1:].isdigit():
        try:
            ipaddress.ip_address(host)
            return Reduction(SiteKey(host), ReductionFlag.IP_LITERAL)
        except ValueError:
            pass

    labels = host.split(".")
    keep = rules.registrable_length(labels)
    if not keep:
        return Reduction(SiteKey(".".join(labels[-2:])), ReductionFlag.UNKNOWN_SUFFIX)
    registrable = ".".join(labels[-keep:])
    if registrable in rules.subdomain_exceptions and len(labels) > keep:
        return Reduction(SiteKey(".".join(labels[-keep - 1:])))
    return Reduction(SiteKey(registrable))


@dataclass(frozen=True)
class GenericFilterList:
    """Denylist of generic sites (search engines, portals, social networks,
    tourist information, public transport) excluded from actor networks.
    ``harvest.filter_generic`` drops a record when its source or target
    site key exactly matches an entry, so each entry must be a site key.
    ``from_text`` reads an entry written in Unicode by ``SiteKey.parse``,
    and names the line of one that cannot be encoded."""

    entries: frozenset[str]
    version: str = "unversioned"

    def __post_init__(self):
        for entry in sorted(self.entries):
            SiteKey(entry)

    @classmethod
    def from_text(cls, text: str) -> "GenericFilterList":
        version = "unversioned"
        entries = set()
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                comment = stripped[1:].strip()
                if comment.upper().startswith("VERSION:"):
                    version = comment.split(":", 1)[1].strip()
                continue
            entry = stripped.split("#", 1)[0].strip().lower()
            if not entry.isascii():
                try:
                    entry = SiteKey.parse(entry).value
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {exc}") from None
            if entry:
                entries.add(entry)
        return cls(entries=frozenset(entries), version=version)

    @classmethod
    def from_file(cls, path: str | Path) -> "GenericFilterList":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def bundled(cls) -> "GenericFilterList":
        text = (
            resources.files("helixmap.data")
            .joinpath("generic_filter_default.txt")
            .read_text(encoding="utf-8")
        )
        return cls.from_text(text)
