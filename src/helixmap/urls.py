"""URL canonicalization and actor-level site reduction.

Link harvesting produces raw URL strings from crawls and link indexes.
Before they can be counted they are normalized into a canonical form and
then reduced to a *site key*: the registrable domain of the host (e.g.
``wlv.ac.uk``), or a configured sub-domain when a study keeps the
sub-sites of one registrable domain apart (e.g. ``cybermetrics.wlv.ac.uk``).

One host rule reads every host, in a URL or as a site key: ``_host_text``
lower-cases it, drops its root dot and writes a Unicode name in its UTS #46
form, and ``_host_fault`` refuses what is then no host. ``canonicalize``
and ``SiteKey.parse`` both apply it, so every site list (the registry, the
generic filter, the sub-domain exceptions) reads ``Google.COM.`` as the
crawled host ``google.com``, and ``SiteKey`` takes only what the rule
writes. ``input_lines`` reads every study file.

Canonicalization rules:

- only ``http``/``https`` URLs are accepted; everything else (``mailto:``,
  ``data:``, userinfo URLs) is rejected,
- the scheme is lowercased, and the host takes the one host rule: it is
  lowercased, loses its root dot, and a non-ASCII host is converted to
  punycode by UTS #46 non-transitional processing, so ``faß.de`` becomes
  ``xn--fa-hia.de``; a host with an empty label, a WHATWG forbidden domain
  code point (space, ``<``, ``>``, ``%``, ``^``, ``|``, controls) or more
  than 253 characters (RFC 1035 §2.3.4) is rejected,
- default ports are dropped, fragments are removed,
- percent-encodings in the path and query are normalized (RFC 3986
  §6.2.2.2): hex digits are uppercased and encoded unreserved characters
  are decoded, so ``%7e`` becomes ``~`` and ``%2f`` becomes ``%2F``,
- every reference is split by one grammar, RFC 3986 Appendix B, and its
  authority read as §3.2's ``host [":" port]``, a ``[`` opening an IPv6
  literal that ``]`` closes; a relative reference is resolved against its
  base as §5.2.2 says, on the base's parsed parts,
- every reference's path takes one rule: dot segments are removed from
  the path as written (§5.2.4), then its percent-encodings are normalized
  and dot segments removed again (§6.2.2.3), so ``/a/%2E%2E/../b`` is
  ``/a/b`` with or without a scheme and host,
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

import io
import ipaddress
import re
import string
from dataclasses import InitVar, dataclass
from enum import Enum
from importlib import resources
from ipaddress import IPv6Address
from pathlib import Path
from typing import TextIO

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
# what the WHATWG URL parser drops from a URL before it parses it: C0
# controls and spaces at its start, and every tab and line break
_C0_CONTROL_OR_SPACE = "".join(map(chr, range(0x21)))
_TAB_AND_NEWLINE = str.maketrans("", "", "\t\n\r")
# a URI reference split by RFC 3986 Appendix B, with section 3.1's scheme
# rule: scheme, authority, path and query, None for a part it lacks
_REFERENCE = re.compile(r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?")
_UNRESERVED = frozenset(string.ascii_letters + string.digits + "-._~")
# the longest host name RFC 1035 section 2.3.4 allows, in text form
_MAX_HOST_LENGTH = 253


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
    or an IP literal, written as the one host rule writes a host, so text
    that ``_host_fault`` refuses is no key."""

    value: str

    def __post_init__(self):
        if _host_fault(self.value):
            raise ValueError(f"bad site key {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "SiteKey":
        """A site as a file writes it, read by ``canonicalize``'s host rule,
        so ``Bücher.DE.`` is ``xn--bcher-kva.de``. ValueError for text that
        is no site key, ``MalformedUrl`` for a name IDNA cannot encode."""
        return cls(_host_text(text, text))


def _ipv6_literal(text: str) -> bool:
    """Whether ``text`` is an IPv6 address without a zone identifier."""
    try:
        return IPv6Address(text).scope_id is None
    except ValueError:
        return False


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

    The suffix snapshot, given as text or as the ``Path`` of its file and
    read by ``input_lines``, uses the standard one-rule-per-line text form:
    ``//`` comments, ``*`` wildcard labels, ``!`` exception rules. Rules are
    kept as plain suffix strings in three sets: exact rules, wildcard bases
    (``*.b.c`` is kept as ``b.c``) and exceptions (``!a.b.c`` as ``a.b.c``).
    A rule written in Unicode is kept in its ``xn--`` form, as
    ``canonicalize`` gives every host. A host is matched by looking its own
    suffixes up in those sets, longest first: an exception prevails and its
    suffix drops the leftmost label; otherwise the longest suffix that is an
    exact rule, or whose one-label-shorter suffix is a wildcard base, is the
    public suffix.

    The sub-domain exceptions, given as a set or as a file of one entry a
    line with ``#`` comments, are registrable domains whose sub-domains are
    kept as distinct site keys. Each is read by ``SiteKey.parse``, so
    ``Bücher.de`` is ``xn--bcher-kva.de`` either way, and must be a
    registrable domain, or the rules raise ``ValueError``.
    """

    def __init__(self, suffixes: str | Path, subdomain_exceptions: set[str] | None = None):
        self.version = "unversioned"
        self._exact, self._wildcards, self._exceptions = set(), set(), set()
        exact, wildcards, exceptions = self._exact, self._wildcards, self._exceptions
        try:
            with input_lines(suffixes) as lines:
                for line_no, line in enumerate(lines, start=1):
                    words = line.split()  # a rule is a line's first word
                    if not words:
                        continue
                    rule = words[0].lower()
                    kind = rule[0]
                    if kind not in "!*/":
                        rules = exact
                    elif kind == "!":
                        rules, rule = exceptions, rule[1:]
                    elif rule[:2] == "*.":
                        rules, rule = wildcards, rule[2:]
                    elif rule[:2] == "//":
                        # a comment's whole text is read only for its version
                        comment = line.strip()[2:].strip()
                        if comment.upper().startswith("VERSION:"):
                            self.version = comment.split(":", 1)[1].strip()
                        continue
                    else:
                        rules = exact  # a bare "*", or a rule starting "*x" or "/"
                    rules.add(rule if rule.isascii() else _encoded_idn(rule, line.strip()))
        except MalformedUrl as exc:
            raise InputError(suffixes, line_no, str(exc)) from None
        if not (self._exact or self._wildcards):
            raise InputError(suffixes, 1, "suffix snapshot contains no rules")
        # each exception is a site key, so that a host can match it
        self.subdomain_exceptions = frozenset(
            self._kept(SiteKey.parse(domain).value)
            for domain in sorted(subdomain_exceptions or ()))

    @classmethod
    def from_files(cls, suffix_path: str | Path,
                   exceptions_path: str | Path | None = None) -> "ReductionRules":
        rules = cls(Path(suffix_path))
        if exceptions_path is not None:
            rules.subdomain_exceptions = _read_site_list(Path(exceptions_path), rules)[0]
        return rules

    def _kept(self, domain: str) -> str:
        """``domain``, if it is a registrable domain; else ValueError."""
        labels = domain.split(".")
        if self.registrable_length(labels) != len(labels):
            raise ValueError(f"subdomain exception {domain!r} is not a registrable domain")
        return domain

    @classmethod
    def bundled(cls, subdomain_exceptions: set[str] | None = None) -> "ReductionRules":
        """Rules backed by the suffix snapshot shipped with the package."""
        return cls(_bundled("public_suffix_snapshot.dat"), subdomain_exceptions)

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
    empty query (``?``) replaces the base's. Every kind of reference takes
    the one path rule of ``_normalize_path``; a query-only reference keeps
    the base's path. Raises MalformedUrl for unparseable input, a relative
    reference with no base or a host the one host rule refuses, and
    UnsupportedScheme for non-http(s) schemes. The host is read as
    ``SiteKey.parse`` reads a site: a root dot written as ``.`` or as a
    Unicode full stop (``。``, ``．``, ``｡``) is dropped, so
    ``http://example.com。/`` is ``http://example.com/``. Idempotent:
    canonicalizing the rendering of a canonical URL returns an equal value.
    """
    if raw is None or not raw.strip():
        raise MalformedUrl("empty URL")
    raw = raw.strip()
    if not raw.isprintable():
        # drop what a browser drops before it parses, so that raw is the
        # text the grammar reads
        raw = raw.lstrip(_C0_CONTROL_OR_SPACE).translate(_TAB_AND_NEWLINE)

    scheme, authority, path, written_query = _REFERENCE.match(raw).groups()
    query = _normalize_percent(written_query) if written_query else None
    if scheme:
        scheme = scheme.lower()
        if scheme not in _ALLOWED_SCHEMES:
            raise UnsupportedScheme(f"unsupported scheme {scheme!r} in {raw!r}")
        if not authority:
            raise MalformedUrl(f"missing host in {raw!r}")
    elif base is None:
        raise MalformedUrl(f"relative URL {raw!r} without a base")
    elif authority is not None:
        scheme = base.scheme  # a network-path reference: its own authority
    elif path:
        if path[0] != "/":
            path = base.path[: base.path.rfind("/") + 1] + path
        return CanonicalUrl(base.scheme, base.host, base.port, _normalize_path(path), query)
    elif written_query is not None:
        return CanonicalUrl(base.scheme, base.host, base.port, base.path, query)
    else:
        return base  # a fragment alone, or nothing

    host, port = _host_and_port(authority, raw)
    if port == _DEFAULT_PORTS[scheme]:
        port = None
    return CanonicalUrl(scheme, host, port, _normalize_path(path), query)


def _host_and_port(authority: str, raw: str) -> tuple[str, int | None]:
    """The normalized host and the port of an authority, read as RFC 3986
    §3.2's ``host [":" port]``: a host that starts with ``[`` is an IPv6
    literal closed by ``]``. Anything else, userinfo too, is ``MalformedUrl``."""
    if "@" in authority:
        raise MalformedUrl(f"userinfo is not supported: {raw!r}")
    if authority[:1] == "[":
        host, bracket, port = authority[1:].partition("]")
        if not bracket or ":" not in host or port[:1] not in ("", ":"):
            raise MalformedUrl(f"bad IPv6 literal in {raw!r}")
        port = port[1:]
    else:
        host, _, port = authority.partition(":")
    if not port:
        number = None
    elif port.isascii() and port.isdigit() and len(port.lstrip("0")) <= 5 and int(port) <= 65535:
        number = int(port)
    else:
        raise MalformedUrl(f"bad port in {raw!r}")
    host = _host_text(host, raw)
    if fault := _host_fault(host):
        raise MalformedUrl(f"{fault} in {raw!r}")
    return host, number


def _host_text(host: str, raw: str) -> str:
    """``host`` lower-cased and, unless it holds an IPv6 literal's ``:``, without
    its one root dot and in UTS #46 form; IDNA's refusal raises ``MalformedUrl`` naming ``raw``."""
    host = host.lower()
    if ":" not in host:
        if not host.isascii():  # UTS #46 maps a Unicode full stop to "."
            host = _encoded_idn(host, raw)
        host = host.removesuffix(".")
    return host


def _host_fault(host: str) -> str | None:
    """Why ``host`` is no host as ``_host_text`` writes one, or None. As the
    WHATWG URL standard does, an IPv6 literal's zone identifier is refused."""
    if not host.isascii() or host != host.lower():
        return "host not in lower-case ASCII"
    if ":" in host:
        return None if _ipv6_literal(host) else "bad IPv6 literal"
    if ".." in f".{host}.":
        return "empty host label"
    if _FORBIDDEN_HOST_CHARS.search(host):
        return "forbidden host code point"
    if len(host) > _MAX_HOST_LENGTH:
        return f"host longer than {_MAX_HOST_LENGTH} characters"
    return None


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
    # every reference's: RFC 3986 section 5.2.4 on the path as written, as
    # 5.2.2 says, then sections 6.2.2.2 and 6.2.2.3, and "/" for an empty path
    return _remove_dot_segments(_normalize_percent(_remove_dot_segments(path)) or "/")


def _remove_dot_segments(path: str) -> str:
    # RFC 3986 section 5.2.4 for a path that is empty or starts with "/":
    # ".." drops the segment before it, and a path that ends in a dot
    # segment keeps its trailing "/"
    if "/." not in path:
        return path  # no segment is "." or ".."
    output: list[str] = []
    for segment in path[1:].split("/"):
        if segment == "..":
            if output:
                output.pop()
        elif segment != ".":
            output.append(segment)
    if segment in (".", ".."):
        output.append("")
    return "/" + "/".join(output)


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
    ``from_text`` and ``from_file`` read a list by ``input_lines``, one
    entry a line with ``#`` comments, each entry by ``SiteKey.parse``,
    which checks it once, naming its line."""

    entries: frozenset[str]
    version: str = "unversioned"
    # whether every entry was read as a SiteKey already
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool):
        if not _checked:
            for entry in sorted(self.entries):
                SiteKey(entry)

    @classmethod
    def from_text(cls, text: str) -> "GenericFilterList":
        return cls(*_read_site_list(text), _checked=True)

    @classmethod
    def from_file(cls, path: str | Path) -> "GenericFilterList":
        return cls(*_read_site_list(Path(path)), _checked=True)

    @classmethod
    def bundled(cls) -> "GenericFilterList":
        return cls.from_text(_bundled("generic_filter_default.txt"))


def _read_site_list(source: str | Path,
                    rules: ReductionRules | None = None) -> tuple[frozenset[str], str]:
    """The entries and the ``# VERSION:`` of a site list read by
    ``input_lines``: one a line, ``#`` starting a comment, each read by
    ``SiteKey.parse`` and, given ``rules``, a registrable domain under them."""
    version, entries = "unversioned", set()
    with input_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                comment = stripped[1:].strip()
                if comment.upper().startswith("VERSION:"):
                    version = comment.split(":", 1)[1].strip()
                continue
            entry = stripped.split("#", 1)[0].strip()
            if entry:
                try:
                    entry = SiteKey.parse(entry).value
                    entries.add(entry if rules is None else rules._kept(entry))
                except ValueError as exc:
                    raise InputError(source, line_no, str(exc)) from None
    return frozenset(entries), version


class InputError(ValueError):
    """A study input that cannot be read, naming the physical line at fault:
    ``<path>:<line>: <reason>`` for a file, ``line <line>: <reason>`` for text."""

    def __init__(self, source: str | Path, line: int, reason: str):
        self.path = source if isinstance(source, Path) else None
        self.line, self.reason = line, reason
        super().__init__(f"{source}:{line}: {reason}" if self.path else f"line {line}: {reason}")


class input_lines:
    """``with input_lines(source) as lines:`` reads the file at a ``Path``,
    or the text of a ``str``, as a stream of physical lines, each with its
    line break. Every study file (the registry, link sets, index lists, the
    generic filter, suffix lists and sub-domain exceptions) and robots.txt
    body is read by this one contract:

    - a file is UTF-8, and a leading byte-order mark is ignored;
    - a line ends only at LF, CRLF or CR (RFC 9309 §2.2's EOL, and the
      lines ``csv`` counts), so a form feed, U+0085 or U+2028 is in a line;
    - an error is an ``InputError``, ``<path>:<line>: <reason>``, naming the
      physical line counted from 1 (``line <line>: <reason>`` for text); a
      byte that is not UTF-8 is one.
    """

    def __init__(self, source: str | Path):
        self.source = source
        self.stream = (io.StringIO(source.removeprefix("\ufeff"), newline="")
                       if isinstance(source, str) else open(source, encoding="utf-8-sig", newline=""))

    def __enter__(self) -> TextIO:
        return self.stream

    def __exit__(self, kind, error, traceback) -> None:
        self.stream.close()
        if isinstance(error, UnicodeDecodeError):
            # the stream's offset is into the chunk it decoded: find the byte
            # in the file. Bytes split only at LF, CRLF and CR, and those up
            # to the bad byte, which is no line break, end on its line
            data = self.source.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len(data[: exc.start + 1].splitlines())
                reason = f"byte 0x{data[exc.start]:02x} is not UTF-8"
                raise InputError(self.source, line, reason) from None


def _bundled(name: str) -> str:
    return resources.files("helixmap.data").joinpath(name).read_text(encoding="utf-8")
