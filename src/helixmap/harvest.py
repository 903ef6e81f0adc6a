"""Link-evidence collection from indexes, and link-set algebra.

Three kinds of evidence feed an interlinking study: a crawl over the
actors' own pages, an inlink index and an outlink index (the role
commercial search engines used to play). Each observation is reduced to a
directed ``source site -> target site`` row carrying provenance tags, and
rows are deduplicated per (source, target) pair.

A ``LinkSet`` maps the (source, target) pair of site-key texts to one int
per row, ``first_seen << 3 | tags``, where ``tags`` holds one bit per
``SourceTag``. Producers add rows; reading, filtering, merging and writing
a set work on those ints alone, and two tables indexed by the tag bits
give back a row's provenance label and tag set. ``LinkRecord`` objects
are made only while a caller iterates a set or asks it for records.

The inlink and outlink evidence comes from a ``SnapshotLinkIndex``: a
directory of per-site link lists, the form a study's exported inlink and
outlink lists take. The module opens no socket; fetching pages is the
crawler's. ``urls.input_lines``, whose docstring states the input-file
contract, reads index lists and link sets.
"""

from __future__ import annotations

import csv
import logging
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice, starmap
from pathlib import Path
from typing import Iterator, KeysView

from .urls import (
    GenericFilterList,
    InputError,
    MalformedUrl,
    ReductionFlag,
    ReductionRules,
    SiteKey,
    UnsupportedScheme,
    canonicalize,
    input_lines,
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
    """A link index cannot answer: no snapshot directory, or no answer for a site."""


@dataclass(frozen=True, slots=True)
class LinkRecord:
    source: SiteKey
    target: SiteKey
    provenance: frozenset[SourceTag]
    first_seen: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.source.value, self.target.value)


def provenance_label(tags: frozenset[SourceTag]) -> str:
    return "+".join(sorted(tag.value for tag in tags))


# A stored value is ``first_seen << _TAG_BITS | mask``, with bit i of the
# mask standing for the i-th SourceTag. Indexed by a mask, _TAG_SETS holds
# the one frozenset and _LABELS the one label string of its tags; the empty
# mask (index 0) is never stored.
_TAG_BITS = len(SourceTag)
_ALL_TAGS = (1 << _TAG_BITS) - 1
# each tag's bit, keyed by the tag's value: a str hashes in C, a SourceTag
# in Python code
_BIT = {tag.value: 1 << i for i, tag in enumerate(SourceTag)}
_TAG_SETS: tuple[frozenset[SourceTag], ...] = tuple(
    frozenset(tag for tag in SourceTag if mask & _BIT[tag.value]) for mask in range(_ALL_TAGS + 1)
)
_LABELS: tuple[str, ...] = tuple(map(provenance_label, _TAG_SETS))
_MASKS: dict[str, int] = {label: mask for mask, label in enumerate(_LABELS) if mask}


def _merged(old: int, new: int) -> int:
    """The stored values of two records of one pair as one record's: the
    earlier ``first_seen`` and the union of their tags."""
    return min(old, new) & ~_ALL_TAGS | (old | new) & _ALL_TAGS


def check_first_seen(first_seen: object) -> None:
    """Refuse a ``first_seen`` that the CSV form cannot hold: anything but
    a non-negative ``int`` (a ``bool`` included)."""
    if type(first_seen) is not int or first_seen < 0:
        raise ValueError(f"first_seen must be a non-negative int, got {first_seen!r}")


class LinkSet:
    """Directed link records, at most one per (source, target) pair.

    ``_records`` maps the (source, target) pair of site-key texts to one
    int, ``first_seen << 3 | tags``, with one bit of ``tags`` per
    ``SourceTag``. Neither those ints nor the keys, tuples of strings, are
    tracked by the cyclic garbage collector, however many records a set
    holds.

    ``LinkRecord``s are made on demand, by iteration and ``records()``, and
    share one provenance frozenset per tag set. Iteration yields them in
    insertion order; ``records()`` returns them sorted by (source, target),
    for output that must be deterministic.
    """

    def __init__(self, direction: Direction):
        self.direction = direction
        self._records: dict[tuple[str, str], int] = {}

    def add(self, source: SiteKey, target: SiteKey, tag: SourceTag, first_seen: int) -> None:
        """Add a row; one already held for the pair takes the union of the
        tags and the earlier ``first_seen``, which must be a non-negative
        ``int``."""
        check_first_seen(first_seen)
        key = (source.value, target.value)
        value = first_seen << _TAG_BITS | _BIT[tag._value_]
        old = self._records.setdefault(key, value)
        if old is not value:
            self._records[key] = _merged(old, value)

    @staticmethod
    def _record(key: tuple[str, str], value: int) -> LinkRecord:
        return LinkRecord(SiteKey(key[0]), SiteKey(key[1]), _TAG_SETS[value & _ALL_TAGS],
                          value >> _TAG_BITS)

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


# --- the snapshot index -----------------------------------------------------


class SnapshotLinkIndex:
    """Directory of per-site link lists: ``<sitekey>.in`` / ``<sitekey>.out``,
    one URL per line, each read by ``urls.input_lines``. Blank lines and
    ``#`` comment lines are skipped. A missing file means no recorded links
    for that site. A query reads a list only as far as its ``limit``-th
    URL: lines past the limit are neither used nor decoded."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise IndexUnavailable(f"snapshot directory {self.directory} does not exist")

    def _read(self, site: SiteKey, suffix: str, limit: int) -> list[str]:
        path = self.directory / f"{site.value}.{suffix}"
        if not path.is_file():
            return []
        with input_lines(path) as lines:
            urls = (url for url in map(str.strip, lines) if url and url[0] != "#")
            return list(islice(urls, limit))

    def inlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._read(site, "in", limit)

    def outlinks_of(self, site: SiteKey, limit: int) -> list[str]:
        return self._read(site, "out", limit)


# --- harvesting -------------------------------------------------------------


@dataclass
class HarvestResult:
    """A harvested link set plus everything that went wrong along the way:
    ``failed_sites`` maps each site whose query failed to the error's text."""

    links: LinkSet
    failed_sites: dict[SiteKey, str] = field(default_factory=dict)
    skipped_urls: int = 0
    flags: dict[ReductionFlag, int] = field(default_factory=dict)


def harvest_index(
    sites: list[SiteKey],
    index: SnapshotLinkIndex,
    direction: Direction,
    rules: ReductionRules,
    limit: int = 1000,
    now: int | None = None,
) -> HarvestResult:
    """Add one row per URL the index lists for a site, each URL reduced to
    its site key; a URL that does not parse, or is not http(s), is skipped.
    A URL is read as ``http`` unless the text before its first ``://`` is an
    RFC 3986 scheme, so ``x.com/a``, ``//x.com/a`` and
    ``x.com/out?u=http://y.com`` are all ``x.com``'s.

    A site whose list raises ``OSError``, ``InputError`` (a list that is
    not UTF-8) or ``IndexUnavailable`` is recorded as failed, with the
    error's text, and the harvest goes on; any other exception is a bug
    and propagates.
    Self-pairs are kept here; the network builder removes them. ``now``,
    every row's ``first_seen``, and ``limit``, the most URLs a site's query
    gives, must each be a non-negative ``int`` (not a ``bool``); both are
    checked before the first query.
    """
    if now is None:
        now = int(time.time())
    check_first_seen(now)
    if type(limit) is not int or limit < 0:
        raise ValueError(f"limit must be a non-negative int, got {limit!r}")
    inbound = direction is Direction.INLINKS
    tag = SourceTag.INLINK_INDEX if inbound else SourceTag.OUTLINK_INDEX
    query = index.inlinks_of if inbound else index.outlinks_of
    result = HarvestResult(links=LinkSet(direction))
    for site in sites:
        try:
            urls = query(site, limit)
        except (OSError, InputError, IndexUnavailable) as exc:
            log.warning("index query failed for %s: %s", site.value, exc)
            result.failed_sites[site] = str(exc)
            continue
        for raw in urls:
            reduced = _reduce_url(raw, rules)
            if reduced is None:
                result.skipped_urls += 1
                continue
            if reduced.flag is not None:
                result.flags[reduced.flag] = result.flags.get(reduced.flag, 0) + 1
            if inbound:
                result.links.add(reduced.site, site, tag, now)
            else:
                result.links.add(site, reduced.site, tag, now)
    return result


# an RFC 3986 section 3.1 scheme and the "://" after it
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


def _reduce_url(raw: str, rules: ReductionRules):
    # index dumps often list bare hosts, and hosts after "//": a URL is read
    # as http unless the text before its first "://" is a scheme
    if raw.startswith("//"):
        raw = "http:" + raw
    elif "://" not in raw or not _SCHEME.match(raw):
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
    rows sorted by (source, target), written from the stored values.

    Quoting is RFC 4180's, kept minimal as ``csv.writer`` keeps it by
    default: a field holding "," or '"' is written in double quotes with
    each '"' doubled, and any other field as it is. Only a site text can
    hold either, and none holds a line break, as a site key holds no white
    space; each distinct site is quoted once, however many rows name it.
    """
    records = links._records
    cells = {site: _csv_field(site) for site in set(chain.from_iterable(records))}
    keys = sorted(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LINKSET_HEADER) + "\n")
        fh.writelines(
            f"{cells[source]},{cells[target]},{_LABELS[value & _ALL_TAGS]},{value >> _TAG_BITS}\n"
            for (source, target), value in zip(keys, map(records.__getitem__, keys))
        )


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _tag_mask(text: str) -> int:
    """The tag mask of a provenance text, which must be a canonical label:
    "+"-joined ``SourceTag`` values, sorted, no repeats; ``ValueError``
    names the fault of any other text."""
    mask = _MASKS.get(text)
    if mask is None:
        tags = frozenset(SourceTag(t) for t in text.split("+"))
        raise ValueError(
            f"provenance {text!r} is not in canonical form {provenance_label(tags)!r}"
        )
    return mask


def read_link_set(path: str | Path, direction: Direction) -> LinkSet:
    """Read the CSV form ``write_link_set`` writes.

    The first row must be the header; blank rows are skipped. Every other
    row has four fields:

    - ``source`` and ``target``: ``SiteKey`` values, so non-empty,
      lower-case and free of whitespace;
    - ``provenance``: one or more "+"-joined ``SourceTag`` values, sorted
      and without repeats, as ``provenance_label`` writes them;
    - ``first_seen``: ASCII digits without a leading zero.

    The file is read by ``urls.input_lines``, and a row that breaks a rule
    raises an ``InputError`` naming its line. Rows repeating a (source,
    target) pair merge as ``LinkSet.add`` merges them.

    Rows go straight into the set's storage; no ``LinkRecord`` is built.
    Each distinct site text is checked as a ``SiteKey`` once and stored as
    one string, which every key naming the site shares. A provenance text
    is read as its tag mask from the table of the seven canonical labels.
    """
    path = Path(path)
    links = LinkSet(direction)
    records = links._records
    sites: dict[str, str] = {}  # site text -> the first string read for it
    try:
        with input_lines(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != LINKSET_HEADER:
                raise InputError(path, 1, f"bad link-set header {header!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise InputError(path, line_no, f"expected 4 fields, got {len(row)}")
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
                    mask = _MASKS.get(tags_text) or _tag_mask(tags_text)
                    if not (first_seen.isascii() and first_seen.isdigit()):
                        raise ValueError(f"first_seen {first_seen!r} is not ASCII digits")
                    if first_seen[0] == "0" and len(first_seen) > 1:
                        raise ValueError(f"first_seen {first_seen!r} has a leading zero")
                    key = (source, target)
                    value = int(first_seen) << _TAG_BITS | mask
                    old = records.setdefault(key, value)
                    if old is not value:
                        records[key] = _merged(old, value)
                except ValueError as exc:
                    raise InputError(path, line_no, str(exc)) from exc
    except csv.Error as exc:  # a field past csv's size limit, say
        raise InputError(path, reader.line_num, str(exc)) from None
    return links
