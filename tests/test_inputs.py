"""Every study-file reader splits its file into lines by one rule.

``urls.input_lines`` reads the registry, link sets, snapshot index lists,
the generic filter and suffix lists: a line ends only at LF, CRLF or CR, a
byte-order mark is ignored, and an error names ``<path>:<line>``. Each
example here writes one reader's file with one corruption on a known
physical line, and the read must either raise naming that line or give
what the same file, split by ``\\r\\n?|\\n``, holds.
"""

from __future__ import annotations

import csv
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmap.harvest import Direction, SnapshotLinkIndex, provenance_label, read_link_set
from helixmap.registry import load_registry
from helixmap.urls import GenericFilterList, ReductionRules, SiteKey

# a character that str.splitlines ends a line at, and no reader may
INSIDE = {"form-feed": "\x0c", "next-line": "\x85", "line-separator": "\u2028"}
KINDS = [*INSIDE, "mixed-eol", "bom", "not-utf8"]


def _version(lines: list[str], mark: str) -> str:
    version = "unversioned"
    for line in lines:
        comment = line.strip()
        if comment.startswith(mark):
            comment = comment[len(mark):].strip()
            if comment.upper().startswith("VERSION:"):
                version = comment.split(":", 1)[1].strip()
    return version


def _registry(path):
    return {(actor.id, site.value, actor.label)
            for actor in load_registry(path) for site in actor.sites}


def _registry_reference(lines):
    rows = [[cell.strip() for cell in next(csv.reader([line]))] for line in lines[1:]]
    return {(row[1], row[0].lower(), row[2]) for row in rows if any(row)}


def _link_set(path):
    return {(r.source.value, r.target.value, provenance_label(r.provenance), r.first_seen)
            for r in read_link_set(path, Direction.OUTLINKS)}


def _link_set_reference(lines):
    return {(s, t, tags, int(seen)) for s, t, tags, seen in (line.split(",") for line in lines[1:])}


def _index(path):
    return SnapshotLinkIndex(path.parent).outlinks_of(SiteKey("sitea.co.uk"), 10**6)


def _index_reference(lines):
    return [url.strip() for url in lines if url.strip() and not url.strip().startswith("#")]


def _filter(path):
    filt = GenericFilterList.from_file(path)
    return filt.version, filt.entries


def _filter_reference(lines):
    entries = (line.split("#", 1)[0].strip().lower() for line in lines)
    return _version(lines, "#"), frozenset(entry for entry in entries if entry)


def _suffixes(path):
    rules = ReductionRules.from_files(path)
    return rules.version, rules._exact


def _suffixes_reference(lines):
    rules = {line.lower().split()[0] for line in lines if line.split()}
    return _version(lines, "//"), {rule for rule in rules if not rule.startswith("//")}


# each reader: its file name, the lines before the body, a body line, the
# read, and what the read gives for a file's lines split by the reference
READERS = {
    "registry": ("registry.csv",
                 ["site,actor_id,label,sector,category,role",
                  "park.co.uk,park.co.uk,P,Government,SciencePark,"],
                 "s{i}.com,a{i},Label {i},Industry,KnowledgeBasedFirm,",
                 _registry, _registry_reference),
    "link-set": ("links.csv", ["source,target,provenance,first_seen"],
                 "s{i}.com,t{i}.org,Crawl,{i}", _link_set, _link_set_reference),
    "snapshot-index": ("sitea.co.uk.out", ["# outlinks"], "http://h{i}.com/p{i}",
                       _index, _index_reference),
    "filter": ("generic.txt", ["# VERSION: 3"], "g{i}.com  # entry {i}",
               _filter, _filter_reference),
    "suffixes": ("suffixes.dat", ["// VERSION: 7", "uk"], "r{i}.uk",
                 _suffixes, _suffixes_reference),
}


@st.composite
def corrupted_files(draw, reader):
    """(kind, the file's bytes, the physical line of its corruption)."""
    _, head, body, _, _ = READERS[reader]
    kind = draw(st.sampled_from(KINDS))
    # a bad byte goes past the first 8 KiB, where a chunked decoder's offset
    # is one into a later chunk
    count = 2000 if kind == "not-utf8" else draw(st.integers(1, 20))
    lines = head + [body.format(i=i) for i in range(count)]
    if kind == "not-utf8":
        first = next(n for n in range(len(lines)) if len("\n".join(lines[:n])) > 8 * 1024)
        target = draw(st.integers(first, len(lines) - 1))
    else:
        target = draw(st.integers(0, len(lines) - 1))
    at = draw(st.integers(0, len(lines[target])))  # where in its line
    if kind in INSIDE:
        lines[target] = lines[target][:at] + INSIDE[kind] + lines[target][at:]
    # one break for the whole file, or a mix of all three
    breaks = ["\n", "\r\n", "\r"] if kind == "mixed-eol" else [draw(st.sampled_from(["\n", "\r\n"]))]
    data = b"".join((line + draw(st.sampled_from(breaks))).encode() for line in lines)
    if kind == "bom":
        data = "\ufeff".encode() + data
    if kind == "not-utf8":
        offset = len(b"".join(data.splitlines(keepends=True)[:target])) + at
        data = data[:offset] + b"\xe9" + data[offset:]
    return kind, data, target + 1


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_reader_splits_lines_at_lf_crlf_and_cr_only(tmp_path_factory, reader, data):
    name, _, _, read, reference = READERS[reader]
    kind, content, line = data.draw(corrupted_files(reader))
    path = tmp_path_factory.mktemp(reader) / name
    path.write_bytes(content)
    try:
        got = read(path)
    except ValueError as exc:
        # a corruption inside a line may make it one a reader refuses
        assert kind in INSIDE or kind == "not-utf8", exc
        assert str(exc).startswith(f"{path}:{line}: "), exc
        if kind == "not-utf8":
            assert re.fullmatch(rf"{re.escape(str(path))}:{line}: byte 0xe9 is not UTF-8", str(exc))
        return
    assert kind != "not-utf8"
    text = content.decode("utf-8").removeprefix("\ufeff")
    lines = re.split(r"\r\n?|\n", text)[:-1]  # the text ends with a line break
    assert got == reference(lines)
