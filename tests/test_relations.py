"""Metamorphic relations over a whole study: the real pipeline runs twice,
on inputs that differ by a change that must not matter, and the outputs are
compared, so a relation needs no golden and no second implementation. Each
test names the stage its relation guards.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmap.harvest import Direction, SnapshotLinkIndex, filter_generic, harvest_index, write_link_set
from helixmap.metrics import category_matrix, category_matrix_csv
from helixmap.network import build_networks
from helixmap.registry import load_registry
from helixmap.urls import GenericFilterList, ReductionRules
from york import FIRST_SEEN, YorkFiles, harvest_york_files, write_york_files, york_study


def _study_output(files: YorkFiles, rng: random.Random | None) -> dict[str, bytes]:
    """The link-set CSVs and the category matrix CSV that a study of
    ``files`` writes, harvesting its sites in sorted order, or in an order
    ``rng`` shuffles."""
    reg = load_registry(files.registry)
    rules = ReductionRules.from_files(files.suffixes, files.exceptions)
    generic = GenericFilterList.from_file(files.generic_filter)
    index = SnapshotLinkIndex(files.index)
    sites = sorted(site for actor in reg.actors() for site in actor.sites)
    if rng is not None:
        rng.shuffle(sites)
    output, kept = {}, {}
    for direction in Direction:
        harvested = harvest_index(sites, index, direction, rules, now=FIRST_SEEN)
        kept[direction] = filter_generic(harvested.links, generic)[0]
        path = files.index.parent / f"{direction.name.lower()}.csv"
        write_link_set(kept[direction], path)
        output[path.name] = path.read_bytes()
    built = build_networks(kept[Direction.INLINKS], kept[Direction.OUTLINKS], reg)
    output["matrix.csv"] = category_matrix_csv(category_matrix(built.pruned, reg)).encode()
    return output


@pytest.fixture(scope="module")
def york_output(tmp_path_factory):
    """Seed 0's study, and the files that a study of it writes."""
    study = york_study(0)
    return study, _study_output(write_york_files(study, tmp_path_factory.mktemp("york")), None)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_order_relation_guards_every_stage_that_writes_a_file(tmp_path_factory, york_output, seed):
    # ROADMAP item 3, relation 1: the registry's rows, each index list's
    # lines and the order of the harvested sites shuffled give the same files
    study, expected = york_output
    rng = random.Random(seed)
    files = write_york_files(study, tmp_path_factory.mktemp("shuffled"))
    for path in [files.registry, *sorted(files.index.iterdir())]:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head, rows = (lines[:1], lines[1:]) if path == files.registry else ([], lines)
        rng.shuffle(rows)
        path.write_text("".join(head + rows), encoding="utf-8")
    output = _study_output(files, rng)
    assert output.keys() == expected.keys() == {"inlinks.csv", "outlinks.csv", "matrix.csv"}
    for name, written in output.items():
        assert written == expected[name], name


def _respelt(url: str, n: int) -> str:
    """``url``, an index line naming an http(s) URL or a bare host, spelt
    another way that names the same resource: its scheme's default port
    written out, a dot segment, the first character of its last path
    segment percent-encoded, and an empty query or a fragment. Any other
    line is returned as it is."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        if ":" in url.split("/")[0]:
            return url  # mailto:, javascript:
        scheme, rest = "", url  # a bare host, which a harvest reads as http
    host = re.match(r"[^/?#]*", rest).group()
    path, mark, query = rest[len(host):].partition("?")
    path = "/." + (path or "/")
    last = path.rfind("/") + 1
    if path[last:last + 1].isalnum():
        path = f"{path[:last]}%{ord(path[last]):02x}{path[last + 1:]}"
    port = "443" if scheme.lower() == "https" else "80"
    tail = f"?{query}#top" if mark else ("?" if n % 2 else "#top")
    return f"{scheme}{sep}{host}:{port}{path}{tail}"


def test_spelling_relation_guards_canonicalize_and_reduce_host(tmp_path):
    # ROADMAP item 3, relation 2: every index URL spelt another way gives
    # the link sets of the URLs as written
    study = york_study(0)
    (tmp_path / "written").mkdir()
    (tmp_path / "respelt").mkdir()
    written = write_york_files(study, tmp_path / "written")
    respelt = write_york_files(study, tmp_path / "respelt")
    spelt = itertools.count()
    for path in respelt.index.iterdir():
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(f"{_respelt(line, next(spelt))}\n" for line in lines),
                        encoding="utf-8")
    assert _respelt("HTTPS://WWW.a.test。/a/b/../c", 1) == (
        "HTTPS://WWW.a.test。:443/./a/b/../%63?")
    assert _respelt("a.test/about.html", 0) == "a.test:80/./%61bout.html#top"
    assert _respelt("https://x.test/s?q=1", 0) == "https://x.test:443/./%73?q=1#top"
    assert _respelt("mailto:a@b.test", 0) == "mailto:a@b.test"

    expected, found = harvest_york_files(written)[1], harvest_york_files(respelt)[1]
    for direction in Direction:
        assert found[direction].links == expected[direction].links, direction
        assert found[direction].skipped_urls == expected[direction].skipped_urls, direction
        assert len(expected[direction].links) > 100
