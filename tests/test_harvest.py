from __future__ import annotations

import csv
import gc
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmap import harvest
from helixmap.harvest import (
    Direction,
    DirectionMismatch,
    HarvestResult,
    IndexUnavailable,
    LinkRecord,
    LinkSet,
    SnapshotLinkIndex,
    SourceTag,
    filter_generic,
    harvest_index,
    merge_link_sets,
    provenance_label,
    read_link_set,
    write_link_set,
)
from helixmap.registry import load_registry
from helixmap.urls import (
    GenericFilterList,
    InputError,
    ReductionFlag,
    ReductionRules,
    SiteKey,
    reduce_host,
)
from instances import random_instance

RULES = ReductionRules.bundled()


def _record(source, target, tags, seen=0):
    return LinkRecord(SiteKey(source), SiteKey(target), frozenset(tags), seen)


def _set(direction, *rows):
    """A set of the rows (source, target, tags, first_seen), each added once
    per tag, as producers that saw a link by several sources add it."""
    links = LinkSet(direction)
    for source, target, tags, seen in rows:
        for tag in tags:
            links.add(SiteKey(source), SiteKey(target), tag, seen)
    return links


# --- LinkSet and merge ------------------------------------------------------


def test_linkset_dedups_by_source_target():
    links = _set(
        Direction.OUTLINKS,
        ("a.com", "b.com", {SourceTag.CRAWL}, 5),
        ("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 3),
    )
    assert list(links) == [
        _record("a.com", "b.com", {SourceTag.CRAWL, SourceTag.OUTLINK_INDEX}, 3),
    ]


def test_merge_unions_keys_and_provenance():
    a = _set(Direction.OUTLINKS,
             ("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 0),
             ("a.com", "c.com", {SourceTag.OUTLINK_INDEX}, 0))
    b = _set(Direction.OUTLINKS,
             ("a.com", "b.com", {SourceTag.CRAWL}, 0),
             ("a.com", "d.com", {SourceTag.CRAWL}, 0))
    merged = merge_link_sets(a, b)
    assert [(r.key, r.provenance) for r in merged] == [
        (("a.com", "b.com"), {SourceTag.CRAWL, SourceTag.OUTLINK_INDEX}),
        (("a.com", "c.com"), {SourceTag.OUTLINK_INDEX}),
        (("a.com", "d.com"), {SourceTag.CRAWL}),
    ]


def test_merge_direction_mismatch():
    with pytest.raises(DirectionMismatch):
        merge_link_sets(LinkSet(Direction.INLINKS), LinkSet(Direction.OUTLINKS))


def test_merge_idempotent():
    s = _set(Direction.OUTLINKS, ("a.com", "b.com", {SourceTag.CRAWL}, 0))
    assert merge_link_sets(s, s) == s


_pairs = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("wxyz")),
    max_size=12,
)


@given(xs=_pairs, ys=_pairs, zs=_pairs)
@settings(max_examples=100)
def test_merge_algebra_matches_naive_union(xs, ys, zs):
    def build(pairs, tag):
        return _set(
            Direction.OUTLINKS,
            *[(f"{a}.com", f"{b}.org", {tag}, 0) for a, b in pairs],
        )

    a = build(xs, SourceTag.OUTLINK_INDEX)
    b = build(ys, SourceTag.CRAWL)
    c = build(zs, SourceTag.CRAWL)

    merged = merge_link_sets(a, b)
    naive_keys = {(f"{x}.com", f"{y}.org") for x, y in xs} | {
        (f"{x}.com", f"{y}.org") for x, y in ys
    }
    assert {r.key for r in merged} == naive_keys
    # commutativity and associativity
    assert merge_link_sets(a, b) == merge_link_sets(b, a)
    assert merge_link_sets(merge_link_sets(a, b), c) == merge_link_sets(
        a, merge_link_sets(b, c)
    )


def test_merge_cardinality_identity():
    only_a = [("a.com", f"t{i}.com") for i in range(5)]
    only_b = [("b.com", f"t{i}.com") for i in range(3)]
    shared = [("s.com", f"t{i}.com") for i in range(2)]
    a = _set(Direction.OUTLINKS,
             *[(s, t, {SourceTag.OUTLINK_INDEX}, 0) for s, t in only_a + shared])
    b = _set(Direction.OUTLINKS,
             *[(s, t, {SourceTag.CRAWL}, 0) for s, t in only_b + shared])
    merged = merge_link_sets(a, b)
    assert len(merged) == len(only_a) + len(only_b) + len(shared)
    both = [r for r in merged if len(r.provenance) == 2]
    assert len(both) == len(shared)


# --- provenance label -------------------------------------------------------


def test_provenance_label_order():
    label = provenance_label(frozenset({SourceTag.OUTLINK_INDEX, SourceTag.CRAWL}))
    assert label == "Crawl+OutlinkIndex"


# --- snapshot index harvesting ----------------------------------------------


@pytest.fixture
def snapshot_dir(tmp_path):
    d = tmp_path / "snap"
    d.mkdir()
    (d / "sitea.co.uk.in").write_text(
        "http://x.com/page1\nhttps://www.y.org/about\nz.net\n",
        encoding="utf-8",
    )
    (d / "sitea.co.uk.out").write_text(
        "http://x.com/1\nhttp://x.com/2\n# comment line\nhttp://self.sitea.co.uk/\n",
        encoding="utf-8",
    )
    (d / "siteb.co.uk.out").write_text(
        "not a url ://\nhttp://192.0.2.9/\nhttp://weird.internallab/\n",
        encoding="utf-8",
    )
    return d


def test_snapshot_inlinks(snapshot_dir):
    index = SnapshotLinkIndex(snapshot_dir)
    result = harvest_index([SiteKey("sitea.co.uk")], index, Direction.INLINKS, RULES, now=1)
    keys = {r.key for r in result.links}
    assert keys == {
        ("x.com", "sitea.co.uk"),
        ("y.org", "sitea.co.uk"),
        ("z.net", "sitea.co.uk"),
    }
    assert all(r.provenance == {SourceTag.INLINK_INDEX} for r in result.links)


def test_snapshot_outlinks_dedup_and_self_pairs(snapshot_dir):
    index = SnapshotLinkIndex(snapshot_dir)
    result = harvest_index([SiteKey("sitea.co.uk")], index, Direction.OUTLINKS, RULES, now=1)
    keys = {r.key for r in result.links}
    # duplicates collapse; the self-pair is retained at this stage
    assert keys == {("sitea.co.uk", "x.com"), ("sitea.co.uk", "sitea.co.uk")}


def test_harvest_counts_flags_and_skips(snapshot_dir):
    index = SnapshotLinkIndex(snapshot_dir)
    result = harvest_index([SiteKey("siteb.co.uk")], index, Direction.OUTLINKS, RULES, now=1)
    assert result.skipped_urls == 1
    assert result.flags[ReductionFlag.IP_LITERAL] == 1
    assert result.flags[ReductionFlag.UNKNOWN_SUFFIX] == 1


def test_harvest_limit(snapshot_dir):
    index = SnapshotLinkIndex(snapshot_dir)
    result = harvest_index([SiteKey("sitea.co.uk")], index, Direction.INLINKS, RULES,
                           limit=2, now=1)
    assert len(result.links) == 2


def test_harvest_isolates_per_site_failures(snapshot_dir):
    class FlakyIndex:
        def __init__(self, inner):
            self.inner = inner

        def inlinks_of(self, site, limit):
            if site.value == "bad.co.uk":
                raise IndexUnavailable("backend exploded")
            return self.inner.inlinks_of(site, limit)

    index = FlakyIndex(SnapshotLinkIndex(snapshot_dir))
    result = harvest_index(
        [SiteKey("bad.co.uk"), SiteKey("sitea.co.uk")],
        index, Direction.INLINKS, RULES, now=1,
    )
    assert result.failed_sites == {SiteKey("bad.co.uk"): "backend exploded"}
    assert len(result.links) == 3


class _RaisingIndex:
    def __init__(self, error: Exception):
        self.error = error

    def inlinks_of(self, site, limit):
        raise self.error


def test_harvest_records_transport_errors_as_failed_sites():
    index = _RaisingIndex(ConnectionError("connection refused"))
    result = harvest_index([SiteKey("a.co.uk")], index, Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == ["a.co.uk"]


def test_harvest_lets_programming_errors_propagate():
    index = _RaisingIndex(TypeError("unsupported operand"))
    with pytest.raises(TypeError):
        harvest_index([SiteKey("a.co.uk")], index, Direction.INLINKS, RULES, now=1)


def test_missing_snapshot_dir_is_unavailable(tmp_path):
    with pytest.raises(IndexUnavailable):
        SnapshotLinkIndex(tmp_path / "nope")


def test_missing_site_file_means_no_links(snapshot_dir):
    index = SnapshotLinkIndex(snapshot_dir)
    result = harvest_index([SiteKey("unlisted.co.uk")], index, Direction.INLINKS, RULES, now=1)
    assert len(result.links) == 0
    assert result.failed_sites == {}


def test_a_line_break_other_than_lf_or_cr_is_part_of_its_url(tmp_path):
    # str.splitlines would split both lines in two, harvesting the strangers
    # y.com and q.com, both flagged as unknown suffixes
    (tmp_path / "sitea.co.uk.out").write_text(
        "http://a.com/x\u2028y.com\nhttp://b.com/p\x0cq.com\n", encoding="utf-8")
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert sorted(r.key for r in result.links) == [("sitea.co.uk", "a.com"),
                                                   ("sitea.co.uk", "b.com")]
    assert result.flags == {} and result.skipped_urls == 0


def test_an_index_url_with_an_ipv6_zone_is_skipped(tmp_path):
    # its site key would hold a space, which SiteKey refuses
    (tmp_path / "sitea.co.uk.out").write_text("http://[fe80::1%a b]/\nhttp://x.com/\n",
                                              encoding="utf-8")
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert [r.key for r in result.links] == [("sitea.co.uk", "x.com")]
    assert result.skipped_urls == 1


def test_a_host_ending_in_a_unicode_full_stop_does_not_stop_the_harvest(tmp_path):
    (tmp_path / "sitea.co.uk.out").write_text(
        "http://a.com/\nhttp://example.com\u3002/x\nhttp://b.com/\n", encoding="utf-8")
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert [r.key for r in result.links] == [
        ("sitea.co.uk", "a.com"), ("sitea.co.uk", "example.com"), ("sitea.co.uk", "b.com")]
    assert result.skipped_urls == 0 and result.failed_sites == {}


def test_an_index_url_is_read_as_http_unless_it_starts_with_a_scheme(tmp_path):
    # RFC 3986 section 3.1: a scheme is a letter, then letters, digits, "+",
    # "-" and "."; a "://" later in a URL starts no scheme
    lines = ["//x.com/a", "y.com/out?u=http://other.org", "z.com", "HTTP://W.com/",
             "a.b-c+d://v.com/", "ftp://u.com/", "mailto:me@t.com", "javascript:void(0)"]
    (tmp_path / "sitea.co.uk.out").write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert [r.target.value for r in result.links] == ["x.com", "y.com", "z.com", "w.com"]
    assert result.skipped_urls == 4


def test_an_index_list_that_is_not_utf8_is_a_failed_site(tmp_path):
    path = tmp_path / "sitea.co.uk.out"
    path.write_bytes("http://x.com/\nhttp://café.com/\n".encode("latin-1"))
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert result.failed_sites == {SiteKey("sitea.co.uk"): f"{path}:2: byte 0xe9 is not UTF-8"}
    assert len(result.links) == 0


def test_an_index_query_reads_a_list_only_as_far_as_its_limit(tmp_path):
    # 176 KiB of URLs, then a byte that is not UTF-8 on line 10,002
    path = tmp_path / "sitea.co.uk.out"
    path.write_bytes(b"# links\n" + b"http://x.com/page\n" * 10000 + b"http://caf\xe9.com/\n")
    index = SnapshotLinkIndex(tmp_path)
    assert index.outlinks_of(SiteKey("sitea.co.uk"), 1) == ["http://x.com/page"]
    with pytest.raises(InputError, match=":10002: byte 0xe9 is not UTF-8$"):
        index.outlinks_of(SiteKey("sitea.co.uk"), 10001)


def test_an_index_url_whose_host_is_longer_than_253_characters_is_skipped(tmp_path):
    host = "a." * 125 + "com"  # 253 characters
    (tmp_path / "sitea.co.uk.out").write_text(f"http://{host}/\nhttp://b{host}/\n",
                                              encoding="utf-8")
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(tmp_path),
                           Direction.OUTLINKS, RULES, now=1)
    assert [r.key for r in result.links] == [("sitea.co.uk", "a.com")]
    assert result.skipped_urls == 1


# --- generic filtering and CSV round-trip -------------------------------------


def test_filter_generic_drops_either_endpoint():
    filt = GenericFilterList(frozenset({"google.com"}))
    links = _set(
        Direction.OUTLINKS,
        ("a.com", "google.com", {SourceTag.CRAWL}, 0),
        ("google.com", "b.com", {SourceTag.CRAWL}, 0),
        ("a.com", "b.com", {SourceTag.CRAWL}, 0),
    )
    kept, dropped = filter_generic(links, filt)
    assert dropped == 2
    assert {r.key for r in kept} == {("a.com", "b.com")}


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_filter_generic_matches_bruteforce(seed):
    rng = random.Random(seed)
    _, inlinks, outlinks, _, _, _ = random_instance(rng)
    sites = sorted({site.value for links in (inlinks, outlinks)
                    for r in links for site in (r.source, r.target)})
    denied = set(rng.sample(sites, rng.randint(0, len(sites)))) | {"unnamed.org"}
    filt = GenericFilterList(frozenset(denied))
    for links in (inlinks, outlinks):
        kept, dropped = filter_generic(links, filt)
        expected = [r for r in links
                    if r.source.value not in denied and r.target.value not in denied]
        # the expected records, in the input's order, and the input's own storage
        assert list(kept) == expected
        assert all(kept._records[r.key] is links._records[r.key] for r in expected)
        assert kept.direction is links.direction
        assert dropped == sum(1 for r in links
                              if r.source.value in denied or r.target.value in denied)


def test_link_set_csv_round_trip(tmp_path):
    links = _set(
        Direction.OUTLINKS,
        ("b.com", "a.com", {SourceTag.CRAWL, SourceTag.OUTLINK_INDEX}, 7),
        ("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 9),
    )
    path = tmp_path / "links.csv"
    write_link_set(links, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "source,target,provenance,first_seen"
    assert "Crawl+OutlinkIndex" in text
    # rows sorted by (source, target)
    assert text.splitlines()[1].startswith("a.com,")
    assert read_link_set(path, Direction.OUTLINKS) == links


def test_write_link_set_ignores_insertion_order(tmp_path):
    rows = [
        ("b.com", "a.com", {SourceTag.CRAWL}, 1),
        ("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 2),
        ("a.com", "c.com", {SourceTag.CRAWL}, 3),
    ]
    forward = _set(Direction.OUTLINKS, *rows)
    backward = _set(Direction.OUTLINKS, *reversed(rows))
    # iteration keeps insertion order; only the writer sorts
    assert [r.key for r in backward] == [(s, t) for s, t, _, _ in reversed(rows)]
    write_link_set(forward, tmp_path / "forward.csv")
    write_link_set(backward, tmp_path / "backward.csv")
    assert (tmp_path / "forward.csv").read_bytes() == (tmp_path / "backward.csv").read_bytes()


def test_read_link_set_rejects_garbage(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("source,target,provenance,first_seen\na.com,b.com,NotATag,0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError):
        read_link_set(path, Direction.OUTLINKS)


_GOOD_ROWS = "source,target,provenance,first_seen\na.com,b.com,Crawl,1\nb.com,a.com,Crawl,0\n"


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(",b.com,Crawl,3", id="empty-source"),
        pytest.param("a.com,,Crawl,3", id="empty-target"),
        pytest.param(" a.com,b.com,Crawl,3", id="leading-space"),
        pytest.param("a.com,b .com,Crawl,3", id="inner-space"),
        pytest.param("a.com,b.com\t,Crawl,3", id="trailing-tab"),
        pytest.param("A.com,b.com,Crawl,3", id="upper-source"),
        pytest.param("a.com,b.COM,Crawl,3", id="upper-target"),
        pytest.param("a.com,b.com,Crawl, 1_0", id="seen-space-underscore"),
        pytest.param("a.com,b.com,Crawl,1_0", id="seen-underscore"),
        pytest.param("a.com,b.com,Crawl,-5", id="seen-negative"),
        pytest.param("a.com,b.com,Crawl,\u0663", id="seen-arabic-indic-digit"),
        pytest.param("a.com,b.com,Crawl,", id="seen-empty"),
        pytest.param("a.com,b.com,Crawl,007", id="seen-leading-zero"),
        pytest.param("a.com,b.com,Crawl,00", id="seen-zero-zero"),
        pytest.param("a.com,b.com,Bogus,3", id="unknown-tag"),
        pytest.param("a.com,b.com,Crawl+Bogus,3", id="known-and-unknown-tag"),
        pytest.param("a.com,b.com,,3", id="empty-provenance"),
        pytest.param("a.com,b.com,OutlinkIndex+Crawl,3", id="tags-out-of-order"),
        pytest.param("a.com,b.com,Crawl+Crawl,3", id="tag-repeated"),
        pytest.param("a.com,b.com,Crawl,3,extra", id="five-fields"),
    ],
)
def test_read_link_set_rejects_malformed_row_after_valid_ones(tmp_path, row):
    # rows 2 and 3 put both sites and the tag text in the read caches first
    path = tmp_path / "links.csv"
    path.write_text(_GOOD_ROWS + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "):
        read_link_set(path, Direction.OUTLINKS)


def test_read_link_set_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # past the reader's first 8 KiB, where the offset its decoder reports is
    # one into a later chunk, not into the file
    path = tmp_path / "links.csv"
    rows = "".join(f"s{i}.com,t{i}.org,Crawl,{i}\n" for i in range(600))
    data = ("source,target,provenance,first_seen\n" + rows + "café.com,b.com,Crawl,1\n")
    path.write_bytes(data.encode("cp1252"))
    assert data.encode("cp1252").index(b"\xe9") > 8 * 1024
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:602: byte 0xe9 is not UTF-8$"):
        read_link_set(path, Direction.OUTLINKS)


def test_read_link_set_names_the_line_of_a_field_csv_refuses(tmp_path):
    # csv refuses a field of more than 128 KiB with its own csv.Error
    path = tmp_path / "links.csv"
    path.write_text(_GOOD_ROWS + "a.com,b.com,Crawl," + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: field larger than "):
        read_link_set(path, Direction.OUTLINKS)


def test_read_link_set_builds_one_site_key_per_site_text(tmp_path, monkeypatch):
    path = tmp_path / "links.csv"
    rows = [f"s{i % 3}.com,s{(i + 1) % 4}.com,{'Crawl' if i % 2 else 'InlinkIndex'},{i}"
            for i in range(12)]
    path.write_text("source,target,provenance,first_seen\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    checked = []

    def counting(text):
        checked.append(text)
        return SiteKey(text)

    monkeypatch.setattr(harvest, "SiteKey", counting)
    links = read_link_set(path, Direction.INLINKS)
    monkeypatch.undo()
    assert len(links) == 12
    # each site text is checked once, as a SiteKey
    assert sorted(checked) == ["s0.com", "s1.com", "s2.com", "s3.com"]
    # the set holds every site's text, and every key naming it, as one string
    sites = {id(text): text for key in links.pairs() for text in key}
    assert sorted(sites.values()) == ["s0.com", "s1.com", "s2.com", "s3.com"]
    assert len({id(r.provenance) for r in links}) == 2


_records = st.lists(
    st.tuples(
        st.sampled_from(["a.com", "b.org", "c.co.uk", "www.d.ac.uk"]),
        st.sampled_from(["a.com", "b.org", "e.net"]),
        st.sets(st.sampled_from(SourceTag), min_size=1),
        st.integers(0, 2**40),
    ),
    max_size=30,
)


@given(records=_records)
@settings(max_examples=100, deadline=None)
def test_link_set_csv_round_trip_is_exact(tmp_path_factory, records):
    links = _set(Direction.OUTLINKS, *records)
    directory = tmp_path_factory.mktemp("round")
    first, second = directory / "first.csv", directory / "second.csv"
    write_link_set(links, first)
    read = read_link_set(first, Direction.OUTLINKS)
    assert read == links
    write_link_set(read, second)
    assert first.read_bytes() == second.read_bytes()


# site texts holding what csv quotes ("," and '"') and punctuation it does not,
# in labels that are not empty, as a site key's are
_quoted_sites = st.lists(st.text(alphabet="ab-,\"'!*0", min_size=1, max_size=3),
                         min_size=1, max_size=2).map(".".join)


@given(rows=st.lists(
    st.tuples(_quoted_sites, _quoted_sites,
              st.sets(st.sampled_from(SourceTag), min_size=1), st.integers(0, 2**40)),
    max_size=30,
))
@settings(max_examples=200, deadline=None)
def test_write_link_set_writes_what_csv_writer_writes(tmp_path_factory, rows):
    links = _set(Direction.INLINKS, *rows)
    directory = tmp_path_factory.mktemp("quoted")
    written, expected = directory / "written.csv", directory / "expected.csv"
    write_link_set(links, written)
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "target", "provenance", "first_seen"])
        writer.writerows((r.source.value, r.target.value, provenance_label(r.provenance),
                          r.first_seen) for r in links.records())
    assert written.read_bytes() == expected.read_bytes()
    assert read_link_set(written, Direction.INLINKS) == links


_rows = st.lists(
    st.tuples(
        st.sampled_from(["a.com", "b.org", "c.co.uk"]),
        st.sampled_from(["a.com", "b.org", "e.net"]),
        st.sets(st.sampled_from(SourceTag), min_size=1),
        st.integers(0, 2**40),
    ),
    max_size=40,
)


def _write_rows(path, rows):
    path.write_text(
        "source,target,provenance,first_seen\n"
        + "".join(f"{s},{t},{provenance_label(frozenset(tags))},{seen}\n"
                  for s, t, tags, seen in rows),
        encoding="utf-8",
    )


@given(rows=_rows)
@settings(max_examples=100, deadline=None)
def test_read_link_set_matches_adding_each_row(tmp_path_factory, rows):
    # unsorted rows, pairs repeated under other labels and dates
    directory = tmp_path_factory.mktemp("rows")
    half = len(rows) // 2
    for name, part in (("all", rows), ("first", rows[:half]), ("second", rows[half:])):
        _write_rows(directory / f"{name}.csv", part)
    read = read_link_set(directory / "all.csv", Direction.INLINKS)
    added = _set(Direction.INLINKS, *rows)
    assert read == added
    assert list(read) == list(added)  # the same records in the same order
    halves = merge_link_sets(read_link_set(directory / "first.csv", Direction.INLINKS),
                             read_link_set(directory / "second.csv", Direction.INLINKS))
    assert halves == added
    assert list(halves) == list(added)


def test_read_link_set_merges_a_repeated_pair(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("source,target,provenance,first_seen\n"
                    "a.com,b.com,Crawl,9\nb.com,a.com,Crawl,1\na.com,b.com,InlinkIndex,3\n",
                    encoding="utf-8")
    links = read_link_set(path, Direction.INLINKS)
    assert links.records() == [
        _record("a.com", "b.com", {SourceTag.CRAWL, SourceTag.INLINK_INDEX}, 3),
        _record("b.com", "a.com", {SourceTag.CRAWL}, 1),
    ]
    write_link_set(links, tmp_path / "out.csv")
    written = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert written.splitlines()[1] == "a.com,b.com,Crawl+InlinkIndex,3"


def test_read_link_set_stores_no_object_the_collector_tracks(tmp_path):
    path = tmp_path / "links.csv"
    rows = [(f"s{i % 7}.com", f"t{i % 11}.org", {SourceTag.CRAWL}, 10**12 + i)
            for i in range(200)]
    _write_rows(path, rows + [(s, t, {SourceTag.INLINK_INDEX}, 5) for s, t, _, _ in rows[:9]])
    links = read_link_set(path, Direction.INLINKS)
    gc.collect()
    stored = list(links._records.items())
    assert len(stored) == 77
    # (source, target) -> one int: no LinkRecord, no tuple, nothing the GC walks
    assert all(type(source) is str and type(target) is str and type(value) is int
               for (source, target), value in stored)
    assert not any(gc.is_tracked(key) or gc.is_tracked(value) for key, value in stored)



# --- the stored int form against a model --------------------------------------

_TAG_SETS = [frozenset(tags) for n in range(1, len(SourceTag) + 1)
             for tags in combinations(SourceTag, n)]
_MODEL_SITES = ["a.com", "b.org", "c.net"]
_model_rows = st.lists(
    st.tuples(st.sampled_from(_MODEL_SITES), st.sampled_from(_MODEL_SITES),
              st.sampled_from(_TAG_SETS), st.sampled_from([0, 1, 2**40, 2**70])),
    max_size=25,
)


def _model(rows):
    """{pair: (tags, earliest first_seen)} of rows, in first-seen order."""
    model = {}
    for source, target, tags, seen in rows:
        old_tags, old_seen = model.get((source, target), (frozenset(), seen))
        model[(source, target)] = (old_tags | tags, min(old_seen, seen))
    return model


def _as_model(links):
    return {r.key: (r.provenance, r.first_seen) for r in links}


@given(xs=_model_rows, ys=_model_rows, denied=st.sets(st.sampled_from(_MODEL_SITES)))
@settings(max_examples=200, deadline=None)
def test_link_sets_hold_what_their_model_holds(tmp_path_factory, xs, ys, denied):
    a, b = _set(Direction.OUTLINKS, *xs), _set(Direction.OUTLINKS, *ys)
    assert list(_as_model(a).items()) == list(_model(xs).items())
    model = _model(xs + ys)
    merged = merge_link_sets(a, b)
    assert list(_as_model(merged).items()) == list(model.items())
    assert [r.key for r in merged.records()] == sorted(model)

    kept, dropped = filter_generic(merged, GenericFilterList(frozenset(denied)))
    expected = {pair: value for pair, value in model.items()
                if pair[0] not in denied and pair[1] not in denied}
    assert list(_as_model(kept).items()) == list(expected.items())
    assert dropped == len(model) - len(expected)

    directory = tmp_path_factory.mktemp("model")
    write_link_set(merged, directory / "written.csv")
    assert _as_model(read_link_set(directory / "written.csv", Direction.OUTLINKS)) == model
    # rows in any order, pairs repeated under other tags and dates
    _write_rows(directory / "rows.csv", xs + ys)
    read = read_link_set(directory / "rows.csv", Direction.OUTLINKS)
    assert list(_as_model(read).items()) == list(model.items())
    assert read == merged


@pytest.mark.parametrize("first_seen", [-1, 1.5, True, "1", None])
def test_add_refuses_a_first_seen_the_csv_form_cannot_hold(first_seen):
    links = LinkSet(Direction.OUTLINKS)
    with pytest.raises(ValueError, match="first_seen must be a non-negative int"):
        links.add(SiteKey("a.com"), SiteKey("b.com"), SourceTag.CRAWL, first_seen)
    assert len(links) == 0


@pytest.mark.parametrize("now", [-1, 1.5, True])
def test_harvest_index_checks_now_before_its_first_query(now):
    queried = []

    class RecordingIndex:
        def inlinks_of(self, site, limit):
            queried.append(site)
            return ["http://x.com/"]

    with pytest.raises(ValueError, match="first_seen must be a non-negative int"):
        harvest_index([SiteKey("a.co.uk")], RecordingIndex(), Direction.INLINKS, RULES, now=now)
    assert queried == []


@pytest.mark.parametrize("limit", [-1, True, 1.5])
def test_harvest_index_checks_limit_before_its_first_query(tmp_path, limit):
    # an unlisted site first, whose query reads no list, then a listed one
    (tmp_path / "sitea.co.uk.out").write_text("http://x.com/\n", encoding="utf-8")
    queried = []

    class RecordingIndex(SnapshotLinkIndex):
        def outlinks_of(self, site, limit):
            queried.append(site)
            return super().outlinks_of(site, limit)

    with pytest.raises(ValueError, match="limit must be a non-negative int"):
        harvest_index([SiteKey("siteb.co.uk"), SiteKey("sitea.co.uk")], RecordingIndex(tmp_path),
                      Direction.OUTLINKS, RULES, limit=limit, now=1)
    assert queried == []


# --- a UTF-8 byte-order mark -------------------------------------------------

def _harvested(path):
    result = harvest_index([SiteKey("sitea.co.uk")], SnapshotLinkIndex(path.parent),
                           Direction.OUTLINKS, RULES, now=1)
    return result.links, result.skipped_urls


def _suffixes_read(path):
    rules = ReductionRules.from_files(path)
    return rules.version, reduce_host("www.bbc.uk", rules)


def _exceptions_read(path):
    rules = ReductionRules.from_files(path.parent / "suffixes.dat", path)
    return rules.subdomain_exceptions, reduce_host("cybermetrics.wlv.ac.uk", rules)


# each input file: its name, its text, and what a study reads from it
_INPUTS = {
    "registry": ("registry.csv",
                 "site,actor_id,label,sector,category,role\n"
                 "park.co.uk,park.co.uk,P,Government,SciencePark,\n",
                 lambda path: load_registry(path).actors()),
    "link-set": ("links.csv", "source,target,provenance,first_seen\na.com,b.com,Crawl,1\n",
                 lambda path: read_link_set(path, Direction.OUTLINKS)),
    "snapshot-index": ("sitea.co.uk.out", "http://x.com/1\nhttp://y.org/\n", _harvested),
    "filter": ("generic.txt", "# VERSION: 3\nx.com\n", GenericFilterList.from_file),
    "suffixes": ("suffixes.dat", "uk\n// VERSION: 7\n", _suffixes_read),
    "exceptions": ("exceptions.txt", "wlv.ac.uk\n", _exceptions_read),
}


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_each_input_reads_the_same_with_a_byte_order_mark(tmp_path, name):
    # Excel's "CSV UTF-8" export and older Notepad versions write one
    filename, text, read = _INPUTS[name]
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        d = tmp_path / encoding
        d.mkdir()
        (d / "suffixes.dat").write_text("uk\nac.uk\n", encoding="utf-8")
        (d / filename).write_text(text, encoding=encoding)
        results.append(read(d / filename))
    assert results[0] == results[1]
