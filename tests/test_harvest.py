from __future__ import annotations

import gc
import gzip
import random
import re
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmap import harvest
from helixmap.harvest import (
    Direction,
    DirectionMismatch,
    HarvestResult,
    HttpLinkIndex,
    IndexUnavailable,
    LinkIndex,
    LinkRecord,
    LinkSet,
    MAX_INDEX_RESPONSE_BYTES,
    SnapshotLinkIndex,
    SourceTag,
    filter_generic,
    harvest_index,
    merge_link_sets,
    provenance_label,
    read_link_set,
    write_link_set,
)
from helixmap.urls import GenericFilterList, ReductionFlag, ReductionRules, SiteKey
from instances import random_instance

RULES = ReductionRules.bundled()


def _record(source, target, tags, seen=0):
    return LinkRecord(SiteKey(source), SiteKey(target), frozenset(tags), seen)


def _set(direction, *records):
    return LinkSet(direction, records)


# --- LinkSet and merge ------------------------------------------------------


def test_linkset_dedups_by_source_target():
    links = _set(
        Direction.OUTLINKS,
        _record("a.com", "b.com", {SourceTag.CRAWL}, 5),
        _record("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 3),
    )
    assert list(links) == [
        _record("a.com", "b.com", {SourceTag.CRAWL, SourceTag.OUTLINK_INDEX}, 3),
    ]


def test_merge_unions_keys_and_provenance():
    a = _set(Direction.OUTLINKS,
             _record("a.com", "b.com", {SourceTag.OUTLINK_INDEX}),
             _record("a.com", "c.com", {SourceTag.OUTLINK_INDEX}))
    b = _set(Direction.OUTLINKS,
             _record("a.com", "b.com", {SourceTag.CRAWL}),
             _record("a.com", "d.com", {SourceTag.CRAWL}))
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
    s = _set(Direction.OUTLINKS, _record("a.com", "b.com", {SourceTag.CRAWL}))
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
            *[_record(f"{a}.com", f"{b}.org", {tag}) for a, b in pairs],
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
             *[_record(s, t, {SourceTag.OUTLINK_INDEX}) for s, t in only_a + shared])
    b = _set(Direction.OUTLINKS,
             *[_record(s, t, {SourceTag.CRAWL}) for s, t in only_b + shared])
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
        "http://x.com/page1\nhttps://www.y.org/about\nz.net\n"
    )
    (d / "sitea.co.uk.out").write_text(
        "http://x.com/1\nhttp://x.com/2\n# comment line\nhttp://self.sitea.co.uk/\n"
    )
    (d / "siteb.co.uk.out").write_text(
        "not a url ://\nhttp://192.0.2.9/\nhttp://weird.internallab/\n"
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
    class FlakyIndex(LinkIndex):
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
    assert [s.value for s in result.failed_sites] == ["bad.co.uk"]
    assert len(result.links) == 3


class _RaisingIndex(LinkIndex):
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
    assert result.failed_sites == []


# --- generic filtering and CSV round-trip -------------------------------------


def test_filter_generic_drops_either_endpoint():
    filt = GenericFilterList(frozenset({"google.com"}))
    links = _set(
        Direction.OUTLINKS,
        _record("a.com", "google.com", {SourceTag.CRAWL}),
        _record("google.com", "b.com", {SourceTag.CRAWL}),
        _record("a.com", "b.com", {SourceTag.CRAWL}),
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
        _record("b.com", "a.com", {SourceTag.CRAWL, SourceTag.OUTLINK_INDEX}, 7),
        _record("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 9),
    )
    path = tmp_path / "links.csv"
    write_link_set(links, path)
    text = path.read_text()
    assert text.splitlines()[0] == "source,target,provenance,first_seen"
    assert "Crawl+OutlinkIndex" in text
    # rows sorted by (source, target)
    assert text.splitlines()[1].startswith("a.com,")
    assert read_link_set(path, Direction.OUTLINKS) == links


def test_write_link_set_ignores_insertion_order(tmp_path):
    records = [
        _record("b.com", "a.com", {SourceTag.CRAWL}, 1),
        _record("a.com", "b.com", {SourceTag.OUTLINK_INDEX}, 2),
        _record("a.com", "c.com", {SourceTag.CRAWL}, 3),
    ]
    forward = LinkSet(Direction.OUTLINKS, records)
    backward = LinkSet(Direction.OUTLINKS, reversed(records))
    # iteration keeps insertion order; only the writer sorts
    assert [r.key for r in backward] == [r.key for r in reversed(records)]
    write_link_set(forward, tmp_path / "forward.csv")
    write_link_set(backward, tmp_path / "backward.csv")
    assert (tmp_path / "forward.csv").read_bytes() == (tmp_path / "backward.csv").read_bytes()


def test_read_link_set_rejects_garbage(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("source,target,provenance,first_seen\na.com,b.com,NotATag,0\n")
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


def test_read_link_set_builds_one_site_key_per_site_text(tmp_path, monkeypatch):
    path = tmp_path / "links.csv"
    rows = [f"s{i % 3}.com,s{(i + 1) % 4}.com,{'Crawl' if i % 2 else 'InlinkIndex'},{i}"
            for i in range(12)]
    path.write_text("source,target,provenance,first_seen\n" + "\n".join(rows) + "\n")
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
    links = LinkSet(Direction.OUTLINKS, [_record(*r) for r in records])
    directory = tmp_path_factory.mktemp("round")
    first, second = directory / "first.csv", directory / "second.csv"
    write_link_set(links, first)
    read = read_link_set(first, Direction.OUTLINKS)
    assert read == links
    write_link_set(read, second)
    assert first.read_bytes() == second.read_bytes()


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
    added = LinkSet(Direction.INLINKS, [_record(*row) for row in rows])
    assert read == added
    assert list(read) == list(added)  # the same records in the same order
    halves = merge_link_sets(read_link_set(directory / "first.csv", Direction.INLINKS),
                             read_link_set(directory / "second.csv", Direction.INLINKS))
    assert halves == added
    assert list(halves) == list(added)


def test_read_link_set_merges_a_repeated_pair(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("source,target,provenance,first_seen\n"
                    "a.com,b.com,Crawl,9\nb.com,a.com,Crawl,1\na.com,b.com,InlinkIndex,3\n")
    links = read_link_set(path, Direction.INLINKS)
    assert links.records() == [
        _record("a.com", "b.com", {SourceTag.CRAWL, SourceTag.INLINK_INDEX}, 3),
        _record("b.com", "a.com", {SourceTag.CRAWL}, 1),
    ]
    write_link_set(links, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().splitlines()[1] == "a.com,b.com,Crawl+InlinkIndex,3"


def test_read_link_set_stores_no_object_the_collector_tracks(tmp_path):
    path = tmp_path / "links.csv"
    rows = [(f"s{i % 7}.com", f"t{i % 11}.org", {SourceTag.CRAWL}, 10**12 + i)
            for i in range(200)]
    _write_rows(path, rows + [(s, t, {SourceTag.INLINK_INDEX}, 5) for s, t, _, _ in rows[:9]])
    links = read_link_set(path, Direction.INLINKS)
    gc.collect()
    stored = list(links._records.items())
    assert len(stored) == 77
    # (source, target) -> (label, first_seen): no LinkRecord, nothing the GC walks
    assert all(type(label) is str and type(seen) is int for _, (label, seen) in stored)
    assert not any(gc.is_tracked(key) or gc.is_tracked(value) for key, value in stored)


# --- HTTP index adapter ---------------------------------------------------------

# a backlink service on loopback, which redirects /moved/... to /api/...
# and /to/<port>/... to /... on that port: five links for any site, a 500
# for broken.co.uk; stall.co.uk gets ``limit`` links of a longer answer and
# then nothing until the server is released, huge.co.uk one line longer
# than the read bound; the sites in ENCODED get one link under their own
# Content-Type, and those in RAW_ANSWERS the answer given there
SERVED = [f"http://x{i}.com/" for i in range(5)]
_HEAD = "".join(f"{url}\n" for url in SERVED[:2]).encode("utf-8")
_ZIPPED = gzip.compress("".join(f"{url}\n" for url in SERVED).encode("utf-8"))
RAW_ANSWERS = {
    # two links of a Content-Length of 500
    "short.co.uk": (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                    b"Content-Length: 500\r\n\r\n" + _HEAD),
    # a chunk of two links, and not the last chunk
    "chunked.co.uk": (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                      b"Transfer-Encoding: chunked\r\n\r\n"
                      + b"%x\r\n" % len(_HEAD) + _HEAD + b"\r\n"),
    "gzip.co.uk": (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Encoding: gzip\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(_ZIPPED) + _ZIPPED),
}
ENCODED = {
    "idn.co.uk": ("text/plain", "http://münchen.de/\n".encode("utf-8")),
    "latin.co.uk": ("text/plain; charset=ISO-8859-1", "http://münchen.de/\n".encode("latin-1")),
    "utf16.co.uk": ("text/plain; charset=utf-16", "http://münchen.de/\n".encode("utf-16")),
    "bogus.co.uk": ("text/plain; charset=x-no-such-codec", b"http://x0.com/\n"),
    # a codec that turns bytes into bytes, not into text
    "base64.co.uk": ("text/plain; charset=base64", b"aHR0cDovL3gwLmNvbS8K\n"),
}


class _IndexHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        split = urlsplit(self.path)
        if split.path.startswith(("/moved/", "/to/")):
            if split.path.startswith("/moved/"):
                location = self.path.replace("/moved/", "/api/", 1)
            else:
                _, _, port, rest = self.path.split("/", 3)
                location = f"http://127.0.0.1:{port}/{rest}"
            self.send_response(301)
            self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        query = parse_qs(split.query)
        self.server.seen.append((split.path, query, self.headers.get("Authorization")))
        self.server.peers.append(self.client_address)
        site = query.get("site", [""])[0]
        if site in RAW_ANSWERS:
            self.wfile.write(RAW_ANSWERS[site])
            self.close_connection = True
            return
        self.send_response(500 if site == "broken.co.uk" else 200)
        content_type, payload = ENCODED.get(site, ("text/plain", None))
        self.send_header("Content-Type", content_type)
        if payload is not None:
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
        elif site == "stall.co.uk":
            limit = int(query["limit"][0])
            head = "".join(f"{url}\n" for url in SERVED[:limit]).encode("utf-8")
            payload = b"http://late.com/\n"
            self.send_header("Content-Length", str(len(head) + len(payload)))
            self.end_headers()
            self.wfile.write(head)
            self.server.release.wait(10)
        elif site == "huge.co.uk":
            payload = b"http://x" + b"a" * MAX_INDEX_RESPONSE_BYTES + b".com/\n"
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
        else:
            payload = ("\n".join(SERVED) + "\n\n").encode("utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
        try:
            self.wfile.write(payload)
        except OSError:
            pass  # the client stopped reading and hung up

    def log_message(self, format, *args):
        pass


class _KeepAliveIndexHandler(_IndexHandler):
    protocol_version = "HTTP/1.1"


@contextmanager
def _serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.seen = []
    server.peers = []  # the client address of each request, in order
    server.release = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def index_server():
    with _serving(_IndexHandler) as server:
        yield server


@pytest.fixture(scope="module")
def keepalive_index_server():
    # answers with a Content-Length leave the connection open for the next query
    with _serving(_KeepAliveIndexHandler) as server:
        yield server


def _endpoint(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/api/"


def test_http_index_queries_site_and_limit_with_bearer_token(index_server):
    index = HttpLinkIndex(_endpoint(index_server), token="s3cret", timeout=5)
    assert index.inlinks_of(SiteKey("sitea.co.uk"), 3) == SERVED[:3]
    assert index.outlinks_of(SiteKey("sitea.co.uk"), 10) == SERVED
    assert index_server.seen[-2:] == [
        ("/api/inlinks", {"site": ["sitea.co.uk"], "limit": ["3"]}, "Bearer s3cret"),
        ("/api/outlinks", {"site": ["sitea.co.uk"], "limit": ["10"]}, "Bearer s3cret"),
    ]
    HttpLinkIndex(_endpoint(index_server), timeout=5).inlinks_of(SiteKey("b.co.uk"), 1)
    assert index_server.seen[-1][2] is None  # no token, no Authorization header


def test_http_index_follows_redirects(index_server):
    moved = _endpoint(index_server).replace("/api/", "/moved/")
    index = HttpLinkIndex(moved, token="s3cret", timeout=5)
    assert index.inlinks_of(SiteKey("sitea.co.uk"), 10) == SERVED
    assert index_server.seen[-1] == (
        "/api/inlinks", {"site": ["sitea.co.uk"], "limit": ["10"]}, "Bearer s3cret",
    )


def test_http_index_redirect_to_another_origin_drops_the_token(index_server,
                                                               keepalive_index_server):
    here, there = index_server.server_address[1], keepalive_index_server.server_address[1]
    for port, server, authorization in ((there, keepalive_index_server, None),
                                        (here, index_server, "Bearer s3cret")):
        index = HttpLinkIndex(f"http://127.0.0.1:{here}/to/{port}/api/", token="s3cret",
                              timeout=5)
        assert index.inlinks_of(SiteKey("sitea.co.uk"), 10) == SERVED
        index.close()
        assert server.seen[-1] == (
            "/api/inlinks", {"site": ["sitea.co.uk"], "limit": ["10"]}, authorization,
        )


@pytest.mark.parametrize("site", ["short.co.uk", "chunked.co.uk"])
def test_http_index_answer_cut_short_makes_a_failed_site(index_server, site):
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    with pytest.raises(IndexUnavailable):
        index.inlinks_of(SiteKey(site), 10)
    # the links asked for came before the cut
    assert index.inlinks_of(SiteKey(site), 2) == SERVED[:2]
    result = harvest_index([SiteKey(site), SiteKey("sitea.co.uk")],
                           index, Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == [site]
    assert len(result.links) == len(SERVED)


def test_http_index_answer_in_a_content_coding_makes_a_failed_site(index_server):
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    with pytest.raises(IndexUnavailable, match="content coding 'gzip'"):
        index.inlinks_of(SiteKey("gzip.co.uk"), 10)


def test_http_index_server_error_makes_a_failed_site(index_server):
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    result = harvest_index([SiteKey("broken.co.uk"), SiteKey("sitea.co.uk")],
                           index, Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == ["broken.co.uk"]
    assert {r.key for r in result.links} == {
        (f"x{i}.com", "sitea.co.uk") for i in range(5)
    }


def test_http_index_stops_reading_at_the_limit(index_server):
    # the service stalls after the links asked for; the read must not wait for it
    index = HttpLinkIndex(_endpoint(index_server), timeout=0.5)
    result = harvest_index([SiteKey("stall.co.uk")], index, Direction.INLINKS, RULES,
                           limit=3, now=1)
    assert result.failed_sites == []
    assert {r.key for r in result.links} == {(f"x{i}.com", "stall.co.uk") for i in range(3)}


def test_http_index_stall_before_the_limit_makes_a_failed_site(index_server):
    # five links of the ten asked for, then a stall past the timeout
    index = HttpLinkIndex(_endpoint(index_server), timeout=0.5)
    result = harvest_index([SiteKey("stall.co.uk"), SiteKey("sitea.co.uk")],
                           index, Direction.INLINKS, RULES, limit=10, now=1)
    assert [s.value for s in result.failed_sites] == ["stall.co.uk"]
    assert {r.key for r in result.links} == {
        (f"x{i}.com", "sitea.co.uk") for i in range(5)
    }


def test_http_index_response_past_the_byte_bound_makes_a_failed_site(index_server):
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    with pytest.raises(IndexUnavailable):
        index.inlinks_of(SiteKey("huge.co.uk"), 10)
    result = harvest_index([SiteKey("huge.co.uk"), SiteKey("sitea.co.uk")],
                           index, Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == ["huge.co.uk"]
    assert len(result.links) == len(SERVED)


def test_http_index_unreachable_makes_a_failed_site(index_server, closed_port):
    gone = HttpLinkIndex(f"http://127.0.0.1:{closed_port}/api/", timeout=5)
    with pytest.raises(IndexUnavailable):
        gone.inlinks_of(SiteKey("gone.co.uk"), 10)
    live = HttpLinkIndex(_endpoint(index_server), timeout=5)

    class Routed(LinkIndex):
        def inlinks_of(self, site, limit):
            return (gone if site.value == "gone.co.uk" else live).inlinks_of(site, limit)

    result = harvest_index([SiteKey("gone.co.uk"), SiteKey("sitea.co.uk")],
                           Routed(), Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == ["gone.co.uk"]
    assert {r.key for r in result.links} == {
        (f"x{i}.com", "sitea.co.uk") for i in range(5)
    }


def test_http_index_does_not_reuse_a_half_read_answer(keepalive_index_server):
    server = keepalive_index_server
    index = HttpLinkIndex(_endpoint(server), timeout=0.5)
    # the three links asked for, then a stall: the query stops inside the answer
    assert index.inlinks_of(SiteKey("stall.co.uk"), 3) == SERVED[:3]
    assert index.inlinks_of(SiteKey("sitea.co.uk"), 10) == SERVED
    assert index.outlinks_of(SiteKey("sitea.co.uk"), 2) == SERVED[:2]
    index.close()
    # the half-read answer's connection was closed; one read to its end is reused
    first, second, third = server.peers[-3:]
    assert first != second == third


def test_http_index_decodes_utf8_unless_a_charset_is_declared(index_server):
    # bare text/plain is read as UTF-8, not as the ISO-8859-1 RFC 2616 gave text/*
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    for site in ("idn.co.uk", "latin.co.uk", "utf16.co.uk"):
        assert index.inlinks_of(SiteKey(site), 10) == ["http://münchen.de/"]
        result = harvest_index([SiteKey(site)], index, Direction.INLINKS, RULES, now=1)
        assert result.skipped_urls == 0
        assert {r.key for r in result.links} == {("xn--mnchen-3ya.de", site)}


def test_http_index_joins_lines_and_characters_cut_between_reads(index_server, monkeypatch):
    # 3-byte reads cut UTF-8 and UTF-16 characters and line breaks apart
    monkeypatch.setattr(harvest, "_READ_CHUNK", 3)
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    for site in ("idn.co.uk", "latin.co.uk", "utf16.co.uk"):
        assert index.inlinks_of(SiteKey(site), 10) == ["http://münchen.de/"]
    assert index.inlinks_of(SiteKey("sitea.co.uk"), 10) == SERVED
    assert index.inlinks_of(SiteKey("sitea.co.uk"), 2) == SERVED[:2]


def test_http_index_unknown_charset_makes_a_failed_site(index_server):
    index = HttpLinkIndex(_endpoint(index_server), timeout=5)
    result = harvest_index([SiteKey("bogus.co.uk"), SiteKey("base64.co.uk"),
                            SiteKey("sitea.co.uk")],
                           index, Direction.INLINKS, RULES, now=1)
    assert [s.value for s in result.failed_sites] == ["bogus.co.uk", "base64.co.uk"]
    assert len(result.links) == len(SERVED)
