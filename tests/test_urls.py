"""Canonicalization and site-reduction tests."""

from __future__ import annotations

import ipaddress
import os
import re
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from helixmap import urls
from helixmap.crawler import extract_hrefs
from helixmap.harvest import Direction, LinkRecord, LinkSet, SourceTag, filter_generic
from helixmap.urls import (
    CanonicalUrl,
    GenericFilterList,
    MalformedUrl,
    Reduction,
    ReductionFlag,
    ReductionRules,
    SiteKey,
    UnsupportedScheme,
    canonicalize,
    reduce_host,
)

RULES = ReductionRules.bundled()
RULES_WLV = ReductionRules.bundled({"wlv.ac.uk"})
SNAPSHOT_TEXT = (
    resources.files("helixmap.data")
    .joinpath("public_suffix_snapshot.dat")
    .read_text(encoding="utf-8")
)


# --- canonicalize -----------------------------------------------------------


def test_case_and_fragment_normalization():
    c = canonicalize("HTTP://WWW.WLV.AC.UK/Path#frag")
    assert c.scheme == "http"
    assert c.host == "www.wlv.ac.uk"
    assert c.path == "/Path"
    assert c.query is None
    assert str(c) == "http://www.wlv.ac.uk/Path"


def test_bare_host_gets_root_path():
    c = canonicalize("http://cybermetrics.wlv.ac.uk")
    assert c.host == "cybermetrics.wlv.ac.uk"
    assert c.path == "/"


def test_relative_resolution_against_base():
    base = canonicalize("http://example.org/x/y.html")
    c = canonicalize("../a.html", base=base)
    assert c.host == "example.org"
    assert c.path == "/a.html"


def test_scheme_relative_reference():
    base = canonicalize("https://example.org/dir/")
    c = canonicalize("//other.org/p", base=base)
    assert c.scheme == "https"
    assert c.host == "other.org"


def test_empty_host_is_malformed():
    with pytest.raises(MalformedUrl):
        canonicalize("http://")


def test_relative_without_base_is_malformed():
    with pytest.raises(MalformedUrl):
        canonicalize("just/a/path.html")


def test_non_http_schemes_rejected():
    for raw in ("mailto:someone@example.org", "data:text/plain,hi", "ftp://x.org/"):
        with pytest.raises(UnsupportedScheme):
            canonicalize(raw)


def test_userinfo_rejected():
    with pytest.raises(MalformedUrl):
        canonicalize("http://user:pw@example.org/")


def test_default_port_dropped_nondefault_kept():
    assert canonicalize("http://a.com:80/x").port is None
    assert canonicalize("https://a.com:443/x").port is None
    assert canonicalize("http://a.com:8080/x").port == 8080


def test_dot_segments_removed_from_absolute_url():
    assert canonicalize("http://a.com/x/./y/../z").path == "/x/z"


def test_percent_encoded_unreserved_characters_are_decoded():
    assert canonicalize("http://a.com/%7euser/") == canonicalize("http://a.com/~user/")
    assert str(canonicalize("http://a.com/%41%2d%5F?q=%7E")) == "http://a.com/A-_?q=~"
    # decoded before dot segments are removed
    assert canonicalize("http://a.com/x/%2E%2E/y").path == "/y"


def test_other_percent_encodings_are_uppercased_not_decoded():
    c = canonicalize("http://a.com/a%2fb%c3%a9?x=%2f%25")
    assert str(c) == "http://a.com/a%2Fb%C3%A9?x=%2F%25"


def test_idn_host_punycoded():
    assert canonicalize("http://münchen.de/").host == "xn--mnchen-3ya.de"


def test_idn_deviation_characters_kept_by_uts46():
    # IDNA 2003 would map these to fass.de and xn--0xahbl4a.gr
    assert canonicalize("http://faß.de/").host == "xn--fa-hia.de"
    assert canonicalize("http://σοφός.gr/").host == "xn--0xagbn4a.gr"


def test_empty_label_rejected():
    with pytest.raises(MalformedUrl):
        canonicalize("http://a..b.com/")


@pytest.mark.parametrize("host", ["ex ample.com", "a<b>.com", "exa%41mple.com", "a|b.com"])
def test_forbidden_host_code_point_rejected(host):
    with pytest.raises(MalformedUrl):
        canonicalize(f"http://{host}/")


_hostnames = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)
    .filter(lambda s: not s.startswith("-") and not s.endswith("-")),
    min_size=1,
    max_size=4,
).map(".".join)

_paths = st.lists(
    st.sampled_from(["a", "b", "Page", "x1", ".", "..", "idx.html",
                     "%7euser", "%2f", "%2E%2e", "%c3%A9", "%25"]),
    min_size=0,
    max_size=5,
).map(lambda segs: "/" + "/".join(segs))


@given(
    scheme=st.sampled_from(["http", "https", "HTTP", "Https"]),
    host=_hostnames,
    port=st.one_of(st.none(), st.integers(min_value=1, max_value=65535)),
    path=_paths,
    query=st.one_of(st.none(), st.sampled_from(["a=1", "q=x&y=2", "z", "q=%7e&r=%2f"])),
    fragment=st.one_of(st.none(), st.sampled_from(["top", "sec-2"])),
)
@settings(max_examples=300)
def test_canonicalize_idempotent(scheme, host, port, path, query, fragment):
    raw = f"{scheme}://{host}"
    if port is not None:
        raw += f":{port}"
    raw += path
    if query is not None:
        raw += f"?{query}"
    if fragment is not None:
        raw += f"#{fragment}"
    first = canonicalize(raw)
    again = canonicalize(str(first))
    assert again == first


# hrefs as pages write them, built from a scheme (in mixed case, or not
# http(s), or none), an authority with a port or an IDN host, path segments
# with dots and escapes, and a query or fragment; or the same pieces in any
# order
_SCHEMES = ["", "http:", "HTTP:", "https:", "hTtPs:", "Http:", "ftp:", "mailto:", "MailTo:",
            "javascript:"]
_AUTHORITIES = ["", "//", "//site.com", "//bücher.de", "//xn--bcher-kva.de:8080",
                "//WWW.Other.ORG:80", "//[::1]:8443", "//me@site.com", "//site.com:"]
_SEGMENTS = ["/", "..", ".", "%7e", "%7E", "x.html", "a b"]
_TAILS = ["", "?", "?a=1", "#", "#top", "?q=%7e#f"]
_HREFS = st.one_of(
    st.tuples(st.sampled_from(_SCHEMES), st.sampled_from(_AUTHORITIES),
              st.lists(st.sampled_from(_SEGMENTS), max_size=5).map("".join),
              st.sampled_from(_TAILS)).map("".join),
    st.lists(st.sampled_from(_SCHEMES + _AUTHORITIES + _SEGMENTS + _TAILS),
             min_size=1, max_size=8).map("".join),
)
_BASES = [canonicalize(raw) for raw in (
    "http://site.com/dir/page.html", "https://bücher.de:8443/a/b/?q=1", "http://[::1]/",
    "HTTP://Other.org",
)]


@given(raw=_HREFS)
@settings(max_examples=300)
def test_a_base_changes_only_what_canonicalize_cannot_read_without_one(raw):
    # a crawl resolves an href once, without a base, and reuses the answer on
    # every page unless the answer is MalformedUrl
    try:
        alone = canonicalize(raw)
    except UnsupportedScheme:
        for base in _BASES:
            with pytest.raises(UnsupportedScheme):
                canonicalize(raw, base=base)
        return
    except MalformedUrl:
        return
    for base in _BASES:
        assert canonicalize(raw, base=base) == alone


# RFC 3986 section 5.4's examples against its base, each with its target
# after canonicalization (no fragment, no empty query, "/" for an empty
# path) or the error canonicalize raises; then where resolution departs
# from urljoin, which drops empty segments of a merged path and ignores an
# empty query
_RFC3986_BASE = "http://a/b/c/d;p?q"
_RFC3986_EXAMPLES = [
    # section 5.4.1, normal examples
    ("g:h", UnsupportedScheme),
    ("g", "http://a/b/c/g"),
    ("./g", "http://a/b/c/g"),
    ("g/", "http://a/b/c/g/"),
    ("/g", "http://a/g"),
    ("//g", "http://g/"),
    ("?y", "http://a/b/c/d;p?y"),
    ("g?y", "http://a/b/c/g?y"),
    ("#s", "http://a/b/c/d;p?q"),
    ("g#s", "http://a/b/c/g"),
    ("g?y#s", "http://a/b/c/g?y"),
    (";x", "http://a/b/c/;x"),
    ("g;x", "http://a/b/c/g;x"),
    ("g;x?y#s", "http://a/b/c/g;x?y"),
    ("", MalformedUrl),  # the RFC's base; canonicalize refuses an empty URL
    (".", "http://a/b/c/"),
    ("./", "http://a/b/c/"),
    ("..", "http://a/b/"),
    ("../", "http://a/b/"),
    ("../g", "http://a/b/g"),
    ("../..", "http://a/"),
    ("../../", "http://a/"),
    ("../../g", "http://a/g"),
    # section 5.4.2, abnormal examples
    ("../../../g", "http://a/g"),
    ("../../../../g", "http://a/g"),
    ("/./g", "http://a/g"),
    ("/../g", "http://a/g"),
    ("g.", "http://a/b/c/g."),
    (".g", "http://a/b/c/.g"),
    ("g..", "http://a/b/c/g.."),
    ("..g", "http://a/b/c/..g"),
    ("./../g", "http://a/b/g"),
    ("./g/.", "http://a/b/c/g/"),
    ("g/./h", "http://a/b/c/g/h"),
    ("g/../h", "http://a/b/c/h"),
    ("g;x=1/./y", "http://a/b/c/g;x=1/y"),
    ("g;x=1/../y", "http://a/b/c/y"),
    ("g?y/./x", "http://a/b/c/g?y/./x"),
    ("g?y/../x", "http://a/b/c/g?y/../x"),
    ("g#s/./x", "http://a/b/c/g"),
    ("g#s/../x", "http://a/b/c/g"),
    ("http:g", MalformedUrl),  # strict: a scheme and no host
    # where urljoin differs: it gives /b/c/d/e, /b/c/b and the base's query
    ("d//e", "http://a/b/c/d//e"),
    ("./a//../b", "http://a/b/c/a/b"),
    ("?", "http://a/b/c/d;p"),
]


@pytest.mark.parametrize("reference, expected", _RFC3986_EXAMPLES)
def test_references_resolve_as_rfc3986_examples_say(reference, expected):
    base = canonicalize(_RFC3986_BASE)
    if isinstance(expected, str):
        assert str(canonicalize(reference, base=base)) == expected
        assert canonicalize(oracle.resolve(_RFC3986_BASE, reference)) == canonicalize(expected)
    else:
        with pytest.raises(expected):
            canonicalize(reference, base=base)


def _crawled(html: str, url: str) -> list:
    """The targets a crawl takes the links of a page at ``url`` for: what
    ``extract_hrefs`` gives, resolved against the page's URL, or the error
    canonicalize raises."""
    targets = []
    for href in extract_hrefs(html, url):
        try:
            targets.append(str(canonicalize(href, base=canonicalize(url))))
        except (MalformedUrl, UnsupportedScheme) as exc:
            targets.append(type(exc))
    return targets


@pytest.mark.parametrize("reference, expected", _RFC3986_EXAMPLES)
def test_a_base_element_resolves_references_as_the_documents_url_does(reference, expected):
    link = f'<a href="{reference}">'
    alone = _crawled(link, _RFC3986_BASE)
    assert alone == ([] if reference == "" else [expected])  # an empty href is no link
    # the same link on a page elsewhere whose <base> is the RFC's base
    based = _crawled(f'<base href="{_RFC3986_BASE}">{link}', "http://elsewhere.org/x/y.html?z")
    assert based == alone


# a scheme as RFC 3986 section 3.1 writes it
_RFC3986_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*")


@given(raw=_HREFS, base=st.sampled_from(_BASES))
@settings(max_examples=300)
def test_resolution_matches_the_rfc3986_transcription(raw, base):
    # Appendix B takes any text before the first ":" for a scheme; text that
    # no scheme can be makes no URI reference, and urlsplit reads it as a
    # path. An empty href is no link, and canonicalize refuses it.
    scheme = oracle.split_reference(raw)[0]
    assume(raw.strip() and (scheme is None or _RFC3986_SCHEME.fullmatch(scheme)))
    try:
        expected = canonicalize(oracle.resolve(str(base), raw))
    except (MalformedUrl, UnsupportedScheme) as exc:
        with pytest.raises(type(exc)):
            canonicalize(raw, base=base)
        return
    assert canonicalize(raw, base=base) == expected


# --- SiteKey ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("", id="empty"),
        pytest.param("Wlv.ac.uk", id="upper-case"),
        pytest.param("XN--MNCHEN-3YA.DE", id="upper-case-punycode"),
        pytest.param(" wlv.ac.uk", id="leading-space"),
        pytest.param("wlv.ac.uk\n", id="trailing-newline"),
        pytest.param("uni.ac.uk; york.ac.uk", id="two-sites"),
        pytest.param("wlv.ac\u00a0uk", id="no-break-space"),
        # canonicalize writes every host in ASCII
        pytest.param("bücher.de", id="unicode"),
    ],
)
def test_site_key_refuses_text_no_reduced_host_can_be(text):
    with pytest.raises(ValueError, match="^bad site key "):
        SiteKey(text)


@pytest.mark.parametrize(
    "text", ["wlv.ac.uk", "cybermetrics.wlv.ac.uk", "192.0.2.7", "2001:db8::1",
             "xn--mnchen-3ya.de", "intranet.localweb"],
)
def test_site_key_accepts_every_kind_of_reduced_host(text):
    assert SiteKey(text).value == text
    assert reduce_host(text, RULES_WLV).site == SiteKey(text)


# --- reduce_host ------------------------------------------------------------


def test_reduce_to_registrable_domain():
    r = reduce_host("www.wlv.ac.uk", RULES)
    assert r == Reduction(SiteKey("wlv.ac.uk"))


def test_reduce_keeps_configured_subdomain():
    r = reduce_host("cybermetrics.wlv.ac.uk", RULES_WLV)
    assert r.site == SiteKey("cybermetrics.wlv.ac.uk")
    assert r.flag is None


def test_excepted_registrable_domain_itself_stays_registrable():
    r = reduce_host("wlv.ac.uk", RULES_WLV)
    assert r.site.value == "wlv.ac.uk"


def test_deep_subdomain_truncated_to_one_label_below_registrable():
    r = reduce_host("www.cybermetrics.wlv.ac.uk", RULES_WLV)
    assert r.site.value == "cybermetrics.wlv.ac.uk"


def test_reduce_multi_level_suffix():
    assert reduce_host("foo.example.co.uk", RULES).site.value == "example.co.uk"


def test_ip_literal_passed_through_flagged():
    r = reduce_host("192.0.2.7", RULES)
    assert r.site.value == "192.0.2.7"
    assert r.flag is ReductionFlag.IP_LITERAL


def test_unknown_suffix_falls_back_to_last_two_labels():
    r = reduce_host("deep.intranet.localweb", RULES)
    assert r.site.value == "intranet.localweb"
    assert r.flag is ReductionFlag.UNKNOWN_SUFFIX


def test_wildcard_and_exception_rules():
    assert reduce_host("a.b.ck", RULES).site.value == "a.b.ck"
    assert reduce_host("deep.a.b.ck", RULES).site.value == "a.b.ck"
    assert reduce_host("www.ck", RULES).site.value == "www.ck"
    assert reduce_host("sub.www.ck", RULES).site.value == "www.ck"


def test_subdomain_exception_must_be_registrable():
    with pytest.raises(ValueError):
        ReductionRules.bundled({"www.wlv.ac.uk"})


@pytest.mark.parametrize("domain", ["wlv .ac.uk", "wlv.ac.uk ", "WLV.ac.uk", ""])
def test_subdomain_exception_must_be_a_site_key(domain):
    # no host could match such an exception: its sub-domains would merge silently
    with pytest.raises(ValueError, match="bad site key"):
        ReductionRules.bundled({domain})


def test_subdomain_exception_file_line_must_be_a_site_key(tmp_path):
    suffixes = tmp_path / "suffixes.dat"
    suffixes.write_text("uk\nac.uk\n", encoding="utf-8")
    exceptions = tmp_path / "exceptions.txt"
    exceptions.write_text("# kept sub-domains\nWLV.ac.uk\n", encoding="utf-8")
    rules = ReductionRules.from_files(suffixes, exceptions)
    assert reduce_host("cybermetrics.wlv.ac.uk", rules).site.value == "cybermetrics.wlv.ac.uk"
    exceptions.write_text("wlv .ac.uk\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad site key"):
        ReductionRules.from_files(suffixes, exceptions)


# Independent oracle: a second, hand-rolled matcher that enumerates suffix
# candidates from the host side instead of iterating rules.


def _oracle_registrable(host: str, snapshot_text: str) -> str | None:
    exact, wild, exc = set(), set(), set()
    for line in snapshot_text.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("!"):
            exc.add(line[1:])
        elif line.startswith("*."):
            wild.add(line[2:])
        else:
            exact.add(line)
    labels = host.split(".")
    best_suffix = None
    for k in range(len(labels), 0, -1):
        candidate = ".".join(labels[-k:])
        rest = ".".join(labels[-k:][1:])
        if candidate in exc:
            best_suffix = rest
            break
        if candidate in exact or (k >= 2 and rest in wild):
            best_suffix = candidate
            break
    if best_suffix is None:
        return None
    n = len(best_suffix.split(".")) if best_suffix else 0
    if len(labels) <= n:
        return None
    return ".".join(labels[-(n + 1):])


SAMPLED_HOSTS = [
    "www.wlv.ac.uk", "wlv.ac.uk", "a.b.c.example.co.uk", "example.co.uk",
    "york.ac.uk", "sub.york.gov.uk", "x.plc.uk", "deep.web.police.uk",
    "school.primary.sch.uk", "www.school.primary.sch.uk", "foo.com",
    "a.foo.com", "b.a.foo.com", "foo.org", "cdn.foo.net", "foo.info",
    "x.y.biz", "service.io", "api.service.io", "m.example.dev",
    "labs.example.app", "uni.edu", "dept.uni.edu", "agency.gov",
    "x.mil", "europa.eu", "sub.europa.eu", "firma.de", "www.firma.de",
    "site.fr", "shop.nl", "x.be", "y.se", "z.no", "w.dk", "v.fi",
    "a.it", "b.es", "c.pt", "d.pl", "e.cz", "f.at", "g.ch", "h.us",
    "i.ca", "j.ru", "biz.com.au", "www.biz.com.au", "uni.edu.au",
    "x.co.nz", "y.govt.nz", "k.co.jp", "l.go.jp", "m.com.cn",
    "n.gov.cn", "o.com.br", "p.co.in", "q.ac.in", "a.b.ck", "www.ck",
    "deep.x.y.ck", "unknownhost", "only.unknowntld", "a.b.unknowntld",
]


def _assert_matches_oracle(host: str) -> None:
    expected = _oracle_registrable(host, SNAPSHOT_TEXT)
    got = reduce_host(host, RULES)
    if expected is None:
        assert got.flag is ReductionFlag.UNKNOWN_SUFFIX, host
        assert got.site.value == ".".join(host.split(".")[-2:]), host
    else:
        assert got.site.value == expected, host
        assert got.flag is None, host


def test_reduction_matches_independent_matcher_on_sampled_hosts():
    assert len(SAMPLED_HOSTS) >= 50
    for host in SAMPLED_HOSTS:
        _assert_matches_oracle(host)


# every rule of the snapshot as a host suffix: "*.sch.uk" gives "sch.uk" and
# "!www.ck" gives "www.ck", so prefixes land on wildcards and exceptions
_RULE_SUFFIXES = sorted(
    {
        line.strip().lstrip("!").removeprefix("*.")
        for line in SNAPSHOT_TEXT.splitlines()
        if line.strip() and not line.startswith("//")
    }
)


@given(
    prefix=st.lists(
        st.one_of(st.sampled_from(["www", "a", "b"]), _hostnames.map(lambda h: h.split(".")[0])),
        max_size=3,
    ),
    suffix=st.sampled_from(_RULE_SUFFIXES),
)
@settings(max_examples=300)
def test_reduction_matches_independent_matcher_on_rule_suffixes(prefix, suffix):
    _assert_matches_oracle(".".join([*prefix, suffix]))


def test_longest_exception_prevails_whatever_the_hash_seed():
    # both exceptions match z.y.x.a.com; the longer one decides
    code = (
        "from helixmap.urls import ReductionRules, reduce_host\n"
        "rules = ReductionRules('com\\n*.a.com\\n!x.a.com\\n*.x.a.com\\n!y.x.a.com')\n"
        "print(reduce_host('z.y.x.a.com', rules).site.value)\n"
    )
    src = str(Path(urls.__file__).resolve().parents[1])
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "y.x.a.com", seed


def test_ip_literal_check_skipped_for_hostnames(monkeypatch):
    calls = []

    def ip_address(host):
        calls.append(host)
        return ipaddress.ip_address(host)

    monkeypatch.setattr(urls, "ipaddress", types.SimpleNamespace(ip_address=ip_address))
    assert reduce_host("www.wlv.ac.uk", RULES).site.value == "wlv.ac.uk"
    assert reduce_host("deep.intranet.localweb", RULES).flag is ReductionFlag.UNKNOWN_SUFFIX
    assert calls == []
    for literal in ("192.0.2.7", "2001:db8::1"):
        r = reduce_host(literal, RULES)
        assert r == Reduction(SiteKey(literal), ReductionFlag.IP_LITERAL)
    assert reduce_host("host.example.com2", RULES).flag is ReductionFlag.UNKNOWN_SUFFIX
    assert calls == ["192.0.2.7", "2001:db8::1", "host.example.com2"]


def test_host_that_is_a_public_suffix_falls_back_flagged():
    r = reduce_host("co.uk", RULES)
    assert r == Reduction(SiteKey("co.uk"), ReductionFlag.UNKNOWN_SUFFIX)
    r = reduce_host("x.sch.uk", RULES)
    assert r == Reduction(SiteKey("sch.uk"), ReductionFlag.UNKNOWN_SUFFIX)


@given(host=_hostnames)
@settings(max_examples=300)
def test_reduction_deterministic_and_never_lengthens(host):
    first = reduce_host(host, RULES)
    second = reduce_host(host, RULES)
    assert first == second
    assert host.endswith(first.site.value) or first.flag is ReductionFlag.IP_LITERAL
    # reducing the key again is the identity
    assert reduce_host(first.site.value, RULES).site == first.site


# --- the generic filter -----------------------------------------------------


def _filtered(site: SiteKey, filt: GenericFilterList) -> bool:
    """Whether ``filter_generic`` drops the records that name ``site`` as
    source and as target; the other endpoint is on no denylist."""
    other = SiteKey("actor1.co.uk")
    tags = frozenset({SourceTag.CRAWL})
    links = LinkSet(Direction.OUTLINKS, [LinkRecord(site, other, tags, 0),
                                         LinkRecord(other, site, tags, 0)])
    kept, dropped = filter_generic(links, filt)
    assert dropped in (0, 2) and len(kept) + dropped == 2
    return dropped == 2


def test_generic_filter_defaults():
    filt = GenericFilterList.bundled()
    assert _filtered(SiteKey("google.com"), filt)
    assert _filtered(SiteKey("facebook.com"), filt)
    assert not _filtered(SiteKey("york.ac.uk"), filt)


def test_filter_depends_only_on_site_key():
    filt = GenericFilterList.bundled()
    for raw in ("http://google.com/search?q=x", "https://www.google.com/maps"):
        site = reduce_host(canonicalize(raw).host, RULES).site
        assert _filtered(site, filt)


def test_filter_file_parsing(tmp_path):
    p = tmp_path / "filter.txt"
    p.write_text("# VERSION: 9\nexample.com  # portal\n\n# comment\nother.org\n")
    filt = GenericFilterList.from_file(p)
    assert filt.version == "9"
    assert filt.entries == frozenset({"example.com", "other.org"})


def test_filter_rejects_uppercase_entries():
    with pytest.raises(ValueError):
        GenericFilterList(entries=frozenset({"Upper.Com"}))


def test_filter_reads_a_unicode_entry_as_its_idna_form():
    filt = GenericFilterList.from_text("# VERSION: 1\nBücher.de  # books\nok.com\n")
    assert filt.entries == frozenset({"xn--bcher-kva.de", "ok.com"})
    assert _filtered(reduce_host(canonicalize("http://www.bücher.de/").host, RULES).site, filt)
    with pytest.raises(ValueError, match="^line 2: cannot encode "):
        GenericFilterList.from_text("ok.com\n\u2603.com\n")


@pytest.mark.parametrize("text", ["foo bar.com\n", "ok.com\nfoo\tbar.com\n"])
def test_filter_rejects_entries_holding_whitespace(text):
    # no site key holds whitespace, so such an entry could never match
    with pytest.raises(ValueError, match="^bad site key "):
        GenericFilterList.from_text(text)
