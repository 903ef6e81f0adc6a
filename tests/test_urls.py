"""Canonicalization and site-reduction tests."""

from __future__ import annotations

import io
import ipaddress
import os
import re
import subprocess
import sys
import time
import types
from importlib import resources
from pathlib import Path

import idna
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from helixmap import urls
from helixmap.crawler import document_base, extract_hrefs
from helixmap.harvest import Direction, LinkSet, SourceTag, filter_generic
from helixmap.urls import (
    CanonicalUrl,
    GenericFilterList,
    InputError,
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


@pytest.mark.parametrize("raw", ["http://h/a/%2E%2E/../b", "/a/%2E%2E/../b", "//h/a/%2E%2E/../b"])
def test_every_kind_of_reference_takes_one_path_rule(raw):
    # dot segments go as written, and only then does %2E%2E become ".."
    assert str(canonicalize(raw, base=canonicalize("http://h/x/y"))) == "http://h/a/b"


def test_a_megabyte_of_parent_segments_canonicalizes_in_linear_time():
    href = "/.." * 350_000 + "/x"  # 1.05 MB
    started = time.perf_counter()
    assert str(canonicalize(href, base=canonicalize("http://h/a/b/c"))) == "http://h/x"
    assert time.perf_counter() - started < 1


def test_a_host_name_holds_at_most_253_characters():
    # RFC 1035 section 2.3.4; a longer host would cost reduce_host time and
    # memory in the square of its label count
    host = "a." * 125 + "com"
    assert canonicalize(f"http://{host.upper()}./").host == host
    with pytest.raises(MalformedUrl, match="^host longer than 253 characters "):
        canonicalize(f"http://b{host}/")
    # the Unicode form of a host is not what counts: its xn-- form is
    idn = "\u00e4." + "a." * 121 + "com"
    assert len(idn) == 247 and len(canonicalize(f"http://{idn}/").host) == 253
    with pytest.raises(MalformedUrl):
        canonicalize(f"http://\u00e4{idn}/")
    assert SiteKey(host).value == host
    with pytest.raises(ValueError, match="^bad site key "):
        SiteKey(f"b{host}")


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


@pytest.mark.parametrize("stop", ["\u3002", "\uff0e", "\uff61"])
def test_a_root_dot_written_as_a_unicode_full_stop_is_dropped(stop):
    # UTS #46 maps each to ".", which is then the root dot
    url = canonicalize(f"http://example.com{stop}/")
    assert str(url) == "http://example.com/"
    assert canonicalize(str(url)) == url
    assert canonicalize(f"https://b\u00fccher.de{stop}/a").host == "xn--bcher-kva.de"
    assert reduce_host(url.host, RULES) == Reduction(SiteKey("example.com"))


def test_empty_label_rejected():
    with pytest.raises(MalformedUrl):
        canonicalize("http://a..b.com/")


@pytest.mark.parametrize("host", ["ex ample.com", "a<b>.com", "exa%41mple.com", "a|b.com"])
def test_forbidden_host_code_point_rejected(host):
    with pytest.raises(MalformedUrl):
        canonicalize(f"http://{host}/")


@pytest.mark.parametrize("raw", ["http://[fe80::1%25eth0]/", "http://[fe80::1%a b]/"])
def test_ipv6_zone_identifier_rejected(raw):
    # as the WHATWG URL standard does: a zone's text could put white space
    # in a site key
    with pytest.raises(MalformedUrl, match="^bad IPv6 literal "):
        canonicalize(raw)


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
_SEGMENTS = ["/", "..", ".", "%2E", "%2e%2E", "%7e", "%7E", "x.html", "a b"]
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
    ``extract_hrefs`` gives, resolved on the URL ``document_base`` gives for
    the page, or the error canonicalize raises."""
    targets = []
    hrefs = extract_hrefs(html)
    base = document_base(canonicalize(url), hrefs.base)
    for href in hrefs:
        try:
            targets.append(str(canonicalize(href, base=base)))
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
# a scheme, no authority, and a path whose dot segments leave it led by "//"
@example(raw="http:/..//site.com", base=_BASES[0])
@example(raw="http:x.html/..//x.html?q", base=_BASES[0])
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
        # a code point canonicalize refuses in a host, a port, an empty label
        pytest.param("yorksciencepark.co.uk/", id="path"),
        pytest.param("http://york.ac.uk", id="url"),
        pytest.param("york.ac.uk:8080", id="port"),
        pytest.param("../../x", id="parent-directory"),
        pytest.param("york..ac.uk", id="empty-label"),
        pytest.param(".york.ac.uk", id="leading-dot"),
        pytest.param("york.ac.uk.", id="trailing-dot"),
        pytest.param("a@york.ac.uk", id="userinfo"),
        pytest.param("york.ac.uk#x", id="fragment"),
        pytest.param("york%2eac.uk", id="percent"),
        pytest.param("[2001:db8::1]", id="bracketed-ipv6"),
        pytest.param("2001:db8::g", id="bad-ipv6"),
        pytest.param("fe80::1%eth0", id="ipv6-zone"),
        pytest.param("fe80::1%a b", id="ipv6-zone-with-space"),
    ],
)
def test_site_key_refuses_text_no_reduced_host_can_be(text):
    with pytest.raises(ValueError, match="^bad site key "):
        SiteKey(text)


@pytest.mark.parametrize(
    "text", ["wlv.ac.uk", "cybermetrics.wlv.ac.uk", "192.0.2.7", "2001:db8::1",
             "xn--mnchen-3ya.de", "intranet.localweb", "::ffff:192.0.2.7"],
)
def test_site_key_accepts_every_kind_of_reduced_host(text):
    assert SiteKey(text).value == text
    assert reduce_host(text, RULES_WLV).site == SiteKey(text)


# host texts built from upper case, dots and Unicode full stops, a deviation
# character, IDN labels (the snowman cannot be encoded), digits, ":" and
# forbidden code points; no URL delimiter (/ ? # @ \ [ ]), and no tab, line
# break or edge space, which urlsplit drops
_HOST_PIECES = ["a", "Z", "x9", "0", "-", "\u00df", "B\u00fccher", "\u516c\u53f8", "\u2603",
                ".", "\u3002", "\uff0e", "\uff61", ":", "::1", "2001:DB8::", " ", "%", "<", "^",
                "|", "\x00", "\x7f"]


@given(text=st.lists(st.sampled_from(_HOST_PIECES), max_size=6).map("".join)
       .filter(lambda text: text == text.strip()))
@settings(max_examples=500)
@example(text="Example.COM.")
@example(text="example.com\u3002")
@example(text="::1.")
@example(text="fe80::1%eth0")
def test_a_site_key_and_a_url_host_are_read_by_one_rule(text):
    url = f"http://[{text}]/" if ":" in text else f"http://{text}/"
    try:
        host = canonicalize(url).host
    except MalformedUrl:
        with pytest.raises(ValueError):
            SiteKey.parse(text)
        return
    assert SiteKey.parse(text).value == host


def test_a_site_list_reads_a_root_dot_as_a_url_host_does(tmp_path):
    assert SiteKey.parse("example.com\u3002") == SiteKey("example.com")
    assert GenericFilterList.from_text("google.com.\n").entries == frozenset({"google.com"})
    suffixes, exceptions = tmp_path / "suffixes.dat", tmp_path / "exceptions.txt"
    suffixes.write_text(SNAPSHOT_TEXT, encoding="utf-8")
    exceptions.write_text("wlv.ac.uk.\n", encoding="utf-8")
    assert ReductionRules.from_files(suffixes, exceptions).subdomain_exceptions == frozenset(
        {"wlv.ac.uk"})
    assert ReductionRules.bundled({"wlv.ac.uk."}).subdomain_exceptions == frozenset({"wlv.ac.uk"})


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


@pytest.mark.parametrize("domain", ["wlv .ac.uk", "wlv.ac.uk ", ""])
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


def test_subdomain_exception_file_reads_a_unicode_entry_as_its_idna_form(tmp_path):
    suffixes = tmp_path / "suffixes.dat"
    suffixes.write_text("de\n", encoding="utf-8")
    exceptions = tmp_path / "exceptions.txt"
    exceptions.write_text("Bücher.de  # books\n", encoding="utf-8")
    rules = ReductionRules.from_files(suffixes, exceptions)
    assert rules.subdomain_exceptions == frozenset({"xn--bcher-kva.de"})
    host = canonicalize("http://shop.bücher.de/").host
    assert reduce_host(host, rules).site.value == "shop.xn--bcher-kva.de"
    exceptions.write_text("ok.de\n\u2603.de\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(exceptions))}:2: cannot encode "):
        ReductionRules.from_files(suffixes, exceptions)


def test_subdomain_exceptions_read_as_a_set_or_a_file_are_the_same(tmp_path):
    # each entry is read by SiteKey.parse, which lower-cases it and encodes
    # a name written in Unicode
    suffixes, exceptions = tmp_path / "suffixes.dat", tmp_path / "exceptions.txt"
    suffixes.write_text(SNAPSHOT_TEXT, encoding="utf-8")
    exceptions.write_text("Bücher.de\nWLV.ac.uk\n", encoding="utf-8")
    from_file = ReductionRules.from_files(suffixes, exceptions)
    from_set = ReductionRules.bundled({"Bücher.de", "WLV.ac.uk"})
    assert from_set.subdomain_exceptions == from_file.subdomain_exceptions == frozenset(
        {"xn--bcher-kva.de", "wlv.ac.uk"})


# a suffix rule written in Unicode matches the xn-- form canonicalize gives a host


def test_unicode_exact_rule_is_keyed_by_its_idna_form():
    rules = ReductionRules("cn\n公司.cn\n")
    host = canonicalize("http://www.example.公司.cn/").host
    assert reduce_host(host, rules) == Reduction(SiteKey("example.xn--55qx5d.cn"))
    with pytest.raises(ValueError, match="cannot encode "):
        ReductionRules("cn\n\u2603.cn\n")


def test_unicode_wildcard_rule_is_keyed_by_its_idna_form():
    rules = ReductionRules("jp\n*.神戸.jp\n")
    host = canonicalize("http://www.shop.town.神戸.jp/").host
    assert reduce_host(host, rules) == Reduction(SiteKey("shop.town.xn--0ou382c.jp"))


def test_unicode_exception_rule_is_keyed_by_its_idna_form():
    rules = ReductionRules("jp\n*.神戸.jp\n!市役所.神戸.jp\n")
    host = canonicalize("http://www.市役所.神戸.jp/").host
    assert reduce_host(host, rules).site.value == canonicalize("http://市役所.神戸.jp/").host


def test_bundled_lists_report_their_versions():
    assert ReductionRules.bundled().version == "20240601"
    assert GenericFilterList.bundled().version == "20240601"


def _reference_suffix_parse(text: str):
    """A suffix list read one physical line at a time, each line lower-cased
    whole and split into words: ``(version, exact, wildcards, exceptions)``,
    or the ``<line>: <reason>`` of the error that stops the read."""
    version, exact, wildcards, exceptions = "unversioned", set(), set(), set()
    for line_no, line in enumerate(io.StringIO(text, newline=""), start=1):
        words = line.lower().split()
        if not words:
            continue
        rule = words[0]
        if rule[:2] == "//":
            comment = line.strip()[2:].strip()
            if comment.upper().startswith("VERSION:"):
                version = comment.split(":", 1)[1].strip()
            continue
        if rule[0] == "!":
            rules, rule = exceptions, rule[1:]
        elif rule[:2] == "*.":
            rules, rule = wildcards, rule[2:]
        else:
            rules = exact
        if not rule.isascii():
            try:
                rule = idna.encode(rule, uts46=True, transitional=False).decode("ascii")
            except UnicodeError:
                return f"{line_no}: cannot encode IDN host in {line.strip()!r}"
        rules.add(rule)
    if not (exact or wildcards):
        return "1: suffix snapshot contains no rules"
    return version, exact, wildcards, exceptions


# a line break ends a line only at LF, CRLF or CR: a form feed, NEL or U+2028
# is white space inside one
_PSL_SPACE = st.sampled_from([" ", "\t", "  ", "\x0c", "\x85", "\u2028"])
# upper case, IDN labels (the snowman cannot be encoded), a final sigma, and
# the Kelvin sign, which lower-cases to ASCII
_PSL_LABEL = st.text(alphabet="abyzABYZ09-üÜß公司神戸\u2603Σİ\u212a", min_size=1, max_size=5)
_PSL_RULE = st.one_of(
    st.builds(lambda kind, labels: kind + ".".join(labels),
              st.sampled_from(["", "", "!", "*.", "*", "/"]),
              st.lists(_PSL_LABEL, min_size=1, max_size=3)),
    st.sampled_from(["!", "*", "*.", "/", "//", "!*."]),
)
_VERSION_WORD = st.tuples(*(st.sampled_from([c, c.upper()]) for c in "version")).map("".join)
_PSL_COMMENT = st.builds(
    lambda space, word, colon, value: f"//{space}{word}{colon}{value}",
    st.sampled_from(["", " ", "\t"]), st.one_of(_VERSION_WORD, st.just("note")),
    st.sampled_from([":", ": ", "", " :"]), st.text(alphabet="09 .:-aZ", max_size=8),
)
_PSL_LINE = st.builds(
    lambda lead, body, trail: lead + body + trail,
    st.one_of(st.just(""), _PSL_SPACE),
    st.one_of(_PSL_RULE, _PSL_COMMENT, st.just("")),
    st.one_of(st.just(""), st.builds(str.__add__, _PSL_SPACE,
                                     st.sampled_from(["x", "two words", "//", "!a", "Ab"]))),
)


def _joined(lines: list[tuple[str, str]], last_break: bool) -> str:
    text = "".join(line + end for line, end in lines)
    return text if last_break or not lines else text[: -len(lines[-1][1])]


_SUFFIX_LISTS = st.builds(
    _joined,
    st.lists(st.tuples(_PSL_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.booleans(),
)


@given(text=_SUFFIX_LISTS)
@settings(max_examples=300, deadline=None)
def test_a_suffix_list_reads_as_a_plain_line_by_line_parse_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("suffixes") / "suffixes.dat"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_suffix_parse(text)
    try:
        rules = ReductionRules(path)
    except InputError as exc:
        assert str(exc) == f"{path}:{expected}"
        assert exc.path == path
    else:
        assert (rules.version, rules._exact, rules._wildcards, rules._exceptions) == expected


def test_the_bundled_snapshot_reads_as_a_plain_line_by_line_parse_does():
    rules = ReductionRules.bundled()
    assert (rules.version, rules._exact, rules._wildcards,
            rules._exceptions) == _reference_suffix_parse(SNAPSHOT_TEXT)


# Independent oracle: oracle.registrable, a hand-rolled matcher that
# enumerates suffix candidates from the host side instead of iterating rules.
# perfbench/test_perfbench.py imports it from here by this name.
_oracle_registrable = oracle.registrable


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


def _assert_matches_oracle(host: str, suffix_text: str = SNAPSHOT_TEXT,
                           rules: ReductionRules = RULES) -> None:
    expected = _oracle_registrable(host, suffix_text)
    got = reduce_host(host, rules)
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


@pytest.mark.parametrize("host", ["x.a.b.c", "a.b.c", "b.c", "y.x.a.b.c", "w.z.c", "z.c", "c"])
def test_reduction_matches_independent_matcher_when_an_exception_is_shorter(host):
    # the exception !b.c prevails over the longer exact rule a.b.c, as the
    # publicsuffix.org algorithm says: x.a.b.c reduces to b.c
    text = "c\n*.c\n!b.c\na.b.c\n"
    _assert_matches_oracle(host, text, ReductionRules(text))


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
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            encoding="utf-8",
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
    links = LinkSet(Direction.OUTLINKS)
    links.add(site, other, SourceTag.CRAWL, 0)
    links.add(other, site, SourceTag.CRAWL, 0)
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
    p.write_text("# VERSION: 9\nexample.com  # portal\n\n# comment\nother.org\n", encoding="utf-8")
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


# the suffix file holds its bad byte past the first 8 KiB, which a chunked
# decoder would report at an offset into a later chunk
_RULES = "".join(f"r{i}.uk\n" for i in range(1200))


@pytest.mark.parametrize("name, text, line", [
    ("filter", "# VERSION: 1\nok.com\ncafé.com\n", 3),
    ("suffixes", f"// VERSION: 1\nuk\n{_RULES}café\n", 1203),
    ("exceptions", "# kept sub-domains\nwlv.ac.uk\ncafé.ac.uk\n", 3),
])
def test_a_site_list_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, name, text, line):
    paths = {"filter": tmp_path / "filter.txt", "suffixes": tmp_path / "suffixes.dat",
             "exceptions": tmp_path / "exceptions.txt"}
    paths["suffixes"].write_text("uk\nac.uk\n", encoding="utf-8")
    paths["exceptions"].write_text("wlv.ac.uk\n", encoding="utf-8")
    path = paths[name]
    path.write_bytes(text.encode("latin-1"))
    if name == "suffixes":
        assert text.encode("latin-1").index(b"\xe9") > 8 * 1024
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: byte 0xe9 is not UTF-8$"):
        if name == "filter":
            GenericFilterList.from_file(path)
        else:
            ReductionRules.from_files(paths["suffixes"], paths["exceptions"])


@pytest.mark.parametrize("text, line, reason", [
    ("ok.com\nfoo bar.com\n", 2, "bad site key 'foo bar.com'"),
    # a form feed does not end a line: the snowman is on line 2, not 3
    ("ok.com  # a comment\x0cthat goes on\n\u2603.com\n", 2,
     "cannot encode IDN host in '\u2603.com'"),
    ("ok.com\x0cother.com\n\u2603.com\n", 1, "bad site key 'ok.com\\x0cother.com'"),
])
def test_a_filter_file_error_names_the_file_and_the_physical_line(tmp_path, text, line, reason):
    path = tmp_path / "filter.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: {reason}')}$"):
        GenericFilterList.from_file(path)


def test_a_suffix_rule_idna_cannot_encode_names_the_file_and_line(tmp_path):
    path = tmp_path / "suffixes.dat"
    path.write_text("// VERSION: 1\ncn\n\u2603.cn\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: cannot encode IDN host "):
        ReductionRules.from_files(path)
    with pytest.raises(ValueError, match="^line 3: cannot encode IDN host "):
        ReductionRules(path.read_text(encoding="utf-8"))


def test_a_subdomain_exception_that_is_no_registrable_domain_names_its_line(tmp_path):
    suffixes, exceptions = tmp_path / "suffixes.dat", tmp_path / "exceptions.txt"
    suffixes.write_text("uk\nac.uk\n", encoding="utf-8")
    exceptions.write_text("wlv.ac.uk\nwww.wlv.ac.uk\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(exceptions))}:2: subdomain exception "):
        ReductionRules.from_files(suffixes, exceptions)


@pytest.mark.parametrize("text", ["foo bar.com\n", "ok.com\nfoo\tbar.com\n"])
def test_filter_rejects_entries_holding_whitespace(text):
    # no site key holds whitespace, so such an entry could never match; the
    # error names the entry's line, the last
    line = text.count("\n")
    with pytest.raises(ValueError, match=f"^line {line}: bad site key "):
        GenericFilterList.from_text(text)
