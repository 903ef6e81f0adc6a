"""The crawler's link scanner, checked against html.parser (tests/oracle.py)."""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helixmap.crawler import document_base, extract_hrefs
from helixmap.urls import MalformedUrl, UnsupportedScheme, canonicalize

PAGE_URL = "http://site.com/dir/page.html"

# text between markup: "<" and "&" that start no markup
TEXT = st.sampled_from([
    "plain words", " ", "\n", "a < b", "1<2", "x <= y", "<<", "> quoted >",
    "&amp;", "AT&T", "& so", "&copy; 2013", "&#60;a href=x&#62;", "&lt;a href=&quot;x&quot;&gt;",
])
# values an href may hold; none makes urljoin raise
HREF = st.sampled_from([
    "page.html", "/top.html", "../up.html", "./here/", "http://other.org/x",
    "HTTPS://Other.ORG:443/y?q=1", "//cdn.net/z", "#frag", "?query", "mailto:me@site.com",
    "javascript:void(0)", " padded.html ", "", "a b.html", "tab\tbed", "a//b.html", "?",
])
# an unquoted value: no white space, quote, "=", "<", ">" or backtick
BARE = st.sampled_from([
    "page.html", "/top.html", "x", "a&amp;b", "q?x=1", "http://other.org/", "a&#47;b", "&quot;",
])
# text a quoted value may hold besides an href, fake anchors among it
QUOTED_EXTRA = st.sampled_from([
    "", "a>b", "<a href='fake'>", "&amp;", "&gt;x&lt;", " spaced ", "it's", "=",
])
ATTR_NAME = st.sampled_from(["title", "alt", "class", "data-x", "id", "target", "rel", "HREFX"])
HREF_NAME = st.sampled_from(["href", "HREF", "Href"])
SEPARATOR = st.sampled_from([" ", "  ", "\n", "\t", " \r\n "])
EQUALS = st.sampled_from(["=", " = ", "=\n"])


def _escape(value: str, quote: str) -> str:
    # "&" stays as written: entity-bearing values are part of the grammar
    return value.replace(quote, "&quot;" if quote == '"' else "&#39;")


@st.composite
def quoted(draw, text) -> str:
    quote = draw(st.sampled_from(['"', "'"]))
    return f"{quote}{_escape(draw(text), quote)}{quote}"


@st.composite
def attribute(draw, names) -> str:
    name = draw(names)
    form = draw(st.sampled_from(["double", "single", "bare", "none"]))
    if form == "none":
        return name
    if form == "bare":
        return f"{name}{draw(EQUALS)}{draw(BARE)}"
    text = HREF if draw(st.booleans()) else QUOTED_EXTRA
    return f"{name}{draw(EQUALS)}{draw(quoted(text))}"


@st.composite
def start_tag(draw) -> str:
    name = draw(st.sampled_from([
        "a", "A", "area", "AREA", "base", "Base", "p", "div", "img", "span", "li", "map", "abbr",
        "bases", "article",
    ]))
    names = st.one_of(HREF_NAME, ATTR_NAME)
    attrs = draw(st.lists(attribute(names), max_size=4))
    text = "".join(draw(SEPARATOR) + attr for attr in attrs)
    # "/>" straight after a bare value would belong to the value, which is
    # still what html.parser reads; both forms are in the grammar
    close = draw(st.sampled_from([">", "/>", " />", " >"]))
    return f"<{name}{text}{close}"


@st.composite
def raw_text_block(draw) -> str:
    name = draw(st.sampled_from(["script", "style"]))
    opener = draw(st.sampled_from([name, name.upper(), f'{name} type="text/x"']))
    inside = draw(st.lists(st.sampled_from([
        '<a href="fake.html">x</a>', "document.write('<a href=fake>')", "if (a < b && c > d)",
        "</a>", "<p>", "'\"", "a{color:red}", "<area href=fake>", "<base href=http://fake/>",
    ]), max_size=4))
    return f"<{opener}>{''.join(inside)}</{name}>"


@st.composite
def comment(draw) -> str:
    inside = draw(st.lists(st.sampled_from([
        "note", '<a href="fake.html">', "<", ">", "&", " <base href=/fake/> ",
    ]), max_size=4))
    return f"<!-- {''.join(inside)} -->"


@st.composite
def cdata(draw) -> str:
    inside = draw(st.lists(st.sampled_from([
        "data", '<a href="fake.html"', "<", "&amp;", " x ",
    ]), max_size=4))
    return f"<![CDATA[{''.join(inside)}]]>"


DECLARATION = st.sampled_from([
    "<!DOCTYPE html>", "<!doctype html>", '<?xml version="1.0"?>', "<?php echo 1 ?>",
])
END_TAG = st.sampled_from(["</a>", "</A>", "</p>", "</div >", "</area>", "</base>"])

DOCUMENT = st.lists(
    st.one_of(TEXT, start_tag(), start_tag(), END_TAG, comment(), cdata(), DECLARATION,
              raw_text_block()),
    max_size=25,
).map("".join)


def _target(href: str, base=None):
    """What a crawl takes an href for on a page whose relative hrefs resolve
    on ``base``: the canonical URL it resolves to, or the error canonicalize
    raises."""
    try:
        return canonicalize(href, base)
    except (MalformedUrl, UnsupportedScheme) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(DOCUMENT)
def test_scanner_finds_what_html_parser_finds(document):
    found = extract_hrefs(document)
    hrefs, base = oracle.page_hrefs(document)
    assert found == hrefs
    assert found.base == base
    # the crawl's resolution of each href is the oracle's, which it then
    # only normalizes
    crawl_base = document_base(canonicalize(PAGE_URL), found.base)
    oracle_base = oracle.document_base(PAGE_URL, base)
    assert [_target(href, crawl_base) for href in found] == [
        _target(href if oracle_base is None else oracle.resolve(oracle_base, href.strip()))
        for href in hrefs
    ]


def test_scanner_handles_each_kind_of_markup():
    document = (
        '<!DOCTYPE html><?xml version="1.0"?><!-- <a href="c1"> -->'
        '<![CDATA[ x > y <a href="c2"> ]]><script type="text/x">w("<a href=s1>")</SCRIPT>'
        "<style>a{} <area href=s2></style >"
        '<p title="a>b" class=x>1 < 2</p><A HREF=\'one&amp;two\'>x</A>'
        '<area href="m" alt=""/><a href="x" href=y><a href="">e</a><a name=q>'
    )
    assert extract_hrefs(document) == ["one&two", "m", "x"]


def test_a_tag_is_read_by_its_first_href():
    # the HTML tokenizer drops a repeated attribute, and the document's base
    # is the first base that has an href
    assert extract_hrefs('<a href="x" href=y><a href href=y><a href="" href=z>') == ["x"]
    page = canonicalize(PAGE_URL)
    for bases, base, link in (
        ('<base href="/b/" href="/c/">', "/b/", "http://site.com/b/p"),
        ('<base target=_top><base href="/b/"><base href="/c/">', "/b/", "http://site.com/b/p"),
        # an href without a value is the page's own URL
        ("<base href><base href='/c/'>", "", "http://site.com/dir/p"),
    ):
        hrefs = extract_hrefs(f'{bases}<a href="p">')
        assert (hrefs, hrefs.base) == (["p"], base), bases
        assert str(canonicalize("p", document_base(page, hrefs.base))) == link, bases


def test_a_script_tag_closed_by_its_slash_has_no_raw_text():
    # as html.parser reads it; a "/" at the end of a bare value is the value's
    document = '<script/><a href="a"><script src=x/><a href="b"></script><a href="c">'
    assert extract_hrefs(document) == ["a", "c"]


def test_extract_hrefs_keeps_the_links_before_a_marked_section():
    # html.parser raises AssertionError on "<![" that names no known section
    assert extract_hrefs('<a href="a"><![ foo') == ["a"]
    assert extract_hrefs('<a href="a"><![ foo ]><a href="b">') == ["a", "b"]


def test_an_unclosed_construct_ends_the_scan():
    for opener in ("<!-- ", "<![CDATA[ ", "<!DOCTYPE ", "<? ", "</p ", "<script>", "<p title='",
                   "<a href='b"):
        assert extract_hrefs(f'<a href="a">{opener}<a href="z">') == ["a"], opener


def test_a_tag_holding_more_than_a_thousand_values_is_unclosed():
    def page(values):
        return '<a href="a"><p' + " v=1" * values + '><a href="b">'

    assert extract_hrefs(page(1000)) == ["a", "b"]
    assert extract_hrefs(page(1001)) == ["a"]


def test_scan_time_grows_linearly_with_the_page():
    """Pages of 1 MiB that repeat the opening of an unclosed construct. A
    scan that looked again from each "<" for the construct's end would not
    return during the test run."""
    for unit in ("<!--", "<a ", '<a href="', "<script>", "<![", "<"):
        page = unit * (2**20 // len(unit) + 1)
        start = time.perf_counter()
        assert extract_hrefs(page) == []
        assert time.perf_counter() - start < 10, unit
