"""Independent brute-force reference for the network pipeline and metrics,
for the crawler's link extraction, for URI reference resolution, and for
the public-suffix algorithm.

Everything here is written as explicit set/list enumeration with no shared
code or data structures from the package under test: records are plain
string tuples, networks are (nodes, edges) pairs, means use Fractions with
hand-rolled half-up rounding. Links are read with the standard library's
``html.parser``. References are resolved by a transcription of RFC 3986's
own text. A host's registrable domain is found by the algorithm at
https://publicsuffix.org/list/, enumerated from the host's own suffixes.
Slow on purpose; only correctness matters.
"""

from __future__ import annotations

import re
from fractions import Fraction
from html.parser import HTMLParser


def half_up_1dp(frac: Fraction) -> str:
    """Round a non-negative fraction half-up to one decimal, as a string."""
    tenths = frac * 10
    whole = tenths.numerator // tenths.denominator
    remainder = tenths - whole
    if remainder >= Fraction(1, 2):
        whole += 1
    return f"{whole // 10}.{whole % 10}"


def half_up_int(frac: Fraction) -> int:
    whole = frac.numerator // frac.denominator
    if frac - whole >= Fraction(1, 2):
        whole += 1
    return whole


def restrict(records, actor_sites):
    """records: iterable of (source_site, target_site); actor_sites:
    list of (actor_id, [site, ...]). Returns ({(a, b): weight}, dropped)."""

    def owner(site):
        for actor_id, sites in actor_sites:
            for s in sites:
                if s == site:
                    return actor_id
        return None

    weights = {}
    dropped = 0
    for source_site, target_site in records:
        a = owner(source_site)
        b = owner(target_site)
        if a is None or b is None:
            dropped += 1
            continue
        weights[(a, b)] = weights.get((a, b), 0) + 1
    return weights, dropped


def combine(in_edges, out_edges, all_actor_ids):
    edges = {}
    for key in set(in_edges) | set(out_edges):
        edges[key] = max(in_edges.get(key, 0), out_edges.get(key, 0))
    return set(all_actor_ids), edges


def dichotomize(edges):
    return {key: 1 for key in edges}


def remove_self(edges):
    return {key: w for key, w in edges.items() if key[0] != key[1]}


def prune(nodes, edges, seed):
    kept_edges = {key: w for key, w in edges.items() if key[0] != seed}
    kept_nodes = set()
    for node in nodes:
        degree = 0
        for source, target in kept_edges:
            if source == node:
                degree += 1
            if target == node:
                degree += 1
        if degree > 0:
            kept_nodes.add(node)
    return kept_nodes, kept_edges


def degrees(nodes, edges):
    table = {}
    for node in nodes:
        din = sum(1 for _, target in edges if target == node)
        dout = sum(1 for source, _ in edges if source == node)
        table[node] = (din, dout)
    return table


def degree_rows(nodes, edges):
    """[(actor, in, out, total)] sorted by total desc then actor id."""
    rows = [
        (node, din, dout, din + dout) for node, (din, dout) in degrees(nodes, edges).items()
    ]
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def category_matrix(edges, category_of, order, populations):
    """Returns (cells, row_totals, col_totals, row_means, col_means) where
    means are half-up one-decimal strings; populations aligns with order."""
    n = len(order)
    cells = [[0] * n for _ in range(n)]
    for source, target in edges:
        i = order.index(category_of[source])
        j = order.index(category_of[target])
        cells[i][j] += 1
    row_totals = [sum(cells[i][j] for j in range(n)) for i in range(n)]
    col_totals = [sum(cells[i][j] for i in range(n)) for j in range(n)]
    row_means = [
        half_up_1dp(Fraction(row_totals[i], populations[i])) if populations[i] else "0.0"
        for i in range(n)
    ]
    col_means = [
        half_up_1dp(Fraction(col_totals[j], populations[j])) if populations[j] else "0.0"
        for j in range(n)
    ]
    return cells, row_totals, col_totals, row_means, col_means


def ego(nodes, edges, center):
    neighbors = set()
    for source, target in edges:
        if source == center and target != center:
            neighbors.add(target)
        if target == center and source != center:
            neighbors.add(source)
    members = neighbors | {center}
    induced = {
        key: w for key, w in edges.items() if key[0] in members and key[1] in members
    }
    return neighbors, induced


def connectivity(category, category_of_actor, all_actor_ids, nodes, edges):
    population = [a for a in all_actor_ids if category_of_actor[a] == category]
    deg = degrees(nodes, edges)
    connected = [
        a for a in population if a in nodes and sum(deg.get(a, (0, 0))) > 0
    ]
    percent = half_up_int(Fraction(len(connected) * 100, len(population)))
    return len(connected), len(population), percent


class LinkCollector(HTMLParser):
    """The non-empty a/area hrefs of a page and the href of its first base
    that has one, as ``html.parser`` reads them, taking the first href of a
    tag as the HTML tokenizer does ("" for an href without a value)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []
        self.base: str | None = None

    def handle_starttag(self, tag, attrs):
        href = next((value or "" for name, value in attrs if name == "href"), None)
        if tag in ("a", "area"):
            if href:
                self.hrefs.append(href)
        elif tag == "base" and self.base is None:
            self.base = href


def page_hrefs(html: str) -> tuple[list[str], str | None]:
    """The links ``crawler.extract_hrefs`` finds on a page, from
    html.parser: the hrefs as written, and the href of the first base that
    has one (None when none has)."""
    collector = LinkCollector()
    collector.feed(html)
    return collector.hrefs, collector.base


def document_base(url: str, base: str | None) -> str | None:
    """The URL the relative hrefs of the page at ``url`` resolve on, given
    the href of its first base: the base resolved by ``resolve`` against
    ``url``; ``url`` itself without a base, or for an empty one or one that
    resolves to no host; None for one in a scheme other than http and https."""
    if base is None or not base.strip():
        return url
    resolved = resolve(url, base.strip())
    scheme, authority, _, _, _ = split_reference(resolved)
    if scheme.lower() not in ("http", "https"):
        return None
    return resolved if authority else url


# --- URI reference resolution: RFC 3986 Appendix B and sections 5.2.2-5.3 -----

_URI_REFERENCE = re.compile(r"^(([^:/?#]+):)?(//([^/?#]*))?([^?#]*)(\?([^#]*))?(#(.*))?")


def split_reference(reference: str):
    """(scheme, authority, path, query, fragment) by the regular expression
    of RFC 3986 Appendix B; None for a component the reference lacks."""
    match = _URI_REFERENCE.match(reference)
    return match.group(2), match.group(4), match.group(5), match.group(7), match.group(9)


def remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4, with its input and output buffers."""
    input_buffer, output_buffer = path, ""
    while input_buffer:
        # A
        if input_buffer.startswith("../"):
            input_buffer = input_buffer[3:]
        elif input_buffer.startswith("./"):
            input_buffer = input_buffer[2:]
        # B
        elif input_buffer.startswith("/./"):
            input_buffer = input_buffer[2:]
        elif input_buffer == "/.":
            input_buffer = "/"
        # C: the last segment of the output goes, with the "/" before it
        elif input_buffer.startswith("/../"):
            input_buffer = input_buffer[3:]
            output_buffer = output_buffer[: max(output_buffer.rfind("/"), 0)]
        elif input_buffer == "/..":
            input_buffer = "/"
            output_buffer = output_buffer[: max(output_buffer.rfind("/"), 0)]
        # D
        elif input_buffer in (".", ".."):
            input_buffer = ""
        # E: the first segment moves, with its "/" if it has one
        else:
            end = input_buffer.find("/", 1)
            if end == -1:
                end = len(input_buffer)
            output_buffer += input_buffer[:end]
            input_buffer = input_buffer[end:]
    return output_buffer


def merge(base_authority: str | None, base_path: str, reference_path: str) -> str:
    """RFC 3986 section 5.2.3."""
    if base_authority is not None and base_path == "":
        return "/" + reference_path
    return base_path[: base_path.rfind("/") + 1] + reference_path


def resolve(base: str, reference: str) -> str:
    """The target URI of ``reference`` against ``base``: RFC 3986 section
    5.2.2 (strict), recomposed as section 5.3 says."""
    b_scheme, b_authority, b_path, b_query, _ = split_reference(base)
    r_scheme, r_authority, r_path, r_query, r_fragment = split_reference(reference)
    if r_scheme is not None:
        t_scheme = r_scheme
        t_authority = r_authority
        t_path = remove_dot_segments(r_path)
        t_query = r_query
    else:
        if r_authority is not None:
            t_authority = r_authority
            t_path = remove_dot_segments(r_path)
            t_query = r_query
        else:
            if r_path == "":
                t_path = b_path
                t_query = r_query if r_query is not None else b_query
            else:
                if r_path.startswith("/"):
                    t_path = remove_dot_segments(r_path)
                else:
                    t_path = remove_dot_segments(merge(b_authority, b_path, r_path))
                t_query = r_query
            t_authority = b_authority
        t_scheme = b_scheme
    t_fragment = r_fragment

    result = ""
    if t_scheme is not None:
        result += t_scheme + ":"
    if t_authority is not None:
        result += "//" + t_authority
    elif t_path.startswith("//"):
        # without an authority a path cannot begin with "//" (section 3.3),
        # which would read back as an authority; the WHATWG URL serializer
        # writes "/." before such a path, and so does this
        result += "/."
    result += t_path
    if t_query is not None:
        result += "?" + t_query
    if t_fragment is not None:
        result += "#" + t_fragment
    return result


# --- the public-suffix algorithm of https://publicsuffix.org/list/ ---------


def registrable(host: str, suffix_text: str) -> str | None:
    """The registrable domain of ``host`` under a suffix list written one
    plain-text rule a line: the public suffix plus one label. An exception
    rule that matches prevails, whatever its length, and its public suffix
    is the rule less its leftmost label; otherwise the matching rule with
    the most labels is the public suffix. None when no rule matches or the
    host is itself a public suffix."""
    exact, wild, exc = set(), set(), set()
    for line in suffix_text.splitlines():
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
    suffixes = [labels[-k:] for k in range(len(labels), 0, -1)]  # longest first
    exceptions = [suffix for suffix in suffixes if ".".join(suffix) in exc]
    if exceptions:
        public = exceptions[0][1:]
    else:
        rules = [suffix for suffix in suffixes if ".".join(suffix) in exact
                 or len(suffix) > 1 and ".".join(suffix[1:]) in wild]
        if not rules:
            return None
        public = rules[0]
    if len(labels) <= len(public):
        return None
    return ".".join(labels[-len(public) - 1:])
