"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``helixmap``. Site keys come from a public-suffix
label walk over the same rule text the program reads; the network and its
metrics come either from the repository's brute-force ``tests/oracle.py``
(small studies) or from ``networkx`` plus plain counting (large studies);
the crawl's pages and external links come from walking the fixture's own
page graph. Every ``check_*`` function returns a list of mismatches.
"""

from __future__ import annotations

import csv
import hashlib
import io
import ipaddress
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

import gen

CATEGORY_DISPLAY = (
    "Service-based firm", "Knowledge-based firm", "Consultants/IP-TTOs",
    "Business Developers/Investors", "Academia", "Support Structure Organization",
    "Public & Non-Gov. Organizations", "Government", "Science Park",
)


# --- site reduction -----------------------------------------------------------------


class SuffixReference:
    """Public-suffix reduction by walking a host's labels from the right.

    Follows the publicsuffix.org algorithm: an exception rule prevails,
    otherwise the longest matching plain or wildcard rule. A host with no
    registrable part (no rule, or a host that is itself a suffix) is
    flagged ``unknown-suffix`` and keyed by its last two labels, as the
    program documents.
    """

    def __init__(self, text: str, subdomain_exceptions=()):
        self.plain: set[str] = set()
        self.wild: set[str] = set()
        self.exceptions: set[str] = set()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            rule = line.split()[0].lower()
            if rule.startswith("!"):
                self.exceptions.add(rule[1:])
            elif rule.startswith("*."):
                self.wild.add(rule[2:])
            else:
                self.plain.add(rule)
        self.subdomain_exceptions = frozenset(subdomain_exceptions)

    def registrable(self, host: str) -> str | None:
        labels = host.split(".")
        n = len(labels)
        suffix_len = 0
        for k in range(n, 0, -1):
            if ".".join(labels[n - k:]) in self.exceptions:
                suffix_len = k - 1
                break
        else:
            for k in range(n, 0, -1):
                if ".".join(labels[n - k:]) in self.plain or (
                    k >= 2 and ".".join(labels[n - k + 1:]) in self.wild
                ):
                    suffix_len = k
                    break
        if suffix_len == 0 or n <= suffix_len:
            return None
        return ".".join(labels[n - suffix_len - 1:])

    def reduce(self, host: str) -> tuple[str, str | None]:
        """(site key, flag) for a canonical host."""
        try:
            ipaddress.ip_address(host)
            return host, "ip-literal"
        except ValueError:
            pass
        registrable = self.registrable(host)
        if registrable is None:
            return ".".join(host.split(".")[-2:]), "unknown-suffix"
        if registrable in self.subdomain_exceptions and host != registrable:
            keep = registrable.count(".") + 2
            return ".".join(host.split(".")[-keep:]), None
        return registrable, None


def host_of(url: str) -> str:
    rest = url.split("://", 1)[1]
    return rest.split("/", 1)[0]


# --- the network, its metrics and the written files -------------------------------


def _half_up(frac: Fraction, unit: Fraction) -> Fraction:
    steps = frac / unit
    whole = steps.numerator // steps.denominator
    if steps - whole >= Fraction(1, 2):
        whole += 1
    return whole * unit


def _mean(total: int, population: int) -> str:
    if not population:
        return "0.0"
    tenths = int(_half_up(Fraction(total, population), Fraction(1, 10)) * 10)
    return f"{tenths // 10}.{tenths % 10}"


def _percent(part: int, whole: int) -> int:
    return int(_half_up(Fraction(part * 100, whole), Fraction(1))) if whole else 0


def edges_digest(edges) -> str:
    text = "".join(f"{s}\t{t}\n" for s, t in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()


def study_reference(in_pairs, out_pairs, actors, seed_id, generic, top_k, engine):
    """The summary a correct program produces for one study.

    ``in_pairs``/``out_pairs`` are the distinct (source site, target site)
    records; ``actors`` are ``gen.Actor``; ``engine`` is ``"oracle"`` for
    ``tests/oracle.py`` (small studies) or ``"networkx"`` (large ones).
    """
    generic = set(generic)
    kept_in = [p for p in in_pairs if p[0] not in generic and p[1] not in generic]
    kept_out = [p for p in out_pairs if p[0] not in generic and p[1] not in generic]
    ids = [a.id for a in actors]
    category_of = {a.id: a.category for a in actors}
    populations = [sum(1 for a in actors if a.category == c) for c in gen.CATEGORIES]
    if engine == "oracle":
        import oracle

        actor_sites = [(a.id, a.sites) for a in actors]
        w_in, d_in = oracle.restrict(kept_in, actor_sites)
        w_out, d_out = oracle.restrict(kept_out, actor_sites)
        dropped = d_in + d_out
        _, raw = oracle.combine(w_in, w_out, ids)
        dich = oracle.remove_self(oracle.dichotomize(raw))
        nodes, edges = oracle.prune(ids, dich, seed_id)
        rows = [[a, din, dout] for a, din, dout, _ in oracle.degree_rows(nodes, edges)]
        cells, row_totals, col_totals, row_means, col_means = oracle.category_matrix(
            edges, category_of, list(gen.CATEGORIES), populations
        )
        connectivity = [[c, *oracle.connectivity(c, category_of, ids, nodes, edges)]
                        for c, pop in zip(gen.CATEGORIES, populations) if pop]
        neighbors = {a: len(oracle.ego(nodes, edges, a)[0]) for a, _, _ in rows[:top_k]}
    else:
        import networkx as nx

        owner = {site: a.id for a in actors for site in a.sites}
        resolved = [(owner.get(s), owner.get(t)) for s, t in kept_in + kept_out]
        raw = {(a, b) for a, b in resolved if a is not None and b is not None}
        dropped = len(resolved) - sum(1 for a, b in resolved if a is not None and b is not None)
        dich = {e for e in raw if e[0] != e[1]}
        edges = {e for e in dich if e[0] != seed_id}
        graph = nx.DiGraph(list(edges))
        nodes = set(graph.nodes)
        rows = sorted(([n, graph.in_degree(n), graph.out_degree(n)] for n in nodes),
                      key=lambda r: (-(r[1] + r[2]), r[0]))
        index = {c: i for i, c in enumerate(gen.CATEGORIES)}
        cells = [[0] * 9 for _ in range(9)]
        for s, t in edges:
            cells[index[category_of[s]]][index[category_of[t]]] += 1
        row_totals = [sum(row) for row in cells]
        col_totals = [sum(row[j] for row in cells) for j in range(9)]
        row_means = [_mean(row_totals[i], populations[i]) for i in range(9)]
        col_means = [_mean(col_totals[j], populations[j]) for j in range(9)]
        connectivity = []
        for c, pop in zip(gen.CATEGORIES, populations):
            if pop:
                connected = sum(1 for a in actors if a.category == c and a.id in nodes)
                connectivity.append([c, connected, pop, _percent(connected, pop)])
        neighbors = {a: len(set(nx.all_neighbors(graph, a)) - {a}) for a, _, _ in rows[:top_k]}
    others = len(nodes) - 1
    return {
        "filter": {"in": [len(kept_in), len(in_pairs) - len(kept_in)],
                   "out": [len(kept_out), len(out_pairs) - len(kept_out)]},
        "dropped_records": dropped,
        "stages": [["Raw", len(ids), len(raw)], ["Dichotomized", len(ids), len(dich)],
                   ["Pruned", len(nodes), len(edges)]],
        "pruned_edges": edges_digest(edges),
        "degree_rows": rows,
        "top_brokers": rows[:top_k],
        "matrix": {"cells": cells, "actor_counts": populations, "row_totals": row_totals,
                   "col_totals": col_totals, "row_means": list(row_means),
                   "col_means": list(col_means), "grand_total": sum(row_totals)},
        "connectivity": connectivity,
        "ego": [[a, n, others, _percent(n, others)] for a, n in neighbors.items()],
    }


def link_set_csv(records) -> str:
    """The link-set CSV text for ``{(source, target): (provenance, first_seen)}``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["source", "target", "provenance", "first_seen"])
    writer.writerows((s, t, *records[(s, t)]) for s, t in sorted(records))
    return buffer.getvalue()


def merge_rows(rows) -> dict:
    """Rows ``(source, target, tag, first_seen)`` keyed by pair: the
    provenance is the sorted "+"-joined union of tags, first_seen the earliest."""
    records: dict = {}
    for s, t, tag, first_seen in rows:
        old = records.get((s, t))
        if old is None:
            records[(s, t)] = (tag, first_seen)
        else:
            tags = sorted(set(old[0].split("+")) | {tag})
            records[(s, t)] = ("+".join(tags), min(old[1], first_seen))
    return records


def filtered(records: dict, generic) -> dict:
    generic = set(generic)
    return {k: v for k, v in records.items() if k[0] not in generic and k[1] not in generic}


# --- checks ----------------------------------------------------------------------


def check_summary(got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        if got.get(key) != value:
            shown = got.get(key)
            if isinstance(value, list) and len(value) > 12:
                shown, value = f"{len(shown or [])} rows", f"{len(value)} rows (differ)"
            problems.append(f"{key}: got {shown!r}, want {value!r}")
    return problems


def check_properties(got: dict) -> list[str]:
    """Invariants that hold for any correct network, whatever the input."""
    problems = []
    rows = got["degree_rows"]
    pruned_edges = got["stages"][2][2]
    din = sum(r[1] for r in rows)
    dout = sum(r[2] for r in rows)
    if not din == dout == pruned_edges:
        problems.append(f"degree sums in={din} out={dout} edges={pruned_edges}")
    if pruned_edges != got["stages"][1][2] - got["seed_out_dichotomized"]:
        problems.append("pruned edges != dichotomized edges - seed out-degree")
    if any(r[1] + r[2] == 0 for r in rows):
        problems.append("an isolated node survives pruning")
    if got["matrix"]["grand_total"] != pruned_edges:
        problems.append("matrix grand total != pruned edge count")
    return problems


def check_matrix_csv(text: str, matrix: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    want = [["Actors", "Category", *CATEGORY_DISPLAY, "Total - outlinks", "Mean"]]
    for i in range(9):
        want.append([str(matrix["actor_counts"][i]), CATEGORY_DISPLAY[i],
                     *map(str, matrix["cells"][i]), str(matrix["row_totals"][i]),
                     matrix["row_means"][i]])
    want.append(["", "Total - inlinks", *map(str, matrix["col_totals"]),
                 str(matrix["grand_total"]), ""])
    want.append(["", "Mean", *matrix["col_means"], "", ""])
    if rows != want:
        bad = [i for i, (a, b) in enumerate(zip(rows, want)) if a != b]
        return [f"matrix CSV differs (rows {len(rows)} vs {len(want)}, first bad row {bad[:1]})"]
    return []


def check_file(path, expected: str, what: str) -> list[str]:
    data = path.read_bytes()
    if data != expected.encode("utf-8"):
        got_lines = data.decode("utf-8", "replace").count("\n")
        return [f"{what}: written file differs ({got_lines} lines vs "
                f"{expected.count(chr(10))} expected)"]
    return []


def check_study(got: dict, want: dict, out, records: dict, generic) -> list[str]:
    """Every check of a study's network, metrics and written files."""
    problems = check_summary(got, want) + check_properties(got)
    problems += check_matrix_csv((out / "matrix.csv").read_text(encoding="utf-8"),
                                 want["matrix"])
    for direction in ("in", "out"):
        expected = link_set_csv(filtered(records[direction], generic))
        problems += check_file(out / f"{direction}.csv", expected, f"{direction}.csv")
    return problems


# --- index-fullpsl ------------------------------------------------------------------


def check_index_urls(study: gen.IndexStudy, got: dict) -> tuple[int, list[str]]:
    """Per-URL check of the harvest: returns (failed URLs, problems).

    A URL fails when the record its reference site key implies is missing
    from the harvested set. Each failed URL may leave at most one record of
    its own, and that record must not join two actor or generic sites, so
    the network stays checkable.
    """
    reduction = SuffixReference(study.psl.text, study.subdomain_exceptions)
    outcomes = [None if u.host is None else reduction.reduce(u.host) for u in study.urls]
    known = {s for a in study.actors for s in a.sites} | set(study.generic)
    problems = []
    failed = 0
    for direction in ("in", "out"):
        harvested = {tuple(p) for p in got["harvest"][direction]["pairs"]}
        explained = set()
        missing = 0
        for url, outcome in zip(study.urls, outcomes):
            if outcome is None or url.direction != direction:
                continue
            pair = ((outcome[0], url.file_site) if direction == "in"
                    else (url.file_site, outcome[0]))
            if pair in harvested:
                explained.add(pair)
            else:
                missing += 1
                if url.raw not in gen.DEVIATION_URLS:
                    problems.append(f"{url.raw!r}: no record {pair}")
        extra = harvested - explained
        if len(extra) > missing:
            problems.append(f"{direction}: {len(extra)} unexplained records")
        if any(p[0] in known and p[1] in known for p in extra):
            problems.append(f"{direction}: a wrongly reduced URL joins two known sites")
        failed += missing
    skipped = sum(1 for o in outcomes if o is None)
    got_skipped = got["harvest"]["in"]["skipped"] + got["harvest"]["out"]["skipped"]
    if got_skipped != skipped:
        problems.append(f"skipped URLs: got {got_skipped}, want {skipped}")
    flags = Counter(o[1] for o in outcomes if o is not None and o[1] is not None)
    got_flags = Counter(got["harvest"]["in"]["flags"]) + Counter(got["harvest"]["out"]["flags"])
    if got_flags != flags:
        problems.append(f"flags: got {dict(got_flags)}, want {dict(flags)}")
    if got["harvest"]["in"]["failed_sites"] or got["harvest"]["out"]["failed_sites"]:
        problems.append("index queries failed")
    return failed, problems


# --- crawl-loopback -----------------------------------------------------------------


@dataclass
class CrawlWalk:
    pages: list[str]       # URLs taken from the frontier and fetched, in order
    requested: set[str]    # every URL fetched: pages, redirect hops, robots.txt
    links: set[tuple[str, str]]
    robots_blocked: bool


def crawl_expected(seed: int, site: str, reduction: SuffixReference) -> CrawlWalk:
    """What crawling one site must do, found by walking the fixture's page
    graph the way the crawler documents it: breadth first, depth-capped,
    robots rules of the entry host, redirects followed with the final URL
    deciding the site."""
    _, disallowed = gen.robots_rules(seed, site)

    def path_of(url: str) -> str:
        return "/" + url.split("://", 1)[1].split("/", 1)[1]

    entry = f"http://{site}/"
    walk = CrawlWalk([], {f"http://{site}/robots.txt"}, set(), False)
    if any(path_of(entry).startswith(prefix) for prefix in disallowed):
        walk.robots_blocked = True
        return walk
    queue = deque([(entry, 0)])
    seen = {entry}
    while queue and len(walk.pages) < gen.CRAWL_MAX_PAGES:
        url, depth = queue.popleft()
        if any(path_of(url).startswith(prefix) for prefix in disallowed):
            continue
        walk.pages.append(url)
        final = url
        while True:
            walk.requested.add(final)
            response = gen.respond(seed, host_of(final), path_of(final))
            if response.location is None:
                break
            final = response.location
        if response.status != 200:
            continue
        final_site = reduction.reduce(host_of(final))[0]
        if final_site != site:
            walk.links.add((site, final_site))
            continue
        if "html" not in response.content_type:
            continue
        for link in gen.page_links(seed, host_of(final), path_of(final)):
            if link.target is None:
                continue
            target_site = reduction.reduce(host_of(link.target))[0]
            if target_site == site:
                if depth + 1 <= gen.CRAWL_DEPTH and link.target not in seen:
                    seen.add(link.target)
                    queue.append((link.target, depth + 1))
            else:
                walk.links.add((site, target_site))
    return walk


def check_crawl(expected: dict[str, CrawlWalk], crawled: dict) -> list[str]:
    """Each site's fetches, external links and robots verdict against the walk."""
    problems = []
    for site, walk in expected.items():
        got = crawled[site]
        if got["robots_blocked"] != walk.robots_blocked:
            problems.append(f"{site}: robots_blocked {got['robots_blocked']}")
        got_links = {tuple(p) for p in got["links"]}
        if got_links != walk.links:
            problems.append(f"{site}: links missing {sorted(walk.links - got_links)[:3]}, "
                            f"extra {sorted(got_links - walk.links)[:3]}")
        requested = set(got["requested"])
        if requested != walk.requested:
            problems.append(f"{site}: fetched {sorted(requested - walk.requested)[:3]} "
                            f"unexpectedly, not {sorted(walk.requested - requested)[:3]}")
    return problems
