"""A York Science Park study at edge level, built to meet ``goldens.py``.

``york_study(seed)`` builds the registry as ``Actor``s and the link
evidence as ``LinkSet.add`` rows, with no URLs, from one seeded
``random.Random``. Run through ``build_networks`` and the metrics, every
seed gives the published category matrix and headline numbers. The study
matches the published aggregates; it is not the original harvest.

The construction:

- **Connected actors:** the first 13 service-based firms, 18 knowledge-based
  firms and 3 consultants, and every actor of the other categories. Only
  the seed links to the rest, so pruning drops them.
- **The seed,** the Science Park, links to each of the 103 other actors:
  the 378 - 275 edges that pruning drops.
- **The ego,** York, is Academia actor 0. The paper does not say whose ego
  network has 44 of 74 actors; the abstract names the university as a
  driving force, so here it is York's. York's 37 out-edges fill the quotas
  of ``YORK_OUT``. Seven PNGO actors that York does not link to, and three
  SSO actors that it does, link to York: 44 neighbours, three of them in
  reciprocated pairs, which an ego count that counts such a pair twice
  would miss. No other edge touches York.
- **The in-degree hub** is SSO actor 0, with 24 in-edges.
- **Every other cell** of the matrix is filled greedily, pairs whose
  endpoints have no edge yet first, under caps of out-degree 36 and
  in-degree 23.

Each edge is a row of the outlink set, of the inlink set or of both, and
one SSO actor owns two sites. Noise: ``NOISY_ACTORS`` actors also link to
their own site, and to a stranger site that no actor owns, so restriction
drops ``NOISY_ACTORS`` rows.

``write_york_files(study, directory)`` writes a study as the files a
URL-level study reads, and states the counts its pipeline must give:

- **Sites:** every actor site is a sub-domain of ``york.test``. The suffix
  list holds ``test`` and the exceptions file lists ``york.test``, so each
  sub-domain is a site of its own, as ``hull.ac.uk``'s are in a real study.
- **Spellings the host rule folds:** registry sites come as written, in
  upper case, with a root dot, or both. Index URLs name a host bare, in
  upper case, under ``www.``, with a root dot, or with both and a Unicode
  full stop, with or without a scheme, and on an empty path,
  ``/about.html`` or ``/a/b/../c``.
- **Index lists:** each outlink row is a URL in its source's ``.out`` list,
  and each inlink row a URL in its target's ``.in`` list.
- **Noise added:** each actor with a stranger row also lists a second
  stranger, two generic sites (the filter writes one with a root dot), and
  a ``mailto:`` URL in its ``.out`` list and a ``javascript:`` URL in its
  ``.in`` list, which the harvest skips.
"""

from __future__ import annotations

import csv
import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from goldens import ACTOR_COUNTS, KBF_CONNECTED, SBF_CONNECTED, TABLE_CELLS
from helixmap.harvest import Direction, LinkSet, SourceTag
from helixmap.registry import CATEGORY_ORDER, Actor, Registry, Sector, TableCategory
from helixmap.urls import SiteKey

SBF, KBF, CONSULTANTS, BDI, ACADEMIA, SSO, PNGO, GOVERNMENT, PARK = range(len(CATEGORY_ORDER))
# how many actors of a category have an edge after pruning: the goldens'
# connectivity shares, and 75 minus the other categories' actors
CONNECTED = {SBF: SBF_CONNECTED, KBF: KBF_CONNECTED, CONSULTANTS: 3}
# York's out-edges, by the category of their target
YORK_OUT = {SBF: 4, KBF: 8, CONSULTANTS: 2, BDI: 3, ACADEMIA: 4, SSO: 11, PNGO: 4, GOVERNMENT: 1}
HUB_IN = 24
MAX_OUT, MAX_IN = 36, 23
NOISY_ACTORS = 30
FIRST_SEEN = 1_356_998_400  # 2013-01-01
_INDUSTRY = {SBF, KBF, CONSULTANTS, BDI}


@dataclass(frozen=True)
class YorkStudy:
    registry: Registry
    inlinks: LinkSet
    outlinks: LinkSet
    york: str  # the ego's actor id


def york_study(seed: int) -> YorkStudy:
    rng = random.Random(seed)
    ids = [[f"{category.value.lower()}-{i:02d}" for i in range(count)]
           for category, count in zip(CATEGORY_ORDER, ACTOR_COUNTS)]
    category_of = {actor: c for c, members in enumerate(ids) for actor in members}
    connected = [members[:CONNECTED.get(c, len(members))] for c, members in enumerate(ids)]
    york, hub, park = ids[ACADEMIA][0], ids[SSO][0], ids[PARK][0]
    quota = [list(row) for row in TABLE_CELLS]
    edges: dict[tuple[str, str], None] = {}  # in the order they were made
    ins, outs = Counter(), Counter()

    def link(source: str, target: str) -> None:
        edges[source, target] = None
        quota[category_of[source]][category_of[target]] -= 1
        outs[source] += 1
        ins[target] += 1

    for c, count in YORK_OUT.items():
        for target in rng.sample([a for a in connected[c] if a != york], count):
            link(york, target)
    for source in rng.sample([a for a in connected[PNGO] if (york, a) not in edges], 7):
        link(source, york)
    for source in rng.sample([a for a in connected[SSO] if (york, a) in edges], 3):
        link(source, york)

    others = [a for members in connected for a in members if a not in (york, hub)]
    rng.shuffle(others)
    for source in others:
        if ins[hub] < HUB_IN and quota[category_of[source]][SSO] > 0:
            link(source, hub)

    for i, row in enumerate(quota):
        for j in range(len(row)):
            pairs = [(s, t) for s in connected[i] for t in connected[j]
                     if s != t and york not in (s, t) and t != hub and (s, t) not in edges]
            rng.shuffle(pairs)
            pairs.sort(key=lambda pair: (pair[0] in outs or pair[0] in ins)
                       + (pair[1] in outs or pair[1] in ins))
            for s, t in pairs:
                if not row[j]:
                    break
                if outs[s] < MAX_OUT and ins[t] < MAX_IN:
                    link(s, t)
            assert not row[j], f"seed {seed}: cell ({i}, {j}) is {row[j]} edges short"

    sites = {actor: [f"{actor}.york.test"] for actor in category_of}
    sites[ids[SSO][1]].append(f"{ids[SSO][1]}-shop.york.test")
    actors = [
        Actor(actor, frozenset(map(SiteKey, sites[actor])), actor,
              Sector.INDUSTRY if c in _INDUSTRY else
              Sector.ACADEMIA if c == ACADEMIA else Sector.GOVERNMENT,
              CATEGORY_ORDER[c])
        for actor, c in category_of.items()
    ]
    inlinks, outlinks = LinkSet(Direction.INLINKS), LinkSet(Direction.OUTLINKS)

    def site(actor: str) -> SiteKey:
        return SiteKey(rng.choice(sites[actor]))

    for n, (source, target) in enumerate([*edges, *((park, a) for a in category_of if a != park)]):
        evidence = 3 if n == 0 else rng.randint(1, 3)  # 1: an outlink row, 2: inlink, 3: both
        if evidence & 1:
            outlinks.add(site(source), site(target), SourceTag.OUTLINK_INDEX, FIRST_SEEN)
        if evidence & 2:
            inlinks.add(site(source), site(target), SourceTag.INLINK_INDEX, FIRST_SEEN)
    for k, actor in enumerate(rng.sample(sorted(category_of), NOISY_ACTORS)):
        own = SiteKey(sites[actor][-1])
        outlinks.add(SiteKey(sites[actor][0]), own, SourceTag.OUTLINK_INDEX, FIRST_SEEN)
        outlinks.add(own, SiteKey(f"stranger-{k}.test"), SourceTag.OUTLINK_INDEX, FIRST_SEEN)
    return YorkStudy(Registry(actors), inlinks, outlinks, york)


SUFFIXES = "// VERSION: york-test\ntest\ncom\n"
EXCEPTIONS = "# sub-domains kept as sites of their own\nYork.test.\n"
GENERIC_FILTER = "# VERSION: york-test\nGoogle.COM.\nfacebook.com  # social\n"
GENERIC_URLS = ("https://www.google.com/search?q=york", "http://m.facebook.com/york")
_SITE_SPELLINGS = (str, str.upper, "{}.".format, lambda site: f"{site.upper()}.")
_HOST_SPELLINGS = (str, str.upper, "www.{}".format, "{}.".format,
                   lambda host: f"WWW.{host.upper()}\u3002")
_SCHEMES = ("http://", "HTTPS://", "")  # a harvest reads a bare host as http
_PATHS = ("", "/about.html", "/a/b/../c")


@dataclass(frozen=True)
class YorkFiles:
    """The files ``write_york_files`` wrote, and the counts that reading
    them must give."""

    registry: Path
    suffixes: Path
    exceptions: Path
    generic_filter: Path
    index: Path
    skipped_inlink_urls: int
    skipped_outlink_urls: int
    generic_records: int  # outlink records naming a generic site
    stranger_records: int  # the records that remain naming a site no actor owns


def write_york_files(study: YorkStudy, directory: Path) -> YorkFiles:
    """Write ``study`` into ``directory`` as a URL-level study's files."""
    spelt = itertools.count()

    def url(site: str) -> str:
        n = next(spelt)
        return _SCHEMES[n % 3] + _HOST_SPELLINGS[n % 5](site) + _PATHS[n % 7 % 3]

    lists: dict[str, list[str]] = defaultdict(list)  # index list name -> its URLs
    for source, target in study.outlinks.pairs():
        lists[f"{source}.out"].append(url(target))
    for source, target in study.inlinks.pairs():
        lists[f"{target}.in"].append(url(source))
    strangers = [(source, target) for source, target in study.outlinks.pairs()
                 if target.startswith("stranger-")]
    for k, (source, _) in enumerate(strangers):
        lists[f"{source}.out"] += [url(f"elsewhere-{k}.test"), *GENERIC_URLS,
                                   f"mailto:info@{source}"]
        lists[f"{source}.in"].append("javascript:void(0)")

    index = directory / "index"
    index.mkdir()
    for name, urls in lists.items():
        (index / name).write_text("".join(f"{u}\n" for u in urls), encoding="utf-8")
    registry = directory / "registry.csv"
    with open(registry, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["site", "actor_id", "label", "sector", "category", "role"])
        rows = sorted((site.value, actor) for actor in study.registry.actors()
                      for site in actor.sites)
        for n, (site, actor) in enumerate(rows):
            writer.writerow([_SITE_SPELLINGS[n % 4](site), actor.id, actor.label,
                             actor.sector.value, actor.category.value, ""])
    paths = [directory / name for name in ("suffixes.dat", "exceptions.txt", "generic.txt")]
    for path, text in zip(paths, (SUFFIXES, EXCEPTIONS, GENERIC_FILTER)):
        path.write_text(text, encoding="utf-8")
    return YorkFiles(registry, *paths, index, skipped_inlink_urls=len(strangers),
                     skipped_outlink_urls=len(strangers),
                     generic_records=len(GENERIC_URLS) * len(strangers),
                     stranger_records=2 * len(strangers))
