"""Deterministic random pipeline instances for oracle-equivalence runs."""

from __future__ import annotations

import random

from helixmap.harvest import Direction, LinkSet, SourceTag
from helixmap.registry import Actor, Registry, Sector, TableCategory
from helixmap.urls import SiteKey

CATEGORIES = list(TableCategory)
SECTORS = list(Sector)


def random_instance(rng: random.Random):
    """A small registry plus random in/out link sets, with a plain-data
    mirror (actor site lists, category map, record tuples) for the oracle."""
    actor_count = rng.randint(1, 12)
    actors = []
    actor_sites: list[tuple[str, list[str]]] = []
    for i in range(actor_count):
        n_sites = rng.randint(1, 2)
        sites = [f"site{i}{chr(97 + j)}.co.uk" for j in range(n_sites)]
        category = TableCategory.SCIENCE_PARK if i == 0 else rng.choice(CATEGORIES[:-1])
        actor_id = f"actor{i:02d}"
        actors.append(
            Actor(
                id=actor_id,
                sites=frozenset(SiteKey(s) for s in sites),
                label=f"Actor {i}",
                sector=rng.choice(SECTORS),
                category=category,
                role=None,
            )
        )
        actor_sites.append((actor_id, sites))
    reg = Registry(actors)

    known_sites = [s for _, sites in actor_sites for s in sites]
    stranger_sites = ["stranger1.com", "stranger2.org", "nowhere.net"]
    pool = known_sites + stranger_sites

    def random_records(count: int) -> list[tuple[str, str]]:
        records = []
        for _ in range(count):
            records.append((rng.choice(pool), rng.choice(pool)))
        return records

    total_records = rng.randint(0, 60)
    in_count = rng.randint(0, total_records)
    in_pairs = random_records(in_count)
    out_pairs = random_records(total_records - in_count)

    def to_linkset(pairs, direction, tag):
        links = LinkSet(direction)
        for source, target in pairs:
            links.add(SiteKey(source), SiteKey(target), tag, 0)
        return links

    inlinks = to_linkset(in_pairs, Direction.INLINKS, SourceTag.INLINK_INDEX)
    outlinks = to_linkset(out_pairs, Direction.OUTLINKS, SourceTag.OUTLINK_INDEX)

    # the oracle sees deduplicated pairs, mirroring the link-set contract
    in_dedup = sorted(set(in_pairs))
    out_dedup = sorted(set(out_pairs))
    return reg, inlinks, outlinks, actor_sites, in_dedup, out_dedup
