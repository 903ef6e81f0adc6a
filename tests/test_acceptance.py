"""The York Science Park goldens, met by the real pipeline on ``york.py``'s
study: ``build_networks`` and the metrics, as a study runs them, on the
edge-level study; and the whole pipeline from the study's files, as
``write_york_files`` writes them: ``load_registry``, the reduction rules,
the snapshot index harvested in both directions and the generic filter.

Each golden group of ``goldens.py`` is one ``test_acceptance_goldens`` and
one ``test_acceptance_url_level_goldens`` case, named after the group, and
prints one ``[acceptance]`` line (``conftest.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import goldens
from helixmap import metrics, network
from helixmap.harvest import Direction, SnapshotLinkIndex, filter_generic, harvest_index
from helixmap.registry import TableCategory, load_registry
from helixmap.urls import GenericFilterList, ReductionRules
from york import FIRST_SEEN, NOISY_ACTORS, write_york_files, york_study

# each golden group, by name, as goldens.py states it
GOLDENS = {
    "TABLE_CELLS": goldens.TABLE_CELLS,
    "ACTOR_COUNTS": goldens.ACTOR_COUNTS,
    "ROW_TOTALS": goldens.ROW_TOTALS,
    "COL_TOTALS": goldens.COL_TOTALS,
    "GRAND_TOTAL": goldens.GRAND_TOTAL,
    "ROW_MEANS": goldens.ROW_MEANS,
    "COL_MEANS": goldens.COL_MEANS,
    "TOP_IN_DEGREE": goldens.TOP_IN_DEGREE,
    "TOP_OUT_DEGREE": goldens.TOP_OUT_DEGREE,
    "EGO": (goldens.EGO_NEIGHBORS, goldens.EGO_OTHERS, goldens.EGO_PERCENT),
    "KBF": (goldens.KBF_CONNECTED, goldens.KBF_POPULATION, goldens.KBF_PERCENT),
    "SBF": (goldens.SBF_CONNECTED, goldens.SBF_POPULATION, goldens.SBF_PERCENT),
    "PRE_PRUNE": (goldens.PRE_PRUNE_NODES, goldens.PRE_PRUNE_EDGES),
    "PRUNED": (goldens.PRUNED_NODES, goldens.PRUNED_EDGES),
}


def study_values(seed: int) -> dict[str, object]:
    """Each golden group as the pipeline computes it for ``york_study(seed)``,
    and the records that restriction dropped."""
    study = york_study(seed)
    return golden_values(study.registry, study.inlinks, study.outlinks, study.york)


def golden_values(reg, inlinks, outlinks, york) -> dict[str, object]:
    """Each golden group as the pipeline computes it for a study's registry,
    link sets and ego, and the records that restriction dropped."""
    built = network.build_networks(inlinks, outlinks, reg)
    pruned = built.pruned
    matrix = metrics.category_matrix(pruned, reg)
    rows = metrics.degree_table(pruned)

    def share(category):
        found = metrics.connectivity_share(category, reg, pruned)
        return found.connected, found.population, found.percent

    return {
        "TABLE_CELLS": matrix.cells,
        "ACTOR_COUNTS": matrix.actor_counts,
        "ROW_TOTALS": matrix.row_totals,
        "COL_TOTALS": matrix.col_totals,
        "GRAND_TOTAL": matrix.grand_total,
        "ROW_MEANS": list(map(str, matrix.row_means)),
        "COL_MEANS": list(map(str, matrix.col_means)),
        "TOP_IN_DEGREE": max(row.in_degree for row in rows),
        "TOP_OUT_DEGREE": max(row.out_degree for row in rows),
        "EGO": metrics.ego_coverage(pruned, york),
        "KBF": share(TableCategory.KNOWLEDGE_BASED_FIRM),
        "SBF": share(TableCategory.SERVICE_BASED_FIRM),
        "PRE_PRUNE": (built.dichotomized.node_count, built.dichotomized.edge_count),
        "PRUNED": (pruned.node_count, pruned.edge_count),
        "dropped_records": built.dropped_records,
    }


@pytest.fixture(scope="module")
def seed_0():
    return study_values(0)


@pytest.mark.parametrize("group", GOLDENS)
def test_acceptance_goldens(seed_0, group):
    assert seed_0[group] == GOLDENS[group]


def test_acceptance_restriction_drops_each_stranger_row(seed_0):
    assert seed_0["dropped_records"] == NOISY_ACTORS


def test_every_seed_of_the_york_study_meets_every_golden():
    for seed in range(20):
        values = study_values(seed)
        failed = [group for group in GOLDENS if values[group] != GOLDENS[group]]
        assert failed == [], seed


@pytest.fixture(scope="module")
def url_level(tmp_path_factory):
    """Seed 0's study read from its files as a study reads them: what the
    files say, what each stage gives, and the golden values."""
    study = york_study(0)
    files = write_york_files(study, tmp_path_factory.mktemp("york"))
    reg = load_registry(files.registry)
    rules = ReductionRules.from_files(files.suffixes, files.exceptions)
    index = SnapshotLinkIndex(files.index)
    sites = sorted(site for actor in reg.actors() for site in actor.sites)
    harvests = {direction: harvest_index(sites, index, direction, rules, now=FIRST_SEEN)
                for direction in Direction}
    generic = GenericFilterList.from_file(files.generic_filter)
    kept = {direction: filter_generic(harvest.links, generic)
            for direction, harvest in harvests.items()}
    values = golden_values(reg, kept[Direction.INLINKS][0], kept[Direction.OUTLINKS][0],
                           study.york)
    return SimpleNamespace(study=study, files=files, reg=reg, harvests=harvests, kept=kept,
                           values=values)


@pytest.mark.parametrize("group", GOLDENS)
def test_acceptance_url_level_goldens(url_level, group):
    assert url_level.values[group] == GOLDENS[group]


def test_acceptance_url_level_counts(url_level):
    files, kept, harvests = url_level.files, url_level.kept, url_level.harvests
    inbound, outbound = harvests[Direction.INLINKS], harvests[Direction.OUTLINKS]
    assert (inbound.skipped_urls, outbound.skipped_urls) == (
        files.skipped_inlink_urls, files.skipped_outlink_urls) == (NOISY_ACTORS, NOISY_ACTORS)
    assert (kept[Direction.INLINKS][1], kept[Direction.OUTLINKS][1]) == (
        0, files.generic_records) == (0, 2 * NOISY_ACTORS)
    assert url_level.values["dropped_records"] == files.stranger_records == 2 * NOISY_ACTORS
    assert inbound.failed_sites == outbound.failed_sites == {}
    assert inbound.flags == outbound.flags == {}


def test_acceptance_url_level_reads_the_edge_level_study(url_level):
    # every spelling folds to the site it names: the registry and the inlink
    # evidence are the edge-level study's, and the outlink evidence is its
    # rows and the added strangers
    study, kept = url_level.study, url_level.kept
    assert set(url_level.reg.actors()) == set(study.registry.actors())
    assert kept[Direction.INLINKS][0] == study.inlinks
    added = set(kept[Direction.OUTLINKS][0].pairs()) - set(study.outlinks.pairs())
    assert len(kept[Direction.OUTLINKS][0]) == len(study.outlinks) + len(added)
    assert sorted(target for _, target in added) == sorted(
        f"elsewhere-{k}.test" for k in range(NOISY_ACTORS))
