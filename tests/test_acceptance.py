"""The York Science Park goldens, met by the real pipeline on ``york.py``'s
edge-level study: ``build_networks`` and the metrics, as a study runs them.

Each golden group of ``goldens.py`` is one ``test_acceptance_goldens`` case,
named after the group, and prints one ``[acceptance]`` line (``conftest.py``).
"""

from __future__ import annotations

import pytest

import goldens
from helixmap import metrics, network
from helixmap.registry import TableCategory
from york import NOISY_ACTORS, york_study

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
    reg = study.registry
    built = network.build_networks(study.inlinks, study.outlinks, reg)
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
        "EGO": metrics.ego_coverage(pruned, study.york),
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
