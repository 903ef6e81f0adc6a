"""Analytical outputs over a built interlinking network.

Covers the quantities a science-park link study reports: per-actor degree
tables, broker rankings, the 9x9 category cross-link matrix with totals
and per-actor means, category connectivity shares, and the coverage of
each actor's radius-1 ego network. The degree tables and the matrix
refuse any network but a Pruned one. All computations are exact integer
counting; means and percentages round half-up (one decimal for means,
whole numbers for percentages).
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .network import InterlinkNetwork, Stage, StageError
from .network import degree_counts  # noqa: F401  (perfbench/layers.py wraps it under this name)
from .registry import CATEGORY_ORDER, Registry, TableCategory


class UnclassifiedActor(ValueError):
    """A network node does not resolve to a registry actor."""


class EmptyCategory(ValueError):
    """Connectivity share requested for a category with no actors."""


class ActorNotInNetwork(ValueError):
    """Ego network requested for an actor that is not a node."""


def _half_up(numerator: int, denominator: int, places: str) -> Decimal:
    if denominator == 0:
        return Decimal(places)  # "0.0" or "0" -> zero at the right scale
    return (Decimal(numerator) / Decimal(denominator)).quantize(
        Decimal(places), rounding=ROUND_HALF_UP
    )


def _check_stage(net: InterlinkNetwork, op: str) -> None:
    if net.stage is not Stage.PRUNED:
        raise StageError(f"{op} expects a Pruned network, got {net.stage.label}")


# --- degrees and brokers ----------------------------------------------------


@dataclass(frozen=True)
class DegreeRow:
    actor_id: str
    in_degree: int
    out_degree: int

    @property
    def total(self) -> int:
        return self.in_degree + self.out_degree


def degree_table(net: InterlinkNetwork) -> list[DegreeRow]:
    """Per-actor degrees, ordered by total descending then actor id."""
    _check_stage(net, "degree_table")
    rows = [DegreeRow(node, *net.degrees.get(node, (0, 0))) for node in net.nodes]
    rows.sort(key=lambda r: (-r.total, r.actor_id))
    return rows


def top_brokers(net: InterlinkNetwork, k: int) -> list[DegreeRow]:
    """The k best-connected actors: the first k rows of the degree table,
    taken without sorting the rest (its key is unique to each node)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_stage(net, "top_brokers")
    degrees = net.degrees
    top = heapq.nsmallest(k, net.nodes, key=lambda node: (-sum(degrees.get(node, (0, 0))), node))
    return [DegreeRow(node, *degrees.get(node, (0, 0))) for node in top]


# --- category matrix --------------------------------------------------------


@dataclass
class CategoryMatrix:
    """Category-by-category directed link counts in canonical order.

    ``cells[i][j]`` counts edges from category-i actors to category-j
    actors; ``actor_counts`` is the registry population per category
    (including actors pruned from the network), which is the denominator
    of the per-actor means.
    """

    cells: list[list[int]]
    actor_counts: list[int]
    row_totals: list[int]
    col_totals: list[int]
    row_means: list[Decimal]
    col_means: list[Decimal]

    @property
    def grand_total(self) -> int:
        return sum(self.row_totals)


def category_matrix(net: InterlinkNetwork, reg: Registry) -> CategoryMatrix:
    """Aggregate the pruned network's edges by actor category."""
    _check_stage(net, "category_matrix")
    unknown = sorted(n for n in net.nodes if reg.get(n) is None)
    if unknown:
        raise UnclassifiedActor(f"nodes missing from registry: {unknown}")
    node_category = {node: reg.get(node).category.index for node in net.nodes}

    n = len(CATEGORY_ORDER)
    cells = [[0] * n for _ in range(n)]
    for source, target in net.edges:
        cells[node_category[source]][node_category[target]] += 1

    counts = reg.category_counts()
    actor_counts = [counts[c] for c in CATEGORY_ORDER]
    row_totals = [sum(row) for row in cells]
    col_totals = [sum(cells[i][j] for i in range(n)) for j in range(n)]
    row_means = [_half_up(row_totals[i], actor_counts[i], "0.0") for i in range(n)]
    col_means = [_half_up(col_totals[j], actor_counts[j], "0.0") for j in range(n)]
    return CategoryMatrix(
        cells=cells,
        actor_counts=actor_counts,
        row_totals=row_totals,
        col_totals=col_totals,
        row_means=row_means,
        col_means=col_means,
    )


OUTLINK_TOTAL_LABEL = "Total - outlinks"
INLINK_TOTAL_LABEL = "Total - inlinks"


def category_matrix_csv(matrix: CategoryMatrix) -> str:
    """Render the matrix in its tabular CSV layout.

    Leading actor-count column, one row per category, a trailing outlink
    total and mean column, and closing inlink-total and mean rows.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    names = [c.display_name for c in CATEGORY_ORDER]
    writer.writerow(["Actors", "Category", *names, OUTLINK_TOTAL_LABEL, "Mean"])
    for i, category in enumerate(CATEGORY_ORDER):
        writer.writerow(
            [
                matrix.actor_counts[i],
                category.display_name,
                *matrix.cells[i],
                matrix.row_totals[i],
                matrix.row_means[i],
            ]
        )
    writer.writerow(["", INLINK_TOTAL_LABEL, *matrix.col_totals, matrix.grand_total, ""])
    writer.writerow(["", "Mean", *matrix.col_means, "", ""])
    return buffer.getvalue()


def write_category_matrix(matrix: CategoryMatrix, path: str | Path) -> None:
    Path(path).write_text(category_matrix_csv(matrix), encoding="utf-8")


# --- connectivity and ego ---------------------------------------------------


@dataclass(frozen=True)
class ConnectivityShare:
    category: TableCategory
    connected: int
    population: int
    percent: int


def connectivity_share(
    category: TableCategory, reg: Registry, net: InterlinkNetwork
) -> ConnectivityShare:
    """How many of a category's registry actors are linked in the network.

    The denominator is the full registry population of the category, so
    actors pruned away (or never linked) count against the share.
    """
    population = [actor for actor in reg if actor.category is category]
    if not population:
        raise EmptyCategory(category.value)
    connected = sum(1 for actor in population if actor.id in net.degrees)
    percent = int(_half_up(connected * 100, len(population), "0"))
    return ConnectivityShare(
        category=category,
        connected=connected,
        population=len(population),
        percent=percent,
    )


def ego_coverage(net: InterlinkNetwork, actor_id: str) -> tuple[int, int, int]:
    """(direct neighbours, other interconnected actors, whole percent).

    The direct neighbours are the other nodes that link to the actor or
    that it links to, counted from its degrees: a reciprocated pair counts
    once and a self-link not at all.
    """
    if actor_id not in net.nodes:
        raise ActorNotInNetwork(actor_id)
    in_degree, out_degree = net.degrees.get(actor_id, (0, 0))
    count = in_degree + out_degree - net.reciprocated[actor_id]
    if (actor_id, actor_id) in net.edges:
        count -= 2
    others = net.node_count - 1
    percent = int(_half_up(count * 100, others, "0")) if others else 0
    return count, others, percent
