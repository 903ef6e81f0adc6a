"""Build the directed actor interlinking network from harvested links.

The pipeline is a fixed sequence of pure transformations:

1. ``restrict_to_actors``: keep only link records whose source and target
   both resolve to registry actors; weight = distinct site pairs behind
   the actor pair.
2. ``combine``: union the inlink-derived and outlink-derived edge sets.
   A pair observed by both sources keeps the larger weight: the two
   sources corroborate the same underlying links, they do not add up.
3. ``dichotomize``: intensity becomes presence/absence (all weights 1).
4. ``remove_self_links``: drop edges whose endpoints are one actor.
5. ``prune_seed``: drop the seed's outgoing edges (they exist implicitly:
   the actor population was discovered from the seed site), then drop
   actors left without any link. Only incoming links to the seed remain.

Stages are explicit (Raw -> Dichotomized -> Pruned) and operations refuse
out-of-order application.

Each network computes its derived structure once, on first use: its
``degrees`` and its undirected ``neighbors``. Every metric reads them from
the network rather than recounting the edges, so a network's ``edges``
must not be mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from .harvest import LinkSet
from .registry import Registry, resolve


class Stage(IntEnum):
    RAW = 1
    DICHOTOMIZED = 2
    PRUNED = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


class StageError(RuntimeError):
    """Pipeline operation applied to a network in the wrong stage."""


class SeedMissing(ValueError):
    """The seed actor is not a node of the network."""


@dataclass(frozen=True)
class InterlinkNetwork:
    """Directed network over actor ids; immutable once constructed.

    ``degrees`` and ``neighbors`` are computed once, from ``edges``, on
    first use; ``edges`` must not be mutated after construction.
    """

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]
    stage: Stage
    seed: str

    def __post_init__(self):
        for (source, target), weight in self.edges.items():
            if source not in self.nodes or target not in self.nodes:
                raise ValueError(f"edge ({source},{target}) endpoint not in nodes")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"edge ({source},{target}) has bad weight {weight!r}")
            if self.stage >= Stage.DICHOTOMIZED and weight != 1:
                raise ValueError(f"stage {self.stage.label} requires unit weights")
            if self.stage is Stage.PRUNED and source == target:
                raise ValueError("pruned network contains a self-link")
        if self.stage is Stage.PRUNED:
            if any(source == self.seed for source, _ in self.edges):
                raise ValueError("pruned network has outgoing seed edges")
            isolated = self.nodes - self.degrees.keys()
            if isolated:
                raise ValueError(f"pruned network keeps isolated node {min(isolated)!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def degrees(self) -> dict[str, tuple[int, int]]:
        """(in_degree, out_degree) of every node with at least one edge."""
        return degree_counts(self.edges)

    @cached_property
    def neighbors(self) -> dict[str, set[str]]:
        """Every node's set of other nodes it links to in either direction."""
        adjacent: dict[str, set[str]] = {node: set() for node in self.nodes}
        for source, target in self.edges:
            if source != target:
                adjacent[source].add(target)
                adjacent[target].add(source)
        return adjacent


def degree_counts(edges: dict[tuple[str, str], int]) -> dict[str, tuple[int, int]]:
    """Per-node (in_degree, out_degree) over the directed edge key set."""
    degrees: dict[str, tuple[int, int]] = {}
    for source, target in edges:
        din, dout = degrees.get(source, (0, 0))
        degrees[source] = (din, dout + 1)
        din, dout = degrees.get(target, (0, 0))
        degrees[target] = (din + 1, dout)
    return degrees


@dataclass
class RestrictedEdges:
    """Actor-level edge weights plus the count of dropped link records."""

    weights: dict[tuple[str, str], int] = field(default_factory=dict)
    dropped: int = 0


def restrict_to_actors(links: LinkSet, reg: Registry) -> RestrictedEdges:
    """Map site-level records onto registry actors, dropping strangers.

    A record survives only if both endpoints resolve; the weight of an
    actor pair is the number of distinct site pairs observed for it.
    """
    result = RestrictedEdges()
    for record in links:
        source_actor = resolve(record.source, reg)
        target_actor = resolve(record.target, reg)
        if source_actor is None or target_actor is None:
            result.dropped += 1
            continue
        key = (source_actor.id, target_actor.id)
        result.weights[key] = result.weights.get(key, 0) + 1
    return result


def combine(
    inlink_edges: dict[tuple[str, str], int],
    outlink_edges: dict[tuple[str, str], int],
    reg: Registry,
) -> InterlinkNetwork:
    """Union of the two evidence networks over all registry actors (Raw stage).

    Shared directed pairs take the max of the two weights: corroboration,
    not addition.
    """
    edges: dict[tuple[str, str], int] = dict(inlink_edges)
    for key, weight in outlink_edges.items():
        edges[key] = max(edges.get(key, 0), weight)
    nodes = frozenset(actor.id for actor in reg.actors())
    return InterlinkNetwork(nodes=nodes, edges=edges, stage=Stage.RAW, seed=reg.seed)


def dichotomize(net: InterlinkNetwork) -> InterlinkNetwork:
    """Replace every weight with 1; the edge key set is unchanged."""
    if net.stage is not Stage.RAW:
        raise StageError(f"dichotomize expects a Raw network, got {net.stage.label}")
    return InterlinkNetwork(
        nodes=net.nodes,
        edges={key: 1 for key in net.edges},
        stage=Stage.DICHOTOMIZED,
        seed=net.seed,
    )


def remove_self_links(net: InterlinkNetwork) -> InterlinkNetwork:
    """Drop every (x -> x) edge; stage is preserved."""
    if net.stage is Stage.PRUNED:
        # already guaranteed self-free; keep the operation idempotent
        return net
    return InterlinkNetwork(
        nodes=net.nodes,
        edges={k: w for k, w in net.edges.items() if k[0] != k[1]},
        stage=net.stage,
        seed=net.seed,
    )


def prune_seed(net: InterlinkNetwork) -> InterlinkNetwork:
    """Remove the seed's outgoing edges, then every actor left link-less.

    The seed itself survives only if something still links to it.
    """
    if net.stage is not Stage.DICHOTOMIZED:
        raise StageError(f"prune_seed expects a Dichotomized network, got {net.stage.label}")
    if net.seed not in net.nodes:
        raise SeedMissing(f"seed {net.seed!r} is not a node of the network")

    edges = {k: w for k, w in net.edges.items() if k[0] != net.seed}
    nodes = frozenset(node for key in edges for node in key)
    return InterlinkNetwork(nodes=nodes, edges=edges, stage=Stage.PRUNED, seed=net.seed)


@dataclass
class BuiltNetworks:
    """All pipeline stages for one study, plus restriction bookkeeping."""

    raw: InterlinkNetwork
    dichotomized: InterlinkNetwork
    pruned: InterlinkNetwork
    dropped_records: int

    def stage_counts(self) -> list[tuple[str, int, int]]:
        return [
            (net.stage.label, net.node_count, net.edge_count)
            for net in (self.raw, self.dichotomized, self.pruned)
        ]


def build_networks(inlinks: LinkSet, outlinks: LinkSet, reg: Registry) -> BuiltNetworks:
    """Run the full restrict -> combine -> dichotomize -> remove self-links
    -> prune pipeline. The Dichotomized stage reported here is self-link
    free (the form in which node/edge counts are quoted)."""
    restricted_in = restrict_to_actors(inlinks, reg)
    restricted_out = restrict_to_actors(outlinks, reg)
    raw = combine(restricted_in.weights, restricted_out.weights, reg)
    dichotomized = remove_self_links(dichotomize(raw))
    pruned = prune_seed(dichotomized)
    return BuiltNetworks(
        raw=raw,
        dichotomized=dichotomized,
        pruned=pruned,
        dropped_records=restricted_in.dropped + restricted_out.dropped,
    )
