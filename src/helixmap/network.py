"""Build the directed actor interlinking network from harvested links.

The pipeline is a fixed sequence of pure transformations:

1. ``restrict_to_actors``: map each link record onto the actor pair its
   source and target sites resolve to, dropping records with a stranger
   endpoint. Many site pairs may map onto one actor pair.
2. ``combine``: union the inlink-derived and outlink-derived actor pairs.
   The two sources corroborate the same underlying links; a pair either
   is observed or is not.
3. ``dichotomize``: mark the network as the presence/absence one the
   study reports; its edge set is unchanged.
4. ``remove_self_links``: drop edges whose endpoints are one actor.
5. ``prune_seed``: drop the seed's outgoing edges (they exist implicitly:
   the actor population was discovered from the seed site), then drop
   actors left without any link. Only incoming links to the seed remain.

Stages are explicit (Raw -> Dichotomized -> Pruned) and operations refuse
out-of-order application. Every network checks its stage's invariants when
it is constructed: every edge endpoint is a node, and a Pruned network has
no self-link, no seed out-edge and no isolated node.

Edges are a frozenset of directed actor pairs, so a network is immutable.
Each network computes its derived structure once, on first use: its
``degrees`` and each node's count of ``reciprocated`` out-edges. Every
metric reads them from the network rather than recounting the edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain, starmap
from operator import eq, itemgetter

from .harvest import LinkSet
from .registry import Registry, resolve
from .urls import SiteKey


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

    ``degrees`` and ``reciprocated`` are computed once, from ``edges``, on
    first use.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    stage: Stage
    seed: str

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            raise TypeError(f"edges must be a frozenset, got {type(self.edges).__name__}")
        # the checks iterate in C; only a failure looks for its culprit
        if not self.nodes.issuperset(chain.from_iterable(self.edges)):
            source, target = next(
                edge for edge in self.edges
                if edge[0] not in self.nodes or edge[1] not in self.nodes
            )
            raise ValueError(f"edge ({source},{target}) endpoint not in nodes")
        if self.stage is Stage.PRUNED:
            if any(starmap(eq, self.edges)):
                raise ValueError("pruned network contains a self-link")
            if self.seed in map(itemgetter(0), self.edges):
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
    def reciprocated(self) -> Counter[str]:
        """Per node, how many of its out-edges to another node have an edge
        back; a node with none is not counted."""
        edges = self.edges
        return Counter(source for source, target in edges
                       if source != target and (target, source) in edges)


def degree_counts(edges: frozenset[tuple[str, str]]) -> dict[str, tuple[int, int]]:
    """Per-node (in_degree, out_degree) over the directed edges."""
    ins = Counter(map(itemgetter(1), edges))
    outs = Counter(map(itemgetter(0), edges))
    return {node: (ins[node], outs[node]) for node in ins.keys() | outs.keys()}


def restrict_to_actors(links: LinkSet, reg: Registry) -> tuple[frozenset[tuple[str, str]], int]:
    """Map site-level records onto registry actor pairs, dropping strangers.

    A record survives only if both endpoints resolve. Each distinct site is
    resolved once, however many records name it. Returns the actor pairs
    and the count of dropped records.
    """
    owners: dict[str, str | None] = {}  # site value -> actor id, None for a stranger
    edges: set[tuple[str, str]] = set()
    dropped = 0
    for source, target in links.pairs():
        try:
            source_id = owners[source]
        except KeyError:
            actor = resolve(SiteKey(source), reg)
            source_id = owners[source] = None if actor is None else actor.id
        try:
            target_id = owners[target]
        except KeyError:
            actor = resolve(SiteKey(target), reg)
            target_id = owners[target] = None if actor is None else actor.id
        if source_id is None or target_id is None:
            dropped += 1
        else:
            edges.add((source_id, target_id))
    return frozenset(edges), dropped


def combine(
    inlink_edges: frozenset[tuple[str, str]],
    outlink_edges: frozenset[tuple[str, str]],
    reg: Registry,
) -> InterlinkNetwork:
    """Union of the two evidence networks over all registry actors (Raw stage)."""
    nodes = frozenset(actor.id for actor in reg.actors())
    return InterlinkNetwork(nodes=nodes, edges=inlink_edges | outlink_edges,
                            stage=Stage.RAW, seed=reg.seed)


def dichotomize(net: InterlinkNetwork) -> InterlinkNetwork:
    """Relabel a Raw network as Dichotomized; the edge set is unchanged."""
    if net.stage is not Stage.RAW:
        raise StageError(f"dichotomize expects a Raw network, got {net.stage.label}")
    return InterlinkNetwork(nodes=net.nodes, edges=net.edges,
                            stage=Stage.DICHOTOMIZED, seed=net.seed)


def remove_self_links(net: InterlinkNetwork) -> InterlinkNetwork:
    """Drop every (x -> x) edge; stage is preserved."""
    return InterlinkNetwork(
        nodes=net.nodes,
        edges=net.edges - {edge for edge in net.edges if edge[0] == edge[1]},
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

    edges = net.edges - {edge for edge in net.edges if edge[0] == net.seed}
    nodes = frozenset(chain.from_iterable(edges))
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
    in_edges, in_dropped = restrict_to_actors(inlinks, reg)
    out_edges, out_dropped = restrict_to_actors(outlinks, reg)
    raw = combine(in_edges, out_edges, reg)
    dichotomized = remove_self_links(dichotomize(raw))
    pruned = prune_seed(dichotomized)
    return BuiltNetworks(
        raw=raw,
        dichotomized=dichotomized,
        pruned=pruned,
        dropped_records=in_dropped + out_dropped,
    )
