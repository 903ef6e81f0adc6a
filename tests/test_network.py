from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helixmap.network as network_module
import oracle
from helixmap.harvest import Direction, LinkSet, SourceTag
from helixmap.network import (
    InterlinkNetwork,
    SeedMissing,
    Stage,
    StageError,
    build_networks,
    combine,
    degree_counts,
    dichotomize,
    prune_seed,
    remove_self_links,
    restrict_to_actors,
)
from helixmap.registry import Actor, Registry, Sector, TableCategory
from helixmap.urls import SiteKey
from instances import random_instance


def _reg(site_map: dict[str, list[str]], seed: str) -> Registry:
    actors = []
    for actor_id, sites in site_map.items():
        actors.append(
            Actor(
                id=actor_id,
                sites=frozenset(SiteKey(s) for s in sites),
                label=actor_id,
                sector=Sector.INDUSTRY,
                category=TableCategory.SCIENCE_PARK
                if actor_id == seed
                else TableCategory.KNOWLEDGE_BASED_FIRM,
            )
        )
    return Registry(actors)


def _links(pairs, direction=Direction.OUTLINKS, tag=SourceTag.OUTLINK_INDEX):
    links = LinkSet(direction)
    for source, target in pairs:
        links.add(SiteKey(source), SiteKey(target), tag, 0)
    return links


REG = _reg(
    {
        "park": ["park.co.uk"],
        "uni": ["uni.ac.uk", "www.uni.ac.uk"],
        "firm": ["firm.com"],
    },
    seed="park",
)


# --- restrict_to_actors -----------------------------------------------------


def test_restrict_drops_unknown_sites():
    links = _links([("unknown.com", "uni.ac.uk"), ("firm.com", "uni.ac.uk"),
                    ("uni.ac.uk", "firm.com"), ("www.uni.ac.uk", "firm.com")])
    edges, dropped = restrict_to_actors(links, REG)
    # two site pairs behind one actor pair make one edge
    assert edges == {("firm", "uni"), ("uni", "firm")}
    assert dropped == 1


def test_restrict_resolves_each_site_once(monkeypatch):
    calls = []
    real = network_module.resolve

    def counting(site, reg):
        calls.append(site.value)
        return real(site, reg)

    monkeypatch.setattr(network_module, "resolve", counting)
    reg, inlinks, *_ = random_instance(random.Random(3))
    expected = {site.value for record in inlinks for site in (record.source, record.target)}
    assert len(inlinks) > len(expected)  # sites repeat across records
    restrict_to_actors(inlinks, reg)
    assert sorted(calls) == sorted(expected)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_restrict_matches_bruteforce(seed):
    reg, inlinks, outlinks, actor_sites, in_dedup, out_dedup = random_instance(
        random.Random(seed)
    )
    edges, dropped = restrict_to_actors(inlinks, reg)
    expected_weights, expected_dropped = oracle.restrict(in_dedup, actor_sites)
    assert edges == set(expected_weights)
    assert dropped == expected_dropped


# --- combine ----------------------------------------------------------------


def test_combine_union_of_disjoint_sets():
    net = combine(frozenset({("uni", "firm")}), frozenset({("firm", "park")}), REG)
    assert net.edges == {("uni", "firm"), ("firm", "park")}
    assert net.stage is Stage.RAW
    assert net.nodes == {"park", "uni", "firm"}
    # a pair both sources observe is one edge
    shared = combine(frozenset({("uni", "firm")}), frozenset({("uni", "firm")}), REG)
    assert shared.edges == {("uni", "firm")}


_edge_sets = st.frozensets(
    st.tuples(st.sampled_from(["park", "uni", "firm"]),
              st.sampled_from(["park", "uni", "firm"])),
    max_size=9,
)


@given(a=_edge_sets, b=_edge_sets)
@settings(max_examples=100)
def test_combine_matches_keywise_max_oracle(a, b):
    net = combine(a, b, REG)
    _, expected = oracle.combine(dict.fromkeys(a, 1), dict.fromkeys(b, 1),
                                 ["park", "uni", "firm"])
    assert net.edges == set(expected)


# --- dichotomize / self-links -----------------------------------------------


def test_dichotomize_flattens_weights():
    net = combine(frozenset({("uni", "firm")}), frozenset(), REG)
    flat = dichotomize(net)
    # a stage relabel: the edge set is the same object
    assert flat.edges is net.edges
    assert flat.stage is Stage.DICHOTOMIZED
    assert (flat.nodes, flat.seed) == (net.nodes, net.seed)


def test_dichotomize_requires_raw_stage():
    net = dichotomize(combine(frozenset({("uni", "firm")}), frozenset(), REG))
    with pytest.raises(StageError):
        dichotomize(net)


def test_remove_self_links_keeps_other_edges():
    net = combine(frozenset({("uni", "uni"), ("uni", "firm")}), frozenset(), REG)
    cleaned = remove_self_links(net)
    assert cleaned.edges == {("uni", "firm")}
    assert cleaned.stage is Stage.RAW
    assert remove_self_links(cleaned).edges == cleaned.edges


@given(a=_edge_sets)
@settings(max_examples=100)
def test_dichotomize_preserves_edge_count(a):
    net = combine(a, frozenset(), REG)
    assert dichotomize(net).edge_count == net.edge_count == len(a)


# --- prune_seed -------------------------------------------------------------


def test_prune_removes_seed_out_edges_and_orphans():
    reg = _reg({f"a{i}": [f"a{i}.com"] for i in range(3)} | {"park": ["park.co.uk"]},
               seed="park")
    edges = frozenset({("park", "a0"), ("park", "a1"), ("a1", "a2"), ("a2", "park")})
    net = remove_self_links(dichotomize(combine(edges, frozenset(), reg)))
    pruned = prune_seed(net)
    # a0 was linked only by the seed; a1/a2/park survive through real links
    assert pruned.nodes == {"a1", "a2", "park"}
    assert pruned.edges == {("a1", "a2"), ("a2", "park")}
    assert pruned.stage is Stage.PRUNED
    # a pruned network holds no self-link, so removing them changes nothing
    assert remove_self_links(pruned) == pruned


def test_prune_star_network_collapses_to_nothing():
    reg = _reg({"park": ["park.co.uk"], "a": ["a.com"], "b": ["b.com"], "c": ["c.com"]},
               seed="park")
    edges = frozenset({("park", "a"), ("park", "b"), ("park", "c")})
    net = dichotomize(combine(edges, frozenset(), reg))
    pruned = prune_seed(net)
    assert pruned.nodes == frozenset()
    assert pruned.edges == frozenset()


def test_prune_noop_when_seed_has_no_out_edges():
    net = dichotomize(combine(frozenset({("uni", "park"), ("uni", "firm")}), frozenset(), REG))
    pruned = prune_seed(net)
    assert pruned.edges == net.edges
    assert pruned.nodes == {"uni", "park", "firm"}


def test_prune_requires_dichotomized_stage_and_known_seed():
    raw = combine(frozenset({("uni", "firm")}), frozenset(), REG)
    with pytest.raises(StageError):
        prune_seed(raw)
    net = dichotomize(raw)
    ghost = InterlinkNetwork(net.nodes, net.edges, Stage.DICHOTOMIZED, seed="ghost")
    with pytest.raises(SeedMissing):
        prune_seed(ghost)


# --- full pipeline vs oracle -------------------------------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_pipeline_matches_bruteforce(seed):
    reg, inlinks, outlinks, actor_sites, in_dedup, out_dedup = random_instance(
        random.Random(seed)
    )
    built = build_networks(inlinks, outlinks, reg)

    in_w, in_dropped = oracle.restrict(in_dedup, actor_sites)
    out_w, out_dropped = oracle.restrict(out_dedup, actor_sites)
    all_ids = [a for a, _ in actor_sites]
    nodes, raw_edges = oracle.combine(in_w, out_w, all_ids)
    assert built.raw.edges == set(raw_edges)
    assert built.dropped_records == in_dropped + out_dropped

    flat = oracle.remove_self(oracle.dichotomize(raw_edges))
    assert built.dichotomized.edges == set(flat)

    pruned_nodes, pruned_edges = oracle.prune(nodes, flat, reg.seed)
    assert built.pruned.nodes == pruned_nodes
    assert built.pruned.edges == set(pruned_edges)
    for net in (built.raw, built.dichotomized, built.pruned):
        assert isinstance(net.edges, frozenset)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_pipeline_monotonic_counts(seed):
    reg, inlinks, outlinks, *_ = random_instance(random.Random(seed))
    built = build_networks(inlinks, outlinks, reg)
    counts = built.stage_counts()
    for (_, n1, e1), (_, n2, e2) in zip(counts, counts[1:]):
        assert n2 <= n1
        assert e2 <= e1


def test_order_insensitivity_of_inputs():
    rng = random.Random(99)
    reg, inlinks, outlinks, *_ = random_instance(rng)
    shuffled_in, shuffled_out = LinkSet(inlinks.direction), LinkSet(outlinks.direction)
    for links, shuffled in ((inlinks, shuffled_in), (outlinks, shuffled_out)):
        for record in reversed(links.records()):
            for tag in record.provenance:
                shuffled.add(record.source, record.target, tag, record.first_seen)
    a = build_networks(inlinks, outlinks, reg)
    b = build_networks(shuffled_in, shuffled_out, reg)
    assert a.pruned.nodes == b.pruned.nodes
    assert a.pruned.edges == b.pruned.edges


def test_network_validates_construction():
    ab = frozenset({"a", "b"})
    path = {(f"n{i}", f"n{i + 1}") for i in range(50)}
    path_nodes = frozenset(f"n{i}" for i in range(51))
    invalid = [
        (frozenset({"a"}), {("a", "b")}, Stage.RAW, "a", "endpoint not in nodes"),
        (path_nodes | {"a"}, path | {("a", "z")}, Stage.RAW, "a",
         r"^edge \(a,z\) endpoint not in nodes$"),
        (ab, {("a", "a"), ("a", "b")}, Stage.PRUNED, "b", "self-link"),
        (path_nodes, path | {("n25", "n25")}, Stage.PRUNED, "n50", "self-link"),
        (ab, {("a", "b")}, Stage.PRUNED, "a", "outgoing seed edges"),
        (ab | {"c"}, {("a", "b")}, Stage.PRUNED, "b", "isolated node 'c'"),
    ]
    for nodes, edges, stage, seed, reason in invalid:
        with pytest.raises(ValueError, match=reason):
            InterlinkNetwork(nodes, frozenset(edges), stage, seed)
    with pytest.raises(TypeError):
        InterlinkNetwork(ab, {("a", "b")}, Stage.RAW, "a")
    # only a Pruned network must be free of self-links
    kept = InterlinkNetwork(ab, frozenset({("a", "a"), ("a", "b")}), Stage.DICHOTOMIZED, "a")
    assert kept.edge_count == 2


def test_network_edges_cannot_be_mutated():
    net = combine(frozenset({("uni", "firm")}), frozenset(), REG)
    with pytest.raises(AttributeError):
        net.edges.add(("firm", "uni"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.edges = frozenset()
    assert net.edges == {("uni", "firm")}


def test_degree_counts_handshake():
    edges = frozenset({("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")})
    degrees = degree_counts(edges)
    assert sum(d for d, _ in degrees.values()) == len(edges)
    assert sum(d for _, d in degrees.values()) == len(edges)
