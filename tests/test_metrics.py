from __future__ import annotations

import random
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helixmap.metrics as metrics_module
import helixmap.network as network_module
import oracle
from helixmap.metrics import (
    ActorNotInNetwork,
    EmptyCategory,
    UnclassifiedActor,
    category_matrix,
    category_matrix_csv,
    connectivity_share,
    degree_table,
    ego_coverage,
    top_brokers,
)
from helixmap.network import InterlinkNetwork, Stage, StageError, build_networks
from helixmap.registry import (
    Actor,
    CATEGORY_ORDER,
    Registry,
    Sector,
    TableCategory,
)
from helixmap.urls import SiteKey
from instances import random_instance


def _net(nodes, edges, stage=Stage.PRUNED, seed="seed"):
    return InterlinkNetwork(frozenset(nodes), frozenset(edges), stage, seed)


def _actor(aid, category, sites=None):
    return Actor(
        id=aid,
        sites=frozenset(SiteKey(s) for s in (sites or [f"{aid}.com"])),
        label=aid,
        sector=Sector.INDUSTRY,
        category=category,
    )


def test_degree_table_on_chain():
    net = _net({"a", "b", "c", "seed"}, [("a", "b"), ("b", "c"), ("c", "seed")])
    rows = {r.actor_id: (r.in_degree, r.out_degree) for r in degree_table(net)}
    assert rows == {"a": (0, 1), "b": (1, 1), "c": (1, 1), "seed": (1, 0)}


def test_degree_table_ordering_and_ties():
    net = _net({"b", "a", "c", "seed"}, [("a", "seed"), ("b", "seed"), ("c", "seed")])
    ordered = [r.actor_id for r in degree_table(net)]
    assert ordered == ["seed", "a", "b", "c"]  # ties break lexicographically


def test_degree_table_stage_flag():
    net = _net({"a", "b"}, [("a", "b")], stage=Stage.DICHOTOMIZED, seed="a")
    with pytest.raises(StageError):
        degree_table(net)
    with pytest.raises(StageError):
        top_brokers(net, 1)


def test_top_brokers_prefix_and_bounds():
    net = _net({"a", "b", "c", "seed"}, [("a", "b"), ("a", "c"), ("b", "seed")])
    assert [r.actor_id for r in top_brokers(net, 2)] == ["a", "b"]
    assert len(top_brokers(net, 99)) == 4
    with pytest.raises(ValueError):
        top_brokers(net, 0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_degree_table_matches_bruteforce(seed):
    reg, inlinks, outlinks, *_ = random_instance(random.Random(seed))
    net = build_networks(inlinks, outlinks, reg).pruned
    got = [(r.actor_id, r.in_degree, r.out_degree, r.total) for r in degree_table(net)]
    assert got == oracle.degree_rows(net.nodes, net.edges)
    assert sum(r.in_degree for r in degree_table(net)) == net.edge_count
    assert sum(r.out_degree for r in degree_table(net)) == net.edge_count


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_top_brokers_is_a_prefix_of_the_degree_table(seed, data):
    reg, inlinks, outlinks, *_ = random_instance(random.Random(seed))
    net = build_networks(inlinks, outlinks, reg).pruned
    k = data.draw(st.integers(1, net.node_count + 2))
    assert top_brokers(net, k) == degree_table(net)[:k]


# --- category matrix --------------------------------------------------------


def _categorized_registry():
    return Registry(
        [
            _actor("park", TableCategory.SCIENCE_PARK, ["park.co.uk"]),
            _actor("uni", TableCategory.ACADEMIA, ["uni.ac.uk"]),
            _actor("kbf1", TableCategory.KNOWLEDGE_BASED_FIRM),
            _actor("kbf2", TableCategory.KNOWLEDGE_BASED_FIRM),
            _actor("sbf1", TableCategory.SERVICE_BASED_FIRM),
        ]
    )


def test_category_matrix_counts_by_category_pair():
    reg = _categorized_registry()
    net = _net({"uni", "kbf1", "kbf2", "park"},
               [("uni", "kbf1"), ("uni", "kbf2"), ("kbf1", "park")], seed="park")
    matrix = category_matrix(net, reg)
    acad = TableCategory.ACADEMIA.index
    kbf = TableCategory.KNOWLEDGE_BASED_FIRM.index
    park = TableCategory.SCIENCE_PARK.index
    assert matrix.cells[acad][kbf] == 2
    assert matrix.cells[kbf][park] == 1
    assert matrix.grand_total == 3
    assert matrix.actor_counts[kbf] == 2  # registry population, not pruned count
    assert matrix.row_means[acad] == Decimal("2.0")


def test_category_matrix_empty_network():
    reg = _categorized_registry()
    net = _net(set(), [], seed="park")
    matrix = category_matrix(net, reg)
    assert all(all(v == 0 for v in row) for row in matrix.cells)
    assert all(m == Decimal("0.0") for m in matrix.row_means)
    assert matrix.grand_total == 0


def test_category_matrix_requires_pruned_and_classified():
    reg = _categorized_registry()
    net = _net({"uni", "kbf1"}, [("uni", "kbf1")], stage=Stage.DICHOTOMIZED, seed="park")
    with pytest.raises(StageError):
        category_matrix(net, reg)
    ghost_net = _net({"uni", "ghost"}, [("uni", "ghost")], seed="park")
    with pytest.raises(UnclassifiedActor):
        category_matrix(ghost_net, reg)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_category_matrix_matches_bruteforce(seed):
    reg, inlinks, outlinks, *_ = random_instance(random.Random(seed))
    net = build_networks(inlinks, outlinks, reg).pruned
    matrix = category_matrix(net, reg)

    category_of = {a.id: a.category for a in reg.actors()}
    populations = [reg.category_counts()[c] for c in CATEGORY_ORDER]
    cells, row_totals, col_totals, row_means, col_means = oracle.category_matrix(
        net.edges, category_of, list(CATEGORY_ORDER), populations
    )
    assert matrix.cells == cells
    assert matrix.row_totals == row_totals
    assert matrix.col_totals == col_totals
    assert [str(m) for m in matrix.row_means] == row_means
    assert [str(m) for m in matrix.col_means] == col_means
    assert matrix.grand_total == net.edge_count


def test_mean_rounding_is_half_up():
    # the two published values that pin the rounding mode, plus a boundary
    from helixmap.metrics import _half_up

    assert str(_half_up(17, 24, "0.0")) == "0.7"
    assert str(_half_up(86, 17, "0.0")) == "5.1"
    assert str(_half_up(21, 24, "0.0")) == "0.9"   # 0.875 rounds up
    assert str(_half_up(1, 40, "0.0")) == "0.0"    # 0.025 rounds down
    assert str(_half_up(3, 40, "0.0")) == "0.1"    # 0.075 rounds up


def test_matrix_csv_layout():
    reg = _categorized_registry()
    net = _net({"uni", "kbf1", "park"}, [("uni", "kbf1"), ("kbf1", "park")], seed="park")
    text = category_matrix_csv(category_matrix(net, reg))
    lines = text.strip().split("\n")
    assert len(lines) == 12  # header + 9 categories + totals + means
    assert lines[0].startswith("Actors,Category,Service-based firm,")
    assert lines[0].endswith("Science Park,Total - outlinks,Mean")
    assert lines[10].startswith(",Total - inlinks,")
    assert lines[11].startswith(",Mean,")
    assert "\r" not in text


# --- connectivity share -----------------------------------------------------


def test_connectivity_share_counts_linked_actors():
    reg = _categorized_registry()
    net = _net({"uni", "kbf1", "park"}, [("uni", "kbf1"), ("kbf1", "park")], seed="park")
    share = connectivity_share(TableCategory.KNOWLEDGE_BASED_FIRM, reg, net)
    assert (share.connected, share.population, share.percent) == (1, 2, 50)


def test_connectivity_share_fully_pruned_category():
    reg = _categorized_registry()
    net = _net({"uni", "kbf1", "park"}, [("uni", "kbf1"), ("kbf1", "park")], seed="park")
    share = connectivity_share(TableCategory.SERVICE_BASED_FIRM, reg, net)
    assert (share.connected, share.population, share.percent) == (0, 1, 0)


def test_connectivity_share_empty_category():
    reg = _categorized_registry()
    net = _net(set(), [], seed="park")
    with pytest.raises(EmptyCategory):
        connectivity_share(TableCategory.GOVERNMENT, reg, net)


# --- ego networks -----------------------------------------------------------


def _oracle_neighbours(net, node):
    return oracle.ego(net.nodes, dict.fromkeys(net.edges, 1), node)[0]


def test_ego_network_direct_neighbors_both_directions():
    net = _net({"a", "b", "c", "d", "seed"},
               [("a", "b"), ("c", "a"), ("c", "d"), ("d", "seed")], seed="seed")
    assert _oracle_neighbours(net, "a") == {"b", "c"}
    count, others, pct = ego_coverage(net, "a")
    assert (count, others, pct) == (2, 4, 50)


def test_ego_isolated_node_pre_pruning():
    net = _net({"a", "b", "c"}, [("b", "c")], stage=Stage.DICHOTOMIZED, seed="a")
    assert _oracle_neighbours(net, "a") == set()
    assert ego_coverage(net, "a") == (0, 2, 0)


def test_ego_counts_a_reciprocated_pair_once_and_a_self_link_not_at_all():
    # a: self-link, reciprocated with b, linked from c, linking to d;
    # d: self-link and one in-edge; e: only a self-link
    edges = [("a", "a"), ("a", "b"), ("b", "a"), ("c", "a"), ("a", "d"), ("d", "d"), ("e", "e")]
    net = _net({"a", "b", "c", "d", "e"}, edges, stage=Stage.RAW, seed="a")
    expected = {"a": 3, "b": 1, "c": 1, "d": 1, "e": 0}
    for node, count in expected.items():
        assert len(_oracle_neighbours(net, node)) == count
        assert ego_coverage(net, node)[0] == count, node


def _neighbour_sets(nodes, edges):
    """Every node's set of other nodes it links to in either direction:
    the per-node structure ego coverage was once counted from."""
    adjacent = {node: set() for node in nodes}
    for source, target in edges:
        if source != target:
            adjacent[source].add(target)
            adjacent[target].add(source)
    return adjacent


def test_ego_coverage_retains_a_fifth_of_what_neighbour_sets_took():
    rng = random.Random(5)
    nodes = [f"n{i:04d}" for i in range(2000)]
    edges = set()
    while len(edges) < 20_000:
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    nodes, edges = frozenset(nodes), frozenset(edges)
    net = InterlinkNetwork(nodes, edges, Stage.RAW, "n0000")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sets = _neighbour_sets(nodes, edges)
        neighbour_sets = tracemalloc.get_traced_memory()[0] - before
        del sets
        before = tracemalloc.get_traced_memory()[0]
        coverage = ego_coverage(net, "n0001")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert coverage[0] == len(_oracle_neighbours(net, "n0001"))
    assert retained * 5 <= neighbour_sets, (retained, neighbour_sets)


def test_ego_unknown_actor():
    net = _net({"a", "b"}, [("a", "b")], seed="b")
    with pytest.raises(ActorNotInNetwork):
        ego_coverage(net, "zz")


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_ego_matches_bruteforce(seed):
    rng = random.Random(seed)
    reg, inlinks, outlinks, *_ = random_instance(rng)
    net = build_networks(inlinks, outlinks, reg).pruned
    others = net.node_count - 1
    for node in sorted(net.nodes):
        count = len(_oracle_neighbours(net, node))
        # the whole percent, rounded half up
        percent = (200 * count + others) // (2 * others) if others else 0
        assert ego_coverage(net, node) == (count, others, percent)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_shared_degrees_and_ego_coverage_match_bruteforce_at_every_stage(seed):
    reg, inlinks, outlinks, *_ = random_instance(random.Random(seed))
    built = build_networks(inlinks, outlinks, reg)
    for net in (built.raw, built.dichotomized, built.pruned):
        expected = oracle.degrees(net.nodes, net.edges)
        assert net.degrees == {n: d for n, d in expected.items() if d != (0, 0)}
        for node in net.nodes:
            neighbors, _ = oracle.ego(net.nodes, dict.fromkeys(net.edges, 1), node)
            assert ego_coverage(net, node)[0] == len(neighbors)


def test_report_metrics_count_degrees_at_most_once(monkeypatch):
    calls = []
    real = network_module.degree_counts

    def counting(edges):
        calls.append(len(edges))
        return real(edges)

    monkeypatch.setattr(network_module, "degree_counts", counting)
    monkeypatch.setattr(metrics_module, "degree_counts", counting)
    reg, inlinks, outlinks, *_ = random_instance(random.Random(6))
    net = build_networks(inlinks, outlinks, reg).pruned
    assert net.edge_count > 0
    degree_table(net)
    top_brokers(net, 3)
    for category, count in reg.category_counts().items():
        if count:
            connectivity_share(category, reg, net)
    for node in net.nodes:
        ego_coverage(net, node)
    assert len(calls) <= 1


def test_relabeling_invariance():
    reg, inlinks, outlinks, *_ = random_instance(random.Random(7))
    net = build_networks(inlinks, outlinks, reg).pruned
    mapping = {n: f"z{i:02d}" for i, n in enumerate(sorted(net.nodes, reverse=True))}
    relabeled = InterlinkNetwork(
        frozenset(mapping[n] for n in net.nodes),
        frozenset((mapping[s], mapping[t]) for s, t in net.edges),
        net.stage,
        mapping.get(net.seed, net.seed),
    )
    original = sorted((r.in_degree, r.out_degree) for r in degree_table(net))
    renamed = sorted((r.in_degree, r.out_degree) for r in degree_table(relabeled))
    assert original == renamed
