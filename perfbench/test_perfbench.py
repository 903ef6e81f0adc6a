"""Tests of the benchmark's own code: generators, references and checks.

Run with the repository's tests (``PYTHONPATH=src python -m pytest``) or
alone (``python -m pytest perfbench``). Passes run in-process on inputs
shrunk to a few hundred records, so the whole file takes a few seconds.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for extra in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import fixture  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from helixmap import crawler, harvest, metrics, network, registry, urls  # noqa: E402
from test_urls import SAMPLED_HOSTS, _oracle_registrable  # noqa: E402

MODULES = {"urls": urls, "registry": registry, "harvest": harvest, "network": network,
           "metrics": metrics, "crawler": crawler}
BUNDLED = gen.bundled_suffix_text(ROOT)
GENERIC = gen.bundled_generic_text(ROOT)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one pass runs in well under a second."""
    monkeypatch.setattr(gen, "INDEX_MIX", {"actor": 40, "stranger": 12, "idn": 2,
                                           "generic": 4, "skipped": 4, "ip": 2,
                                           "unknown_tld": 2})
    monkeypatch.setattr(gen, "NET_ACTORS", 120)
    monkeypatch.setattr(gen, "NET_RECORDS_PER_DIRECTION", 1500)
    monkeypatch.setattr(gen, "NET_STRANGERS", 50)
    monkeypatch.setattr(gen, "CRAWL_SITES", 3)
    monkeypatch.setattr(gen, "CRAWL_PAGES", 4)
    monkeypatch.setattr(gen, "CRAWL_HREFS", 12)


@pytest.fixture
def loopback():
    """The crawl fixture, served from a thread of this process so that the
    shrunk generator settings apply to it too."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), fixture.make_handler(5))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def run_pass(workload: str, tmp_path: Path, port=None, seed=5):
    """One pass as run.py makes it, with the worker's pass code in-process."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=0)
    bench = run.Run(args, tmp_path)
    d = tmp_path / "pass-0"
    d.mkdir()
    prepare = {"index-fullpsl": bench._index, "network-scale": bench._network,
               "crawl-loopback": bench._crawl}[workload]
    msg, check, items = prepare(0, d, port)
    msg.update(cmd="pass", dir=str(d), top_k=run.TOP_K, now=gen.NOW)
    reply = worker.run_pass(workload, msg, MODULES, None)
    got = json.loads((d / "summary.json").read_text(encoding="utf-8"))
    return got, check, d / "out", items, reply


# --- generators ---------------------------------------------------------------------


def test_generators_are_deterministic_for_a_seed(small):
    a = gen.index_study(9, 2, BUNDLED, GENERIC)
    b = gen.index_study(9, 2, BUNDLED, GENERIC)
    assert a.psl.text == b.psl.text and a.urls == b.urls and a.actors == b.actors
    assert gen.index_study(9, 3, BUNDLED, GENERIC).urls != a.urls
    assert gen.network_study(9, 2, GENERIC).records == gen.network_study(9, 2, GENERIC).records
    assert gen.network_study(10, 2, GENERIC).records != gen.network_study(9, 2, GENERIC).records
    site = gen.crawl_sites(9, 2)[1]
    assert gen.respond(9, site, "/") == gen.respond(9, site, "/")
    assert gen.crawl_sites(9, 2) != gen.crawl_sites(9, 3)


def test_full_suffix_list_size_and_shape():
    psl = gen.full_suffix_list(gen.rng_for(1, 0, "index"), BUNDLED)
    rules = gen.rule_lines(psl.text)
    assert 8900 <= len(rules) <= 9100 and len(set(rules)) == len(rules)
    assert sum(r.startswith("*.") for r in rules) > 100
    assert sum(r.startswith("!") for r in rules) > 100


def test_index_mix_is_the_same_in_every_pass():
    for seed, pass_no in ((1, 0), (2, 7)):
        study = gen.index_study(seed, pass_no, BUNDLED, GENERIC)
        assert len(study.urls) == gen.INDEX_URLS_PER_PASS
        assert sum(u.raw in gen.DEVIATION_URLS for u in study.urls) == len(gen.DEVIATION_URLS)


# --- reference reduction ------------------------------------------------------------


def test_reference_reducer_agrees_with_the_test_oracle_on_bundled_snapshot():
    reference = ref.SuffixReference(BUNDLED)
    rng = gen.rng_for(0, 0, "hosts")
    rules = [r for r in gen.rule_lines(BUNDLED) if not r.startswith("!")]
    hosts = list(SAMPLED_HOSTS) + ["www.ck", "a.www.ck", "x.y.ck", "z.sch.uk"]
    for _ in range(500):
        rule = rng.choice(rules).replace("*", gen.label(rng))
        hosts.append(".".join([gen.word(rng, 2)] * rng.randint(0, 2) + [gen.label(rng), rule]))
    for host in hosts:
        assert reference.registrable(host) == _oracle_registrable(host, BUNDLED), host


def test_reference_reducer_agrees_with_the_program_on_generated_hosts():
    study = gen.index_study(4, 0, BUNDLED, GENERIC)
    rules = urls.ReductionRules(study.psl.text, set(study.subdomain_exceptions))
    reference = ref.SuffixReference(study.psl.text, study.subdomain_exceptions)
    ascii_hosts = [u.host for u in study.urls if u.host and u.raw not in gen.DEVIATION_URLS]
    for host in ascii_hosts[:80]:
        want = reference.reduce(host)
        got = urls.reduce_host(host, rules)
        assert (got.site.value, got.flag.value if got.flag else None) == want, host


# --- checks catch corrupted outputs --------------------------------------------------


def _corruptions(got):
    """(what, corrupted copy) pairs for the outputs every workload shares."""
    def changed(path, value):
        bad = copy.deepcopy(got)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]])
        return bad

    yield "degree row", changed(["degree_rows", 0], lambda r: [r[0], r[1] + 1, r[2]])
    yield "stage count", changed(["stages", 2], lambda s: [s[0], s[1] - 1, s[2]])
    yield "pruned edges", changed(["pruned_edges"], lambda h: "0" * len(h))
    yield "matrix cell", changed(["matrix", "cells", 0], lambda c: [c[0] + 1, *c[1:]])
    yield "matrix mean", changed(["matrix", "row_means"], lambda m: ["9.9", *m[1:]])
    yield "connectivity", changed(["connectivity", 0], lambda c: [c[0], c[1] + 1, *c[2:]])
    yield "filter count", changed(["filter", "in"], lambda f: [f[0] + 1, f[1] - 1])
    if got["ego"]:
        yield "ego", changed(["ego", 0], lambda e: [e[0], e[1] - 1, *e[2:]])
    yield "top broker", changed(["top_brokers"], lambda b: b[::-1] if len(b) > 1 else [])


def _assert_checks_catch(got, check, out):
    assert check(got, out)[1] == []
    for what, bad in _corruptions(got):
        assert check(bad, out)[1], what
    matrix = out / "matrix.csv"
    text = matrix.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].replace(",", ",1", 1)
    matrix.write_text("".join(lines), encoding="utf-8")
    assert check(got, out)[1], "matrix CSV"
    matrix.write_text(text, encoding="utf-8")
    written = out / "out.csv"
    rows = written.read_text(encoding="utf-8").splitlines(keepends=True)
    written.write_text("".join(rows[:1] + rows[2:]), encoding="utf-8")
    assert check(got, out)[1], "written link set"


def test_index_pass_checks(small, tmp_path):
    got, check, out, items, reply = run_pass("index-fullpsl", tmp_path)
    assert items == sum(gen.INDEX_MIX.values()) + len(gen.DEVIATION_URLS)
    assert len(reply["setup_s"]) == worker.SETUP_REPEATS and reply["pass_s"] > 0
    failed, problems = check(got, out)
    # the UTS #46 deviation hosts are the only failures while the program
    # encodes with IDNA 2003; a program that gets them right fails none
    assert problems == [] and failed in (0, len(gen.DEVIATION_URLS))
    _assert_checks_catch(got, check, out)

    def harvest_changed(fn):
        bad = copy.deepcopy(got)
        fn(bad["harvest"])
        return check(bad, out)

    actor_pair = next(p for p in got["harvest"]["in"]["pairs"] if p[0] != p[1])
    # a URL reduced to the wrong site, dropped, miscounted or misflagged
    assert harvest_changed(lambda h: h["in"]["pairs"].__setitem__(
        h["in"]["pairs"].index(actor_pair), ["wrong.example", actor_pair[1]]))[1]
    assert harvest_changed(lambda h: h["in"]["pairs"].remove(actor_pair))[1]
    assert harvest_changed(lambda h: h["in"].__setitem__("skipped", h["in"]["skipped"] + 1))[1]
    assert harvest_changed(lambda h: h["out"]["flags"].__setitem__("ip-literal", 99))[1]


def test_network_pass_checks(small, tmp_path):
    got, check, out, items, _ = run_pass("network-scale", tmp_path)
    assert items == sum(len(r) for r in gen.network_study(5, 0, GENERIC).records.values())
    assert check(got, out) == (0, [])
    assert ref.check_properties(got) == []
    _assert_checks_catch(got, check, out)
    bad = copy.deepcopy(got)
    bad["seed_out_dichotomized"] += 1
    assert ref.check_properties(bad)


def test_crawl_expected_set_matches_a_crawl_of_a_tiny_site(small, loopback):
    site = gen.crawl_sites(5, 0)[2]
    hosts = {h: f"127.0.0.1:{loopback}" for h in (site, f"www.{site}", gen.partner_host(site))}
    policy = crawler.CrawlPolicy(max_pages_per_site=gen.CRAWL_MAX_PAGES,
                                 max_depth=gen.CRAWL_DEPTH, delay_per_host=0.0)
    result = crawler.crawl_outlinks(urls.SiteKey(site), policy, urls.ReductionRules.bundled(),
                                    host_map=hosts, now=gen.NOW)
    walk = ref.crawl_expected(5, site, ref.SuffixReference(BUNDLED))
    assert walk.pages and not walk.robots_blocked
    assert {r.key for r in result.links} == walk.links
    assert {e.url for e in result.report.log if e.status != "robots"} == walk.requested
    assert walk.requested > set(walk.pages)


def test_crawl_pass_checks(small, loopback, tmp_path):
    got, check, out, items, _ = run_pass("crawl-loopback", tmp_path, loopback)
    assert items > 0
    assert check(got, out) == (0, [])
    closed = gen.crawl_sites(5, 0)[0]
    assert got["crawl"][closed]["robots_blocked"]
    _assert_checks_catch(got, check, out)
    site = gen.crawl_sites(5, 0)[1]
    bad = copy.deepcopy(got)
    bad["crawl"][site]["links"].pop()
    assert check(bad, out)[1]
    bad = copy.deepcopy(got)
    bad["crawl"][closed]["robots_blocked"] = False
    assert check(bad, out)[1]
    bad = copy.deepcopy(got)
    bad["crawl"][site]["requested"].append(f"http://{site}/private/1.html")
    assert check(bad, out)[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "network-scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
