"""The workload's own process: runs whole passes of one study through the
public API of ``helixmap`` and nothing else.

The orchestrator (``run.py``) writes each pass's input files, sends one
JSON line per pass on stdin, and reads one JSON line back with the pass's
timings. After the timed part the worker writes ``summary.json`` with the
program's outputs for the orchestrator to check. Input generation and the
checks run in the orchestrator, so they do not raise this process's peak
resident set.

Usage (started by run.py): python3 worker.py <workload> <trace 0|1> <src dir>
"""

from __future__ import annotations

import gc
import json
import resource
import socket
import sys
import time
from pathlib import Path

# set-up is repeated this many times per pass; every repetition is one
# setup_s sample and the last one's objects run the pass. The input files
# are in the page cache for every repetition alike: run.py has just written
# them.
SETUP_REPEATS = 5


def _loopback_only() -> None:
    """Refuse name lookups of anything but the loopback fixture, so that a
    host missing from the crawl's host map fails instead of leaving the box."""
    real = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if host not in ("127.0.0.1", "localhost"):
            raise socket.gaierror(f"benchmark allows loopback only, not {host!r}")
        return real(host, *args, **kwargs)

    socket.getaddrinfo = getaddrinfo


def main() -> int:
    workload, trace_flag, src = sys.argv[1], sys.argv[2] == "1", Path(sys.argv[3])
    sys.path.insert(0, str(src))
    import helixmap
    from helixmap import crawler, harvest, metrics, network, registry, urls

    if Path(helixmap.__file__).resolve().parent != (src / "helixmap").resolve():
        print(f"helixmap imported from {helixmap.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_flag:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer, urls, registry, harvest, network, metrics, crawler)
    _loopback_only()
    m = {"urls": urls, "registry": registry, "harvest": harvest, "network": network,
         "metrics": metrics, "crawler": crawler}

    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "quit":
            break
        reply = run_pass(workload, msg, m, tracer)
        print(json.dumps(reply), flush=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024}), flush=True)
    return 0


def setup(workload: str, d: Path, m: dict):
    urls, registry, harvest = m["urls"], m["registry"], m["harvest"]
    objects = {
        "registry": registry.load_registry(d / "registry.csv"),
        "filter": urls.GenericFilterList.from_file(d / "generic.txt"),
    }
    if workload == "index-fullpsl":
        objects["rules"] = urls.ReductionRules.from_files(d / "suffixes.dat",
                                                          d / "subdomains.txt")
        objects["index"] = harvest.SnapshotLinkIndex(d / "index")
    elif workload == "crawl-loopback":
        objects["rules"] = urls.ReductionRules.bundled()
    return objects


def run_pass(workload: str, msg: dict, m: dict, tracer) -> dict:
    d = Path(msg["dir"])
    if tracer is not None:
        tracer.reset()
    out = d / "out"
    out.mkdir()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        objects = None  # free the last build first, so that two never coexist
        gc.collect()  # every timed part starts from the same collector state
        start = time.perf_counter()
        objects = setup(workload, d, m)
        setup_s.append(time.perf_counter() - start)
    gc.collect()
    start = time.perf_counter()
    if workload == "index-fullpsl":
        evidence, extra = harvest_study(objects, msg, m)
    elif workload == "network-scale":
        evidence, extra = read_study(d, m)
    else:
        evidence, extra = crawl_study(objects, msg, m)
    outputs = study_tail(*evidence, objects, out, msg["top_k"], m)
    pass_s = time.perf_counter() - start + setup_s[-1]
    reply = {"setup_s": setup_s, "pass_s": pass_s}
    if tracer is not None:
        reply["trace"] = tracer.snapshot()
    summary = summarize(outputs, objects["registry"].seed)
    summary.update(extra())
    (d / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return reply


def harvest_study(objects: dict, msg: dict, m: dict):
    harvest = m["harvest"]
    reg = objects["registry"]
    sites = [site for actor in reg.actors() for site in sorted(actor.sites)]
    results = {}
    for name, direction in (("in", harvest.Direction.INLINKS),
                            ("out", harvest.Direction.OUTLINKS)):
        results[name] = harvest.harvest_index(sites, objects["index"], direction,
                                              objects["rules"], limit=1000, now=msg["now"])

    def extra():
        return {"harvest": {
            name: {"pairs": [list(record.key) for record in r.links],
                   "skipped": r.skipped_urls,
                   "flags": {flag.value: n for flag, n in r.flags.items()},
                   "failed_sites": [s.value for s in r.failed_sites]}
            for name, r in results.items()
        }}

    return (results["in"].links, results["out"].links), extra


def read_study(d: Path, m: dict):
    harvest = m["harvest"]
    inlinks = harvest.read_link_set(d / "in.csv", harvest.Direction.INLINKS)
    outlinks = harvest.read_link_set(d / "out.csv", harvest.Direction.OUTLINKS)
    return (inlinks, outlinks), dict


def crawl_study(objects: dict, msg: dict, m: dict):
    crawler, harvest, urls = m["crawler"], m["harvest"], m["urls"]
    policy = crawler.CrawlPolicy(max_pages_per_site=msg["max_pages"], max_depth=msg["depth"],
                                 delay_per_host=0.0, timeout=10.0)
    throttle = crawler.HostThrottle(policy.delay_per_host)
    outlinks = harvest.LinkSet(harvest.Direction.OUTLINKS)
    results = {}
    for site in msg["sites"]:
        results[site] = crawler.crawl_outlinks(
            urls.SiteKey(site), policy, objects["rules"], host_map=msg["host_map"],
            throttle=throttle, now=msg["now"],
        )
        outlinks = harvest.merge_link_sets(outlinks, results[site].links)

    def extra():
        return {"crawl": {site: {"links": [list(record.key) for record in r.links],
                                 "robots_blocked": r.report.robots_blocked,
                                 "requested": sorted({e.url for e in r.report.log
                                                      if e.status != "robots"})}
                          for site, r in results.items()}}

    return (harvest.LinkSet(harvest.Direction.INLINKS), outlinks), extra


def study_tail(inlinks, outlinks, objects: dict, out: Path, top_k: int, m: dict):
    """filter -> build -> metrics -> written outputs, the same for every workload."""
    harvest, network, metrics = m["harvest"], m["network"], m["metrics"]
    reg, filt = objects["registry"], objects["filter"]
    kept_in, dropped_in = harvest.filter_generic(inlinks, filt)
    kept_out, dropped_out = harvest.filter_generic(outlinks, filt)
    built = network.build_networks(kept_in, kept_out, reg)
    table = metrics.degree_table(built.pruned)
    brokers = metrics.top_brokers(built.pruned, top_k)
    matrix = metrics.category_matrix(built.pruned, reg)
    metrics.write_category_matrix(matrix, out / "matrix.csv")
    populated = [c for c, n in reg.category_counts().items() if n]
    shares = [metrics.connectivity_share(c, reg, built.pruned) for c in populated]
    egos = [(b.actor_id, metrics.ego_coverage(built.pruned, b.actor_id)) for b in brokers]
    harvest.write_link_set(kept_in, out / "in.csv")
    harvest.write_link_set(kept_out, out / "out.csv")
    return {"filter": {"in": [len(kept_in), dropped_in], "out": [len(kept_out), dropped_out]},
            "built": built, "table": table, "brokers": brokers, "matrix": matrix,
            "shares": shares, "egos": egos}


def summarize(o: dict, seed: str) -> dict:
    """The program's outputs in the reference's plain form (untimed)."""
    from ref import edges_digest

    built, matrix = o["built"], o["matrix"]
    return {
        "filter": o["filter"],
        "dropped_records": built.dropped_records,
        "stages": [list(row) for row in built.stage_counts()],
        "seed_out_dichotomized": sum(1 for s, _ in built.dichotomized.edges if s == seed),
        "pruned_edges": edges_digest(built.pruned.edges),
        "degree_rows": [[r.actor_id, r.in_degree, r.out_degree] for r in o["table"]],
        "top_brokers": [[r.actor_id, r.in_degree, r.out_degree] for r in o["brokers"]],
        "matrix": {"cells": matrix.cells, "actor_counts": matrix.actor_counts,
                   "row_totals": matrix.row_totals, "col_totals": matrix.col_totals,
                   "row_means": [str(x) for x in matrix.row_means],
                   "col_means": [str(x) for x in matrix.col_means],
                   "grand_total": matrix.grand_total},
        "connectivity": [[s.category.value, s.connected, s.population, s.percent]
                         for s in o["shares"]],
        "ego": [[actor, *cov] for actor, cov in o["egos"]],
    }


if __name__ == "__main__":
    sys.exit(main())
