"""Per-layer timing taken from outside the program.

A traced run replaces the names the program's modules look up (for
example ``helixmap.harvest.reduce_host``) with wrappers that count calls
and accumulate self time: a span's duration minus the spans of wrapped
calls made inside it. Nothing in the program's source changes; the
wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self seconds]
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._hosts: set[str] = set()

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self._hosts.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}

    def _wrap(self, name, fn, on_result=None):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a module function, a method or a classmethod)."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, on_result))
        else:
            wrapped = self._wrap(name, original, on_result)
        setattr(owner, attr, wrapped)

    # hooks that count what a call did, outside its span

    def note_host(self, args, result) -> None:
        host = args[0]
        if host in self._hosts:
            self.counters["reduce_host.repeat"] += 1
        else:
            self._hosts.add(host)

    def note_hrefs(self, args, result) -> None:
        self.counters["extract_hrefs.hrefs"] += len(result)


def install(tracer: Tracer, urls, registry, harvest, network, metrics, crawler) -> None:
    """Wrap every layer boundary the per-layer metrics name, at the place
    where the calling module looks the name up."""
    t = tracer
    t.patch(urls.ReductionRules, "__init__", "urls.ReductionRules")
    for module in (harvest, crawler):
        t.patch(module, "canonicalize", "urls.canonicalize")
        t.patch(module, "reduce_host", "urls.reduce_host", t.note_host)
    t.patch(registry, "load_registry", "registry.load_registry")
    t.patch(network, "resolve", "registry.resolve")
    t.patch(harvest.SnapshotLinkIndex, "inlinks_of", "harvest.SnapshotLinkIndex.query")
    t.patch(harvest.SnapshotLinkIndex, "outlinks_of", "harvest.SnapshotLinkIndex.query")
    t.patch(harvest.LinkSet, "add", "harvest.LinkSet.add")
    t.patch(harvest.LinkSet, "records", "harvest.LinkSet.records")
    for name in ("harvest_index", "read_link_set", "write_link_set", "filter_generic"):
        t.patch(harvest, name, f"harvest.{name}")
    for name in ("restrict_to_actors", "combine", "dichotomize", "remove_self_links",
                 "prune_seed", "degree_counts"):
        t.patch(network, name, f"network.{name}")
    t.patch(metrics, "degree_counts", "network.degree_counts")
    for name in ("degree_table", "category_matrix", "category_matrix_csv",
                 "connectivity_share", "ego_coverage"):
        t.patch(metrics, name, f"metrics.{name}")
    t.patch(crawler.Fetcher, "fetch", "crawler.Fetcher.fetch")
    t.patch(crawler.HostThrottle, "wait", "crawler.HostThrottle.wait")
    t.patch(crawler, "extract_hrefs", "crawler.extract_hrefs", t.note_hrefs)
    t.patch(crawler, "crawl_outlinks", "crawler.crawl_outlinks")


# name -> (how it is computed from the per-pass snapshots, span name)
#   calls:  calls in the first pass (exact for a seed)
#   pass:   median over passes of the span's self time per pass, in seconds
#   ms/us:  self time per call over the whole run
LAYER_METRICS = {
    "urls.ReductionRules.ms": ("ms", "urls.ReductionRules"),
    "urls.canonicalize.calls": ("calls", "urls.canonicalize"),
    "urls.canonicalize.us": ("us", "urls.canonicalize"),
    "urls.reduce_host.calls": ("calls", "urls.reduce_host"),
    "urls.reduce_host.us": ("us", "urls.reduce_host"),
    "urls.reduce_host.repeat_share": ("repeat", "urls.reduce_host"),
    "registry.load_registry.ms": ("ms", "registry.load_registry"),
    "registry.resolve.calls": ("calls", "registry.resolve"),
    "harvest.SnapshotLinkIndex.query_s": ("pass", "harvest.SnapshotLinkIndex.query"),
    "harvest.harvest_index.s": ("pass", "harvest.harvest_index"),
    "harvest.LinkSet.add.calls": ("calls", "harvest.LinkSet.add"),
    "harvest.LinkSet.add.us": ("us", "harvest.LinkSet.add"),
    "harvest.LinkSet.records.calls": ("calls", "harvest.LinkSet.records"),
    "harvest.LinkSet.records.s": ("pass", "harvest.LinkSet.records"),
    "harvest.read_link_set.s": ("pass", "harvest.read_link_set"),
    "harvest.write_link_set.s": ("pass", "harvest.write_link_set"),
    "harvest.filter_generic.s": ("pass", "harvest.filter_generic"),
    "network.restrict_to_actors.s": ("pass", "network.restrict_to_actors"),
    "network.combine.s": ("pass", "network.combine"),
    "network.dichotomize.s": ("pass", "network.dichotomize"),
    "network.remove_self_links.s": ("pass", "network.remove_self_links"),
    "network.prune_seed.s": ("pass", "network.prune_seed"),
    "network.degree_counts.calls": ("calls", "network.degree_counts"),
    "network.degree_counts.s": ("pass", "network.degree_counts"),
    "metrics.degree_table.s": ("pass", "metrics.degree_table"),
    "metrics.category_matrix.s": ("pass", "metrics.category_matrix"),
    "metrics.category_matrix_csv.s": ("pass", "metrics.category_matrix_csv"),
    "metrics.connectivity_share.s": ("pass", "metrics.connectivity_share"),
    "metrics.ego_coverage.calls": ("calls", "metrics.ego_coverage"),
    "metrics.ego_coverage.ms": ("ms", "metrics.ego_coverage"),
    "crawler.Fetcher.fetch.calls": ("calls", "crawler.Fetcher.fetch"),
    "crawler.Fetcher.fetch.ms": ("ms", "crawler.Fetcher.fetch"),
    "crawler.fetch.useful_ratio": ("useful", "crawler.Fetcher.fetch"),
    "crawler.HostThrottle.wait.s": ("pass", "crawler.HostThrottle.wait"),
    "crawler.extract_hrefs.calls": ("calls", "crawler.extract_hrefs"),
    "crawler.extract_hrefs.ms": ("ms", "crawler.extract_hrefs"),
    "crawler.extract_hrefs.hrefs": ("hrefs", "crawler.extract_hrefs"),
    "crawler.crawl_outlinks.s": ("pass", "crawler.crawl_outlinks"),
}


def layer_metrics(snapshots: list[dict]) -> dict[str, float]:
    """Per-layer metric values from the per-pass snapshots of one run."""
    first = snapshots[0]

    def calls(span, snap=first):
        return snap["spans"].get(span, [0, 0.0])[0]

    def per_call(span, scale):
        n = sum(calls(span, s) for s in snapshots)
        total = sum(s["spans"].get(span, [0, 0.0])[1] for s in snapshots)
        return total / n * scale if n else 0.0

    def per_pass(span):
        values = sorted(s["spans"].get(span, [0, 0.0])[1] for s in snapshots)
        mid = len(values) // 2
        return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2

    values = {}
    for name, (how, span) in LAYER_METRICS.items():
        if how == "calls":
            values[name] = calls(span)
        elif how == "ms":
            values[name] = per_call(span, 1e3)
        elif how == "us":
            values[name] = per_call(span, 1e6)
        elif how == "pass":
            values[name] = per_pass(span)
        elif how == "repeat":
            n = calls(span)
            values[name] = first["counters"].get("reduce_host.repeat", 0) / n if n else 0.0
        elif how == "useful":
            n = calls(span)
            values[name] = calls("crawler.extract_hrefs") / n if n else 0.0
        elif how == "hrefs":
            values[name] = first["counters"].get("extract_hrefs.hrefs", 0)
    return values
