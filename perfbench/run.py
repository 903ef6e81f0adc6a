"""Benchmark of helixmap: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run is a closed loop with one client: the workload's own process
(``worker.py``) runs whole passes, one study each, until the timed part
reaches ``--seconds``. Each pass gets fresh inputs made from
``(seed, pass number)``; making them and checking the pass's outputs
against the reference (``ref.py``) happen here, outside the timed part
and outside the worker. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import layers
import ref

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
# Start no new pass once the run's wall time passes twice the run length (or
# 130 s), so that a run of a much faster program, whose passes cost less than
# generating and checking them, still ends in bounded time. Such a run's timed
# part falls short of --seconds, and it says so on stderr ("SHORT RUN").
WALL_FACTOR, WALL_LIMIT_S = 2.0, 130.0
PASS_TIMEOUT_S = 150
TOP_K = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "helixmap" / "__init__.py",
              ROOT / "tests" / "oracle.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a helixmap checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))  # tests/oracle.py, the brute-force reference

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = Run(args, work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"passes": result["snapshots"], "metrics": metrics}),
                        encoding="utf-8")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.bundled_suffixes = gen.bundled_suffix_text(ROOT)
        self.generic_text = gen.bundled_generic_text(ROOT)
        self.procs: list[subprocess.Popen] = []

    def execute(self) -> dict:
        try:
            port = self._start_fixture() if self.args.workload == "crawl-loopback" else None
            worker = self._start(
                [sys.executable, str(HERE / "worker.py"), self.args.workload,
                 str(self.args.trace), str(ROOT / "src")], stdin=subprocess.PIPE)
            return self._loop(worker, port)
        finally:
            for proc in reversed(self.procs):
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _start(self, cmd, **kwargs) -> subprocess.Popen:
        env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
        env["PYTHONHASHSEED"] = "0"  # same set layouts in every run
        env["NO_PROXY"] = "127.0.0.1,localhost"
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                                **kwargs)
        self.procs.append(proc)
        return proc

    def _start_fixture(self) -> int:
        fixture = self._start([sys.executable, str(HERE / "fixture.py"), str(self.args.seed)])
        return int(_read_line(fixture, 30))

    def _loop(self, worker: subprocess.Popen, port: int | None) -> dict:
        prepare = {"index-fullpsl": self._index, "network-scale": self._network,
                   "crawl-loopback": self._crawl}[self.args.workload]
        pass_times: list[float] = []
        pass_rates: list[float] = []
        items = failed = 0
        setup_samples: list[float] = []
        snapshots: list[dict] = []
        problems: list[str] = []
        started = time.monotonic()
        pass_no = 0
        wall_limit = min(WALL_FACTOR * self.args.seconds, WALL_LIMIT_S)
        while sum(pass_times) < self.args.seconds and time.monotonic() - started < wall_limit:
            d = self.work / f"pass-{pass_no}"
            d.mkdir()
            msg, check, pass_items = prepare(pass_no, d, port)
            msg.update(cmd="pass", dir=str(d), top_k=TOP_K, now=gen.NOW)
            worker.stdin.write(json.dumps(msg) + "\n")
            worker.stdin.flush()
            reply = json.loads(_read_line(worker, PASS_TIMEOUT_S))
            got = json.loads((d / "summary.json").read_text(encoding="utf-8"))
            pass_failed, pass_problems = check(got, d / "out")
            problems += [f"pass {pass_no}: {p}" for p in pass_problems]
            pass_times.append(reply["pass_s"])
            pass_rates.append(pass_items / reply["pass_s"])
            setup_samples += reply["setup_s"]
            if "trace" in reply:
                snapshots.append(reply["trace"])
            items += pass_items
            failed += pass_failed
            shutil.rmtree(d)
            pass_no += 1
        worker.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
        worker.stdin.flush()
        peak = json.loads(_read_line(worker, 30))["peak_rss_mb"]
        worker.wait(timeout=30)
        for problem in problems[:20]:
            print(f"perfbench: {problem}", file=sys.stderr)
        timed = sum(pass_times)
        print(f"perfbench: {self.args.workload} seed {self.args.seed}: {pass_no} passes, "
              f"{timed:.2f} s timed ({', '.join(f'{t:.3f}' for t in pass_times)}), "
              f"{len(problems)} problems", file=sys.stderr)
        if timed < self.args.seconds:
            print(f"perfbench: SHORT RUN: the wall-time limit of {wall_limit:.0f} s ended the "
                  f"run after {timed:.2f} s of the {self.args.seconds:g} s timed part",
                  file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "items_per_s": statistics.median(pass_rates),
            "peak_rss_mb": peak,
        }
        if snapshots:
            metrics.update(layers.layer_metrics(snapshots))
            metrics["trace.items_per_s"] = metrics["items_per_s"]
        return {"correct": not problems, "attempted": items, "failed": failed,
                "metrics": metrics, "snapshots": snapshots}

    # --- the workloads: write one pass's inputs, return (message, check, items) ---

    def _index(self, pass_no: int, d: Path, port):
        study = gen.index_study(self.args.seed, pass_no, self.bundled_suffixes,
                                self.generic_text)
        gen.write_index_study(study, d, self.args.seed, pass_no)
        seed_id = next(a.id for a in study.actors if a.category == "SciencePark")

        def check(got, out):
            failed, problems = ref.check_index_urls(study, got)
            # later stages are checked on the records the harvest really produced,
            # which check_index_urls has just matched URL by URL
            records = {
                direction: {tuple(p): (tag, gen.NOW) for p in got["harvest"][direction]["pairs"]}
                for direction, tag in (("in", "InlinkIndex"), ("out", "OutlinkIndex"))
            }
            want = ref.study_reference(list(records["in"]), list(records["out"]),
                                       study.actors, seed_id, study.generic, TOP_K, "oracle")
            return failed, problems + ref.check_study(got, want, out, records, study.generic)

        return {}, check, len(study.urls)

    def _network(self, pass_no: int, d: Path, port):
        study = gen.network_study(self.args.seed, pass_no, self.generic_text)
        gen.write_network_study(study, d, self.args.seed, pass_no)
        seed_id = study.actors[-1].id

        def check(got, out):
            records = {direction: ref.merge_rows(rows)
                       for direction, rows in study.records.items()}
            want = ref.study_reference(list(records["in"]), list(records["out"]),
                                       study.actors, seed_id, study.generic, TOP_K,
                                       "networkx")
            return 0, ref.check_study(got, want, out, records, study.generic)

        return {}, check, sum(len(rows) for rows in study.records.values())

    def _crawl(self, pass_no: int, d: Path, port: int):
        seed = self.args.seed
        sites = gen.crawl_sites(seed, pass_no)
        actors = gen.crawl_registry(seed, pass_no)
        gen.write_registry(actors, d / "registry.csv", gen.rng_for(seed, pass_no, "roles"))
        (d / "generic.txt").write_text(self.generic_text, encoding="utf-8")
        generic = gen.generic_entries(self.generic_text)
        reduction = ref.SuffixReference(self.bundled_suffixes)
        expected = {site: ref.crawl_expected(seed, site, reduction) for site in sites}
        hosts = [h for s in sites for h in (s, f"www.{s}", gen.partner_host(s))]
        msg = {"sites": sites, "host_map": {h: f"127.0.0.1:{port}" for h in hosts},
               "max_pages": gen.CRAWL_MAX_PAGES, "depth": gen.CRAWL_DEPTH}

        def check(got, out):
            problems = ref.check_crawl(expected, got["crawl"])
            pairs = set().union(*(walk.links for walk in expected.values()))
            records = {"in": {}, "out": {p: ("Crawl", gen.NOW) for p in pairs}}
            want = ref.study_reference([], sorted(pairs), actors, "c1", generic, TOP_K,
                                       "oracle")
            return 0, problems + ref.check_study(got, want, out, records, generic)

        return msg, check, sum(len(walk.pages) for walk in expected.values())


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"{proc.args[1]} gave no answer (exit code {proc.poll()})")
    return line


if __name__ == "__main__":
    sys.exit(main())
