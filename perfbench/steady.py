"""Steadiness check: several sets of runs of the same code, compared.

    python3 perfbench/steady.py --sets 2 --runs 10
    python3 perfbench/steady.py --report .perfbench/steady-<stamp>.json [...] [--group 10]

Each set makes ``--runs`` runs of every workload of ``BENCHMARK.json``,
each with its own seed (set s, run i uses seed 1 + s * runs + i), at the
run length of ``BENCHMARK.json``. A traced run per workload and set
measures the tracing overhead. For every workload and end-to-end metric the
report gives each set's median and quartiles, the spread (q3 - q1) / median
against the metric's bound, and how far apart the set medians lie: the
largest over all pairs of sets of (higher - lower) / lower. The raw results
go to ``.perfbench/steady-<stamp>.json``; ``--report`` prints saved files
again, ``--group`` regrouping the untraced runs by seed into sets of that
size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect(spec: dict, sets: int, runs: int) -> list:
    workloads = [w["name"] for w in spec["workloads"]]
    results = []
    for s in range(sets):
        for i in range(runs):
            seed = 1 + s * runs + i
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"], 0)
                results.append({"set": s, "workload": workload, "seed": seed, "trace": 0,
                                **result})
                print(f"set {s} seed {seed} {workload}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        for workload in workloads:
            seed = 1 + s * runs
            result = run_once(workload, seed, spec["run_seconds"], 1)
            results.append({"set": s, "workload": workload, "seed": seed, "trace": 1,
                            **result})
    return results


def regroup(results: list, size: int) -> list:
    """The untraced runs of each workload, in seed order, in groups of ``size``."""
    plain = sorted((r for r in results if r["trace"] == 0), key=lambda r: r["seed"])
    seen: dict[str, int] = {}
    grouped = []
    for r in plain:
        n = seen[r["workload"]] = seen.get(r["workload"], -1) + 1
        grouped.append({**r, "set": n // size})
    return grouped + [r for r in results if r["trace"] == 1]


def report(spec: dict, results: list) -> str:
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in results},
                       key=[w["name"] for w in spec["workloads"]].index)
    for workload in workloads:
        plain = [r for r in results if r["workload"] == workload and r["trace"] == 0]
        sets = sorted({r["set"] for r in plain})
        shares = [sum(r["failed"] for r in plain if r["set"] == s)
                  / sum(r["attempted"] for r in plain if r["set"] == s) for s in sets]
        lines.append(f"## {workload}")
        lines.append("")
        lines.append(f"{len(plain)} runs in {len(sets)} sets; all correct: "
                     f"{all(r['correct'] for r in plain)}; failed share per set: "
                     + ", ".join(f"{v:.6f}" for v in shares))
        lines.append("")
        lines.append("| metric | set | runs | median | q1 | q3 | spread | bound |")
        lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
        worst = []
        for name, m in bounds.items():
            spreads, medians = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in plain if r["set"] == s]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
                spreads.append((q3 - q1) / median)
                medians.append(median)
                lines.append(f"| {name} | {s} | {len(values)} | {median:.6g} | {q1:.6g} | "
                             f"{q3:.6g} | {spreads[-1]:.3f} | {m['bound']} |")
            apart = (max(medians) - min(medians)) / min(medians)
            worst.append(f"{name}: largest spread {max(spreads):.3f}, set medians apart by "
                         f"{apart:.3f} (bound {m['bound']})")
        lines.append("")
        lines += worst
        traced = [r for r in results if r["workload"] == workload and r["trace"] == 1]
        if traced:
            untraced = statistics.median(r["metrics"]["items_per_s"]["value"] for r in plain)
            with_trace = statistics.median(r["metrics"]["trace.items_per_s"]["value"]
                                           for r in traced)
            lines.append(f"tracing overhead ({len(traced)} traced runs): items_per_s "
                         f"{with_trace:.6g} traced vs {untraced:.6g} untraced "
                         f"({1 - with_trace / untraced:+.1%})")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--report", nargs="+", help="print the report of saved results files")
    parser.add_argument("--group", type=int, help="report the runs in groups of this many")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.report:
        results = []
        for path in args.report:
            part = json.loads(Path(path).read_text(encoding="utf-8"))["results"]
            offset = 1 + max((r["set"] for r in results), default=-1)
            results += [{**r, "set": r["set"] + offset} for r in part]
    else:
        results = collect(spec, args.sets, args.runs)
        out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "results": results}),
                       encoding="utf-8")
        print(f"results: {out.relative_to(ROOT)}")
    if args.group:
        results = regroup(results, args.group)
    print(report(spec, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
