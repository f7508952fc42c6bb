#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of perfbench runs.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --label arena --parent HEAD~1 --change HEAD \\
        --run finetune_scarce:10 --run tent_stream:4 --seed 1000

Each side is a git revision, exported with ``git archive`` into a temporary
directory, so both run the unmodified ``perfbench/run.py`` of their own tree as

    python3 perfbench/run.py --workload W --seed S --seconds X --trace 0

where X is the ``run_seconds`` that ``BENCHMARK.json`` fixes, so every
recorded pair runs at the benchmark's own run length.

``--run W:N`` runs N pairs of workload W. Pair k uses seed ``--seed + k`` on
both sides; the parent runs first in even pairs and the change in odd ones.
The result is written to ``BENCH_<label>.json`` at the repository root: the
machine facts perfbench printed, both revisions, every run's end-to-end
metrics, and per workload and metric each side's median and quartiles, the
change's wins over the parent pair by pair, and the verdicts of
:func:`summarize` against the metric's bound in ``BENCHMARK.json``.

After the pairs, each side makes one traced run per workload (``--trace 1``,
seed ``--seed``), and the file also holds those per-layer metrics: they show
where a change's time went, while the end-to-end figures above come from the
untraced runs alone. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns the full commit hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """One perfbench run; returns (machine facts, result of its last line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    return machine, json.loads(lines[-1])


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, pairwise wins and verdicts.

    ``end_to_end`` is the list of that name in ``BENCHMARK.json``: each metric's
    ``name``, the direction that is ``better`` and the ``bound`` by which its median
    may worsen, as a fraction of the parent's. The verdicts follow the benchmark's
    rules: ``worse_than_bound`` is a regression; ``spread_exceeds_bound`` marks a
    metric whose parent runs spread too widely to resolve that bound, unless
    ``every_change_run_better``; ``gain_shown`` needs wins in at least nine tenths
    of the pairs (ties count for neither) and a gap between the medians wider than
    the parent's interquartile range.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r for r in mine}
        metrics = {}
        for metric in end_to_end:
            direction, bound = metric["better"], metric["bound"]
            sides = {side: [by[(k, side)]["metrics"][metric["name"]] for k in pairs] for side in SIDES}
            stats = {}
            for side, values in sides.items():
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
                stats[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}
            sign = 1.0 if direction == "higher" else -1.0
            gaps = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
            gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
            parent_median = stats["parent"]["median"]
            wins = sum(g > 0 for g in gaps)
            metrics[metric["name"]] = {
                "better": direction,
                "bound": bound,
                **stats,
                "change_vs_parent": stats["change"]["median"] / parent_median - 1.0,
                "change_wins": wins,
                "pairs": len(pairs),
                "median_gap_exceeds_parent_iqr": gap > stats["parent"]["iqr"],
                "every_change_run_better": (min(sign * c for c in sides["change"])
                                            > max(sign * p for p in sides["parent"])),
                "worse_than_bound": -gap > bound * abs(parent_median),
                "spread_exceeds_bound": stats["parent"]["iqr"] > bound * abs(parent_median),
                "gain_shown": 10 * wins >= 9 * len(pairs) and gap > stats["parent"]["iqr"],
            }
        failed = {side: sum(by[(k, side)]["failed"] for k in pairs) for side in SIDES}
        attempted = {side: sum(by[(k, side)]["attempted"] for k in pairs) for side in SIDES}
        out[workload] = {"metrics": metrics, "failed": failed, "attempted": attempted}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:PAIRS",
                        help="workload and its number of pairs; repeatable")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    plan = []
    for item in args.run:
        workload, _, n = item.partition(":")
        if not n.isdigit() or int(n) < 1:
            parser.error(f"--run needs WORKLOAD:PAIRS with PAIRS >= 1, got {item!r}")
        plan.append((workload, int(n)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: work / side for side in SIDES}
        revs = {side: export(rev, trees[side]) for side, rev in (("parent", args.parent), ("change", args.change))}
        runs, machine = [], {}
        for workload, n in plan:
            for k in range(n):
                seed = args.seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    t0 = time.perf_counter()
                    machine, result = run_once(trees[side], workload, seed, seconds)
                    runs.append({
                        "workload": workload, "pair": k, "seed": seed, "side": side, "first": side == order[0],
                        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                        "metrics": {m: v["value"] for m, v in result["metrics"].items()},
                        "wall_s": time.perf_counter() - t0,
                    })
                    print(json.dumps(runs[-1]), flush=True)
        traced = {}
        for workload, _ in plan:
            traced[workload] = {"seed": args.seed}
            for side in SIDES:
                _, result = run_once(trees[side], workload, args.seed, seconds, trace=1)
                traced[workload][side] = {"correct": result["correct"], "metrics": result["metrics"]}
                print(json.dumps({"workload": workload, "side": side, "traced": True,
                                  "correct": result["correct"]}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    payload = {
        "label": args.label,
        "revisions": revs,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0" % seconds,
        "traced_command": "python3 perfbench/run.py --workload W --seed %d --seconds %g --trace 1"
                          % (args.seed, seconds),
        "machine": machine,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
