#!/usr/bin/env python3
"""ttalign benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload finetune_scarce --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` reruns the same
workload with spans around every layer boundary and reports the per-layer
metrics instead, writing the spans to ``.perfbench_out/trace-<workload>.jsonl``.
``--workload all`` runs every workload untraced and then traced in this one
process and prints each end-to-end metric beside its tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any output check failed and 2 when the program cannot be loaded.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, and no process pool in ttalign.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TTALIGN_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("finetune_scarce", "ttt_stream", "tent_stream", "pipeline_evaluate")


def _load_program():
    """Import numpy, ttalign (from ``src/``) and the workloads module."""
    if not (ROOT / "src" / "ttalign" / "__init__.py").is_file() or not (ROOT / "golden").is_dir():
        print(f"error: no ttalign sources or golden file under {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401
    import ttalign  # noqa: F401
    import workloads

    return workloads


def machine_facts() -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "ttalign_workers": os.environ.get("TTALIGN_WORKERS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_times(clock) -> list:
    """:meth:`SpeedClock.time` entries of three fresh interpreters importing numpy and ttalign."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times: list = []
    for _ in range(3):
        with clock.time(times):
            subprocess.run([sys.executable, "-c", "import numpy, ttalign"], env=env, cwd=ROOT, check=True)
    return times


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool):
    """One run: returns (result dict for the last line, Outcome, named metrics)."""
    from speed import SpeedClock

    clock = SpeedClock()
    imports = _import_times(clock)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            tracer.hide(clock, "read")
            outcome = workloads.WORKLOADS[name](seed, seconds, clock, tracer)
    else:
        outcome = workloads.WORKLOADS[name](seed, seconds, clock)
    factors = clock.factors()
    end_to_end = {
        "throughput": (outcome.throughput, "1/s"),
        "setup_s": (statistics.median(t[1] for t in imports) + outcome.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        # the end-to-end figures as measured with tracing on, for the overhead
        metrics.update({f"traced.{k}": v for k, v in end_to_end.items()})
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    else:
        metrics = end_to_end
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    scale = 60.0 if outcome.unit.endswith("/min") else 1.0
    named = {
        **end_to_end,
        outcome.name: (scale * outcome.throughput, outcome.unit),
        "raw " + outcome.name: (scale * outcome.raw_throughput, outcome.unit),
        "raw setup_s": (statistics.median(t[0] for t in imports) + outcome.raw_setup_s, "s"),
        "speed factor (median)": (statistics.median(factors), "x nominal"),
    }
    return result, outcome, named


def _print_metrics(name: str, named: dict, outcome) -> None:
    for metric, (value, unit) in named.items():
        print(f"{name}  {metric:32s} {value:14.6g} {unit}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{name}  {'failed_frac':32s} {frac:14.6g} ({outcome.failed} of {outcome.attempted} operations)")


def run_all(workloads, seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced; prints the overhead of tracing."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        plain, plain_outcome, plain_named = run_workload(workloads, name, seed, seconds, False)
        traced, traced_outcome, traced_named = run_workload(workloads, name, seed, seconds, True)
        _print_metrics(name, plain_named, plain_outcome)
        for metric, (value, unit) in traced_named.items():
            base = plain_named[metric][0]
            print(f"{name}  {'tracing overhead ' + metric:45s} {value - base:+12.6g} {unit}")
        results[name] = {"untraced": plain, "traced": traced}
        for outcome in (plain_outcome, traced_outcome):
            correct = correct and outcome.failed == 0
            attempted += outcome.attempted
            failed += outcome.failed
    results["peak_rss_note"] = "peak_rss_mb is the running maximum of this one process"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"all-{seed}.json").write_text(json.dumps(results, indent=2) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {f"{w}.{m}": v for w in WORKLOAD_NAMES for m, v in results[w]["untraced"]["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and the interpreters it starts, so that the speed
    # reference (speed.py) is always read on the core the measured work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = _load_program()
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    if args.workload == "all":
        result = run_all(workloads, args.seed, args.seconds)
    else:
        result, outcome, named = run_workload(workloads, args.workload, args.seed, args.seconds,
                                              bool(args.trace))
        if not args.trace:
            _print_metrics(args.workload, named, outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
