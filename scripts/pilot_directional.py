#!/usr/bin/env python3
"""Run the three directional strategy checks and print the comparison table.

Usage:
    python3 scripts/pilot_directional.py            # run and report
    python3 scripts/pilot_directional.py --freeze   # also (re)write the golden file

``--freeze`` records the observed deltas, margins, and config hashes in
``golden/directional_margins.json``. The acceptance suite reruns the same
pinned configs (everything is seeded) and compares against that file, so
freeze only when a deliberate config or model change invalidates the old
numbers — and commit the result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: at these shapes a second BLAS thread
# burns a core for no wall-time gain.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ttalign.pilot import evaluate_pilot, run_pilot  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "directional_margins.json"


def print_table(payload: dict) -> None:
    checks = payload["checks"]
    verdicts = evaluate_pilot(payload)

    def row(name, pair, note):
        print(
            f"  {name:24s} {pair['baseline']:>15s} {pair['baseline_mean']:.4f}"
            f"  {pair['challenger']:>10s} {pair['challenger_mean']:.4f}"
            f"  delta {pair['delta']:+.4f}  {note}"
        )

    print(f"directional checks ({payload['seeds']} seeds each)")
    row(
        "ssl_advantage",
        checks["ssl_advantage"],
        f"margin {payload['margins']['ssl_advantage']:.2f}"
        f" -> {'PASS' if verdicts['ssl_advantage'] else 'FAIL'}",
    )
    row(
        "tent_advantage",
        checks["tent_advantage"],
        f"margin {payload['margins']['tent_advantage']:.2f}"
        f" -> {'PASS' if verdicts['tent_advantage'] else 'FAIL'}",
    )
    within = checks["ttt_transfer"]["syn_speech"]["delta"]
    for task, pair in checks["ttt_transfer"].items():
        kind = "within" if task == "syn_speech" else "cross"
        row(f"ttt_transfer/{task}", pair, f"({kind}-subject)")
    print(
        f"  ttt_transfer: cross deltas vs within ({within:+.4f})"
        f" -> {'PASS' if verdicts['ttt_transfer'] else 'FAIL'}"
    )
    print(f"  wall time: {payload['wall_time']:.1f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--freeze",
        action="store_true",
        help=f"write the golden comparison file ({GOLDEN})",
    )
    args = parser.parse_args(argv)

    payload = run_pilot()
    print_table(payload)

    verdicts = evaluate_pilot(payload)
    if args.freeze:
        if not all(verdicts.values()):
            print("refusing to freeze: a check is failing", file=sys.stderr)
            return 1
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        frozen = {k: v for k, v in payload.items() if k != "wall_time"}
        GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
        print(f"froze margins and observed deltas -> {GOLDEN}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
