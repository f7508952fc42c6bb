"""Self-tests of the benchmark itself.

Run from the repository root (about two minutes on two cores):

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the exact counts repeat from run to run, that tracing changes
no output of the program, that the speed clock scales long blocks piece by
piece, that the tracer leaves hidden calls out of its spans and puts every
patched function back, that the metric names match BENCHMARK.json, and that
the benchmark refuses to report from a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402

from ttalign import training  # noqa: E402

EXACT = ("autodiff.tape_records_per_step", "pretext.views_per_step", "adapt.tent_grad_useful_frac")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(name: str, seed: int, seconds: float):
    tracer = Tracer()
    clock = SpeedClock()
    with tracer:
        tracer.hide(clock, "read")
        outcome = workloads.WORKLOADS[name](seed, seconds, clock, tracer)
    return outcome, tracer.layer_metrics()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_output(name):
    plain = workloads.WORKLOADS[name](1, 0.5, SpeedClock())
    first, first_metrics = _traced(name, 1, 0.5)
    second, second_metrics = _traced(name, 1, 0.5)

    assert plain.failed == first.failed == second.failed == 0
    for key in EXACT:
        assert first_metrics[key] == second_metrics[key], key
    # runs differ in length; the operations they share must agree bit for bit
    shared = min(len(plain.outputs), len(first.outputs))
    assert shared > 0
    assert plain.outputs[:shared] == first.outputs[:shared]
    assert set(first_metrics) | {f"traced.{m['name']}" for m in SPEC["end_to_end"]} == {
        m["name"] for m in SPEC["per_layer"]
    }


class _Step:
    def run(self):
        return 1


def test_speed_clock_scales_piece_by_piece():
    clock = SpeedClock()
    # three bursts per reading: speed 1 before the block, 1/3 after the inner
    # call and 1/3 after the block
    kernels = iter(3 * [1.0] + 3 * [3.0] + 3 * [3.0])
    clock._burst = lambda: next(kernels) * SpeedClock.NOMINAL_S
    clock.read()
    original = _Step.run
    out = []
    with clock.time(out, read_after=(_Step, "run")):
        time.sleep(0.05)
        assert _Step().run() == 1
        time.sleep(0.05)
    assert _Step.run is original
    raw, scaled = out[0]
    # each piece scales by the mean of the two readings around it
    assert raw == pytest.approx(0.1, rel=0.1)
    assert scaled == pytest.approx(0.05 * 2 / (1 + 3) + 0.05 * 2 / (3 + 3), rel=0.1)


def test_hidden_calls_stay_out_of_spans():
    pause = _Step()
    pause.run = lambda: time.sleep(0.05)
    with Tracer() as tracer:
        tracer.hide(pause, "run")
        tracer._wrap("nn.outer", pause.run)()
    (_, start, end, _, _), = tracer.spans
    assert end - start < 0.01


def test_tracer_restores_what_it_patched():
    original = training.finetune_stage1
    with Tracer():
        assert training.finetune_stage1 is not original
    assert training.finetune_stage1 is original


def test_end_to_end_names_match_the_spec(capsys):
    code = run.main(["--workload", "tent_stream", "--seed", "0", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tent_stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
