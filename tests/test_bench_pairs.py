"""Verdicts of ``scripts/bench_pairs.py`` on hand-built pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _runs(workload: str, parent: dict[str, list[float]], change: dict[str, list[float]],
          faults: dict[str, list[int]] | None = None) -> list[dict]:
    """One run per side and pair, pair ``k`` holding the ``k``-th value of each metric
    and of the side's ``faults`` (0 when not given)."""
    n = len(parent["throughput"])
    faults = faults or {"parent": [0] * n, "change": [0] * n}
    return [
        {"workload": workload, "pair": k, "side": side, "failed": 0, "attempted": 1,
         "metrics": {name: values[k] for name, values in metrics.items()}, "minor_faults": faults[side][k]}
        for side, metrics in (("parent", parent), ("change", change))
        for k in range(n)
    ]


@pytest.mark.parametrize("wins, gain", [(9, True), (8, False)])
def test_summarize_verdicts(wins, gain):
    parent = {
        "throughput": [100.0 + k for k in range(10)],           # IQR 4.5 around a median of 104.5
        "setup_s": [1.0] * 5 + [3.0] * 5,                      # IQR 2 around a median of 2
        "peak_rss_mb": [100.0] * 10,
    }
    change = {
        "throughput": [v + 20.0 for v in parent["throughput"]],  # every run above every parent run
        "setup_s": [2.0 * v for v in parent["setup_s"]],         # median 4: worse by 100%
        "peak_rss_mb": [90.0] * wins + [100.0] * (10 - wins),    # the rest tie
    }
    summary = bench_pairs.summarize(_runs("w", parent, change), END_TO_END)["w"]["metrics"]

    up = summary["throughput"]
    assert up["bound"] == 0.25 and up["change_wins"] == 10 and up["pairs"] == 10
    assert up["every_change_run_better"] and up["gain_shown"]
    assert not up["worse_than_bound"] and not up["spread_exceeds_bound"]

    slow = summary["setup_s"]
    assert slow["worse_than_bound"] and slow["spread_exceeds_bound"]
    assert not slow["every_change_run_better"] and not slow["gain_shown"] and slow["change_wins"] == 0

    rss = summary["peak_rss_mb"]
    assert rss["change_wins"] == wins and rss["median_gap_exceeds_parent_iqr"]
    assert rss["gain_shown"] is gain
    assert not rss["every_change_run_better"] and not rss["worse_than_bound"] and not rss["spread_exceeds_bound"]


def test_summarize_reports_each_sides_median_minor_faults():
    """The median minor page faults per run sit beside the verdicts, which they do not move."""
    same = {"throughput": [100.0, 101.0, 102.0], "setup_s": [1.0] * 3, "peak_rss_mb": [50.0] * 3}
    quiet = _runs("w", same, same)
    noisy = _runs("w", same, same, faults={"parent": [900, 40, 1500], "change": [10, 30, 20]})
    summary = bench_pairs.summarize(noisy, END_TO_END)["w"]
    assert summary["minor_faults"] == {"parent": 900, "change": 20}
    assert summary["metrics"] == bench_pairs.summarize(quiet, END_TO_END)["w"]["metrics"]


def test_run_once_counts_the_minor_page_faults_of_the_run(tmp_path):
    """A run that touches 16 MB of fresh pages takes at least one minor fault per 4 KB page."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('machine ' + json.dumps({'cpu': 'test'}))\n"
        "pages = b'x' * (16 << 20)\n"
        "print(json.dumps({'touched': len(pages)}))\n"
    )
    machine, result, faults = bench_pairs.run_once(tmp_path, "w", 0, 1.0)
    assert machine == {"cpu": "test"} and result == {"touched": 16 << 20}
    assert isinstance(faults, int) and faults >= (16 << 20) // 4096
