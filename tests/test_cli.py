"""Command-line front end: exit codes, error records, artifacts, determinism.

Most tests drive ``main(argv)`` in-process for speed; one subprocess test
proves the module entry point works end to end.  Every failure path must
print a single JSON error record to stderr and return a nonzero code.
"""

import importlib.util
import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ttalign import autodiff as ad
from ttalign.cli import build_config, build_parser, main
from ttalign.errors import ConfigError
from ttalign.gradcheck import run_gradcheck
from ttalign.harness import build_splits, finetuned_rows, run_single

MICRO = {
    "task": "syn_mi",
    "trials_per_subject": 8,
    "hidden": 8,
    "features": 16,
    "n_seeds": 1,
    "finetune": {"epochs": 2, "batch_size": 16, "lr": 1e-3},
    "pretrain": {"epochs": 1},
}


@pytest.fixture
def micro_cfg(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO))
    return path


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_missing_config_file_error_record(tmp_path, capsys):
    code, _, err = run_cli("generate", "--config", tmp_path / "nope.json", capsys=capsys)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert record["command"] == "generate"
    assert "nope.json" in record["message"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "syn_mi", "bogus": 1}))
    code, _, err = run_cli("generate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2
    assert "bogus" in json.loads(err)["message"]


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli("generate", "--config", path, capsys=capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("content, key", [
    (b"\xff\xfe{}", "not UTF-8"),
    (b'{"n_seeds": "2"}', "n_seeds"),
    (b'{"test_gain": "x"}', "test_gain"),
    (b'{"shift": {"channel_gain": [1]}}', "shift.channel_gain"),
    (b'{"hidden": "big"}', "hidden"),
    (b'{"duration": NaN}', "NaN"),
    (b'{"duration": Infinity}', "Infinity"),
    (b'{"task": "syn_speech", "split_fractions": [NaN, 0.2, 0.2]}', "NaN"),
])
def test_config_of_wrong_encoding_or_type_rejected(tmp_path, capsys, content, key):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2 and stdout == "" and err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ConfigError" and key in record["message"]


@pytest.mark.parametrize("override, key", [
    ({"hidden": 0}, "hidden"),
    ({"features": -3}, "features"),
    ({"duration": 0}, "duration"),
    ({"duration": -1}, "duration"),
    ({"duration": 0.5}, "duration"),
    ({"pretrain": {"patch": 0}}, "patch"),
    ({"pretrain": {"patch": -25}}, "patch"),
    ({"base_seed": -1}, "base_seed"),
    ({"base_seed": 1.5}, "base_seed"),
    ({"train_subjects": [-1, 1]}, "train_subjects"),
    ({"test_subjects": [0]}, "test_subjects"),
    ({"finetune": {"monitor": "auroc"}}, "monitor"),  # syn_mi has four classes
    ({"finetune": {"monitor": "f1"}}, "monitor"),
    ({"finetune": {"optimizer": "lion"}}, "optimizer"),
    ({"pretrain": {"optimizer": "lion"}}, "optimizer"),
    ({"ttt": {"optimizer": "lion"}}, "optimizer"),
])
def test_config_out_of_range_rejected(tmp_path, capsys, override, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**MICRO, **override}))
    code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError" and key in record["message"]


@pytest.mark.parametrize("override, key", [
    ({"finetune": {"lr": 0}}, "finetune lr"),
    ({"finetune": {"lr": -1}}, "finetune lr"),
    ({"pretrain": {"lr": 0}}, "pretrain lr"),
    ({"dropout": 1.5}, "dropout"),
    ({"dropout": -0.1}, "dropout"),
    ({"pretrain": {"epochs": 1, "patch": 7}}, "patch"),
    ({"finetune": {"lr": float("inf")}}, "finetune lr"),
    ({"test_subjects": [2**70]}, "test_subjects"),
    ({"shift": {"channel_gain": [0.5, float("inf")]}}, "channel gain"),
    ({"shift": {"noise_scale": float("inf")}}, "noise scale"),
])
def test_config_rejected_before_any_data_is_generated(tmp_path, monkeypatch, override, key):
    import ttalign.harness

    def never(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(ttalign.harness, "generate_dataset", never)
    path = tmp_path / "bad.json"
    # json writes inf as the literal Infinity, which the loader rejects by name;
    # 1e999 is a number that json reads back as inf
    path.write_text(json.dumps({**MICRO, **override}).replace("Infinity", "1e999"))
    with pytest.raises(ConfigError, match=key):
        build_config(build_parser().parse_args(["evaluate", "--config", str(path)]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_diverging_adaptation_exits_3(tmp_path, capsys):
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({**MICRO, "ttt": {"lr": 1e300}, "strategies": ["ttt_ssl"]}))
    code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 3 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "ContractError" and "diverged" in record["message"]


@pytest.mark.parametrize("section", ["ttt", "tent", "finetune"])
def test_diverging_run_prints_one_stderr_line(tmp_path, capsys, section):
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({**MICRO, section: {**MICRO.get(section, {}), "lr": 1e300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a line ahead of the record
        code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 3 and stdout == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "ContractError"


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_memory_error_maps_to_exit_5(tmp_path, micro_cfg, capsys, monkeypatch, command):
    import ttalign.harness

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")

    monkeypatch.delenv("TTALIGN_WORKERS", raising=False)
    monkeypatch.setattr(ttalign.harness, "generate_dataset", out_of_memory)
    code, stdout, err = run_cli(command, "--config", micro_cfg, "--out", tmp_path / "o", capsys=capsys)
    assert code == 5 and stdout == "" and err.count("\n") == 1
    record = json.loads(err)
    assert record == {"command": command, "error": "MemoryError", "message": "Unable to allocate 7.45 TiB for an array"}


@pytest.mark.parametrize("section, key, value", [
    ("finetune", "seed", 7), ("finetune", "weights", [5, 5]), ("pretrain", "seed", 4), ("ttt", "seed", 9),
])
def test_run_owned_config_keys_rejected(tmp_path, capsys, section, key, value):
    # the run overwrites these with its seed and the strategy's weights
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**MICRO, section: {**MICRO.get(section, {}), key: value}}))
    code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError" and f"{section}.{key}" in record["message"]


@pytest.mark.parametrize("override", [
    {"finetune": None}, {"ttt": None}, {"tent": None}, {"shift": None},
    {"finetune": 3}, {"tent": "default"}, {"shift": [1.0, 2.0]},
])
def test_nested_section_that_is_no_object_rejected(tmp_path, capsys, override):
    # only ``pretrain`` is hinted ``| None``; a null elsewhere fits no field's type
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**MICRO, **override}))
    code, stdout, err = run_cli("evaluate", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2 and stdout == "" and err.count("\n") == 1
    record = json.loads(err)
    (key,) = override
    assert record["error"] == "ConfigError" and f"'{key}'" in record["message"]


def test_null_pretrain_runs_without_pretraining(tmp_path, capsys):
    path = tmp_path / "nopre.json"
    path.write_text(json.dumps({**MICRO, "pretrain": None}))
    assert build_config(build_parser().parse_args(["evaluate", "--config", str(path)])).pretrain is None
    code, _, _ = run_cli("evaluate", "--config", path, "--strategy", "supervised_only", "--out", tmp_path / "o",
                         capsys=capsys)
    assert code == 0


@pytest.mark.parametrize("task", [["syn_mi"], {"syn_mi": 1}, 3, 0, None, ""])
def test_task_that_is_no_task_name_rejected(tmp_path, task):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": task}))
    with pytest.raises(ConfigError, match="unknown task"):
        build_config(build_parser().parse_args(["generate", "--config", str(path)]))


@pytest.mark.parametrize("override, message", [
    # the parameters stay finite float32, but every validation probability is NaN
    ({"finetune": {"optimizer": "sgd", "lr": 1e30, "epochs": 1, "batch_size": 64}}, "validation probabilities"),
    # the float64 test split is finite, its float32 cast is not
    ({"test_gain": 1e300}, "read-out"),
])
def test_non_finite_read_out_exits_3(tmp_path, capsys, override, message):
    path = tmp_path / "garbage.json"
    path.write_text(json.dumps({**MICRO, **override}))
    code, stdout, err = run_cli("adapt", "--strategy", "none", "--config", path, "--out", tmp_path / "o",
                                capsys=capsys)
    assert code == 3 and stdout == "" and err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ContractError" and message in record["message"]


def test_pretrain_disabled_rejected(tmp_path, capsys):
    path = tmp_path / "nopre.json"
    path.write_text(json.dumps({**MICRO, "pretrain": None}))
    code, _, err = run_cli("pretrain", "--config", path, "--out", tmp_path / "o", capsys=capsys)
    assert code == 2
    assert "pretrain" in json.loads(err)["message"]


def test_report_without_artifacts_rejected(tmp_path, capsys):
    code, _, err = run_cli("report", "--out", tmp_path / "empty", capsys=capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_splits_and_manifest(tmp_path, micro_cfg, capsys):
    out = tmp_path / "gen"
    code, stdout, _ = run_cli("generate", "--config", micro_cfg, "--seed", 3, "--out", out,
                              capsys=capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["splits"]["train"]["epochs"] == 40
    assert summary["splits"]["test"]["epochs"] == 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == summary
    cfg = build_config(build_parser().parse_args(["generate", "--config", str(micro_cfg)]))
    X, y, subj = build_splits(cfg, 3)["test"]
    assert X.shape == (16, 8, 200)
    assert (out / "test.f32").read_bytes() == X.astype("<f4").tobytes()
    meta = json.loads((out / "test.json").read_text())
    assert meta["task"] == "syn_mi" and meta["seed"] == 3
    assert meta["labels"] == y.tolist() and meta["subjects"] == subj.tolist()
    assert sorted(set(subj)) == [8, 9]
    assert np.bincount(y).tolist() == [4, 4, 4, 4]


def test_task_flag_overrides_config_file(tmp_path, micro_cfg, capsys):
    out = tmp_path / "gen"
    # syn_mi-specific keys are rejected for syn_stress presets only if invalid;
    # use a bare config to keep the override observable
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"task": "syn_mi", "trials_per_subject": 8, "n_seeds": 1}))
    code, stdout, _ = run_cli("generate", "--config", path, "--task", "syn_stress",
                              "--out", out, capsys=capsys)
    assert code == 0
    assert json.loads(stdout)["task"] == "syn_stress"


# ---------------------------------------------------------------------------
# pretrain / finetune / adapt artifacts
# ---------------------------------------------------------------------------

def test_finetune_checkpoint_roundtrips(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ft"
    code, stdout, _ = run_cli("finetune", "--config", micro_cfg, "--seed", 1, "--out", out,
                              "--strategy", "supervised_only", capsys=capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["strategy"] == "supervised_only"
    assert summary["monitor"] == "cohens_kappa"
    cfg = build_config(build_parser().parse_args(["finetune", "--config", str(micro_cfg)]))
    _, model, _ = finetuned_rows(cfg, 1, ["no_ssl"])[2]["no_ssl"]
    arenas = model.param_arena.astype("<f8").tobytes() + model.buffer_arena.astype("<f8").tobytes()
    assert (out / "checkpoint_supervised_only.ckpt").read_bytes().endswith(arenas)
    history = json.loads((out / "finetune_history_supervised_only.json").read_text())
    assert len(history) == 2
    assert summary["val_best"] == max(h["val_score"] for h in history)


def test_finetune_strategies_produce_different_checkpoints(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ft"
    assert run_cli("finetune", "--config", micro_cfg, "--out", out,
                   "--strategy", "supervised_only", capsys=capsys)[0] == 0
    assert run_cli("finetune", "--config", micro_cfg, "--out", out,
                   "--strategy", "stage1_ssl", capsys=capsys)[0] == 0
    sup = (out / "checkpoint_supervised_only.ckpt").read_bytes()
    ssl = (out / "checkpoint_stage1_ssl.ckpt").read_bytes()
    assert sup != ssl


def test_adapt_writes_metrics_and_log(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ad"
    code, stdout, _ = run_cli("adapt", "--config", micro_cfg, "--seed", 0, "--out", out,
                              "--strategy", "ttt_ssl", capsys=capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["adaptation_records"] == 16
    metrics = json.loads((out / "metrics_ttt_ssl.json").read_text())
    assert set(metrics["values"]) == {"balanced_accuracy", "cohens_kappa", "weighted_f1"}
    log = json.loads((out / "adaptation_log_ttt_ssl.json").read_text())
    assert [r["index"] for r in log] == list(range(16))


def test_adapt_rerun_reproduces_metrics_bitwise(tmp_path, micro_cfg, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("adapt", "--config", micro_cfg, "--seed", 2, "--out", out,
                       "--strategy", "tent", capsys=capsys)[0] == 0
    assert (out_a / "metrics_tent.json").read_text() == (out_b / "metrics_tent.json").read_text()


@pytest.mark.parametrize("strategy, run_single_strategy", [
    ("tent", "tent"), ("ttt_ssl", "ttt_ssl"), ("none", "stage1_ssl"),
])
def test_adapt_metrics_equal_run_single(tmp_path, micro_cfg, capsys, strategy, run_single_strategy):
    code, stdout, _ = run_cli("adapt", "--config", micro_cfg, "--seed", 1, "--out", tmp_path,
                              "--strategy", strategy, capsys=capsys)
    assert code == 0
    cfg = build_config(build_parser().parse_args(["adapt", "--config", str(micro_cfg), "--seed", "1"]))
    cfg = replace(cfg, strategies=(run_single_strategy,))
    expected = run_single(cfg, seed=1)["strategies"][run_single_strategy]["metrics"]["values"]
    assert json.loads(stdout)["metrics"] == expected


# ---------------------------------------------------------------------------
# evaluate / ablate / report
# ---------------------------------------------------------------------------

def test_evaluate_emits_reports_and_is_deterministic(tmp_path, micro_cfg, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, stdout, _ = run_cli("evaluate", "--config", micro_cfg, "--out", out,
                                  "--strategy", "supervised_only", capsys=capsys)
        assert code == 0
        assert "supervised_only" in stdout and f"wrote {out}" in stdout
    # criterion: identical config+seed reproduces all metric values bitwise
    assert (out_a / "experiment_syn_mi.csv").read_bytes() == \
        (out_b / "experiment_syn_mi.csv").read_bytes()
    rows = (out_a / "experiment_syn_mi.csv").read_text().strip().split("\n")
    assert rows[0] == "strategy,seed,metric,value"
    assert all(r.startswith("supervised_only,") for r in rows[1:])


def test_report_renders_and_verifies(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--config", micro_cfg, "--out", out,
                   "--strategy", "supervised_only", capsys=capsys)[0] == 0
    code, stdout, _ = run_cli("report", "--out", out, capsys=capsys)
    assert code == 0
    assert "aggregates verified" in stdout
    assert "balanced_accuracy" in stdout


def test_report_detects_tampered_aggregates(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--config", micro_cfg, "--out", out,
                   "--strategy", "supervised_only", capsys=capsys)[0] == 0
    path = out / "experiment_syn_mi.json"
    data = json.loads(path.read_text())
    data["aggregates"]["supervised_only"]["balanced_accuracy"]["mean"] += 0.25
    path.write_text(json.dumps(data))
    code, _, err = run_cli("report", "--out", out, capsys=capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ContractError"


def test_report_rejects_non_finite_values(tmp_path, micro_cfg, capsys):
    """A NaN aggregate, and a NaN per-seed row under a finite aggregate, are contract violations."""
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--config", micro_cfg, "--out", out,
                   "--strategy", "supervised_only", capsys=capsys)[0] == 0
    path = out / "experiment_syn_mi.json"
    original = path.read_text()
    for where in ("aggregate", "row"):
        data = json.loads(original)
        if where == "aggregate":
            data["aggregates"]["supervised_only"]["balanced_accuracy"]["mean"] = float("nan")
        else:
            data["per_seed"][0]["strategies"]["supervised_only"]["metrics"]["values"]["balanced_accuracy"] = float("nan")
        path.write_text(json.dumps(data))
        code, _, err = run_cli("report", "--out", out, capsys=capsys)
        assert code == 3, where
        record = json.loads(err)
        assert record["error"] == "ContractError" and "non-finite" in record["message"], where


def test_report_rejects_aggregates_without_rows(tmp_path, micro_cfg, capsys):
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--config", micro_cfg, "--out", out,
                   "--strategy", "supervised_only", capsys=capsys)[0] == 0
    path = out / "experiment_syn_mi.json"
    data = json.loads(path.read_text())
    data["per_seed"] = []
    path.write_text(json.dumps(data))
    code, _, err = run_cli("report", "--out", out, capsys=capsys)
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "ContractError" and "no per-seed rows" in record["message"]


def _ablation_report(per_seed: list[dict]) -> dict:
    """A minimal ablation report dict whose aggregates are recomputed from ``per_seed``."""
    columns = ["both/none", "both/ttt_ssl", "both/tent"]
    aggregates = {}
    for label in columns:
        v = [rec["strategies"][label]["metrics"]["values"]["accuracy"]
             for rec in per_seed if label in rec["strategies"]]
        aggregates[label] = {"accuracy": {"mean": float(np.mean(v)), "std": float(np.std(v))}}
    return {"kind": "ablation", "task": "syn_mi", "protocol": "cross_subject", "config_hash": "0" * 16,
            "seeds": [0, 1], "columns": columns, "per_seed": per_seed, "aggregates": aggregates,
            "wall_time": 0.0}


def test_report_rejects_ablation_record_missing_a_cell(tmp_path, capsys):
    out = tmp_path / "abl"
    out.mkdir()
    path = out / "ablation_syn_mi.json"
    per_seed = [
        {"seed": seed, "strategies": {
            f"both/{column}": {"metrics": {"values": {"accuracy": 0.25 * (seed + 1) + 0.125 * k}}}
            for k, column in enumerate(("none", "ttt_ssl", "tent"))}}
        for seed in (0, 1)
    ]
    path.write_text(json.dumps(_ablation_report(per_seed)))
    assert run_cli("report", "--out", out, capsys=capsys)[0] == 0
    del per_seed[1]["strategies"]["both/tent"]
    # the aggregate is recomputed over the seeds left, so only the missing cell gives it away
    path.write_text(json.dumps(_ablation_report(per_seed)))
    code, stdout, err = run_cli("report", "--out", out, capsys=capsys)
    assert code == 3 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "ContractError" and "'both/tent'" in record["message"]


def test_ablate_report_verifies(tmp_path, micro_cfg, capsys):
    out = tmp_path / "abl"
    assert run_cli("ablate", "--config", micro_cfg, "--out", out, capsys=capsys)[0] == 0
    code, stdout, _ = run_cli("report", "--out", out, capsys=capsys)
    assert code == 0
    assert "aggregates verified" in stdout
    assert "both/tent" in stdout


@pytest.mark.parametrize("content", [b"{broken", b"\xff\xfe{}", b'{"kind": "experiment"}', b"[]"])
def test_report_rejects_unreadable_report_file(tmp_path, capsys, content):
    out = tmp_path / "ev"
    out.mkdir()
    (out / "experiment_syn_mi.json").write_bytes(content)
    code, stdout, err = run_cli("report", "--out", out, capsys=capsys)
    assert code == 3 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "ContractError" and "experiment_syn_mi.json" in record["message"]


def test_gradcheck_passes_and_writes_audit(tmp_path, capsys):
    out = tmp_path / "gc"
    code, stdout, _ = run_cli("gradcheck", "--out", out, capsys=capsys)
    assert code == 0
    audit = json.loads((out / "gradcheck.json").read_text())
    assert audit["max_relative_error"] < 1e-5
    assert audit["per_tensor"]
    assert json.loads(stdout)["max_relative_error"] == audit["max_relative_error"]


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_every_function_is_reached_by_a_command():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_pull_in_src_runs_in_the_gradient_audit(monkeypatch):
    """A recorded primitive cannot land in ``src/ttalign`` without an entry in ``run_gradcheck``.

    Pulls run only in ``grad_check``'s tape backward (its central differences run
    under ``no_grad``), so the audit runs here with that backward alone.
    """
    spec = importlib.util.spec_from_file_location("reach", Path(__file__).resolve().parents[1] / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    pulls = {(Path(file).resolve(), line): name for path in sorted(reach.PACKAGE.glob("*.py"))
             for (file, line), name in reach.functions(path, path.stem).items() if name.endswith(".pull")}
    ran = set()
    record = ad.record

    def traced(out, inputs, pull):
        def seen(g):
            ran.add((Path(pull.__code__.co_filename).resolve(), pull.__code__.co_firstlineno))
            return pull(g)
        return record(out, inputs, seen)

    def backward_only(fragment, x, params):
        with ad.fresh_tape():
            ad.backward(fragment(x))
        return 0.0

    monkeypatch.setattr(ad, "record", traced)
    monkeypatch.setattr(ad, "grad_check", backward_only)
    run_gradcheck()
    assert len(pulls) >= 10
    assert sorted(name for key, name in pulls.items() if key not in ran) == []


def test_module_entry_point_subprocess(tmp_path, micro_cfg):
    out = tmp_path / "gen"
    proc = subprocess.run(
        [sys.executable, "-m", "ttalign.cli", "generate", "--config", str(micro_cfg),
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "generate"
    proc = subprocess.run(
        [sys.executable, "-m", "ttalign.cli", "report", "--out", str(tmp_path / "none")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "ConfigError"


def test_bare_report_finds_an_ablation(tmp_path, micro_cfg, capsys, monkeypatch):
    """``ablate`` then ``report`` with no ``--out``: the report is read from runs/ablate."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("ablate", "--config", micro_cfg, capsys=capsys)[0] == 0
    code, stdout, _ = run_cli("report", capsys=capsys)
    assert code == 0
    assert "runs/ablate/ablation_syn_mi.json" in stdout and "aggregates verified" in stdout
    assert run_cli("evaluate", "--config", micro_cfg, capsys=capsys)[0] == 0
    code, _, err = run_cli("report", capsys=capsys)  # now one under each default directory
    assert code == 2 and "multiple reports" in json.loads(err)["message"]
