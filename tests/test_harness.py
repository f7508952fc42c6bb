"""Experiment orchestration: configs, hashing, splits, multi-seed reports, the
ablation grid, and CSV/JSON emission.

Determinism is the backbone invariant: identical configs and seeds must produce
identical reports (timings aside), regardless of worker-pool size, and the CSV
round-trips every float exactly through 17-significant-digit decimal.
"""

import csv
import io
import json

import numpy as np
import pytest

from ttalign import harness
from ttalign.adapt import ADAPT_METHODS, TentConfig, TttConfig
from ttalign.autodiff import Tensor
from ttalign.errors import ConfigError
from ttalign.harness import (
    STRATEGY_CELLS,
    ExperimentConfig,
    RunReport,
    build_splits,
    config_hash,
    emit_report,
    preset_experiment,
    run_ablation,
    run_experiment,
    run_single,
)
from ttalign.optim import SGD
from ttalign.signals import PASSBAND, TARGET_RATE, ShiftSpec, bandpass, generate_dataset, preprocess, resample
from ttalign.training import FinetuneConfig, PretrainConfig


def micro(task="syn_mi", **overrides):
    """Smallest config that still exercises the full pipeline."""
    base = dict(
        trials_per_subject=8,
        hidden=8,
        features=16,
        n_seeds=1,
        finetune=FinetuneConfig(epochs=2, batch_size=16, lr=1e-3),
        pretrain=PretrainConfig(epochs=1),
    )
    if task == "syn_speech":
        base["trials_per_subject"] = 25
    base.update(overrides)
    return preset_experiment(task, **base)


def strip_wall(obj):
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# config validation and hashing
# ---------------------------------------------------------------------------

def test_cross_subject_overlap_rejected_before_compute():
    with pytest.raises(ConfigError):
        ExperimentConfig(train_subjects=(1, 2, 3), val_subjects=(3, 4), test_subjects=(5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(train_subjects=(1,), val_subjects=(2,), test_subjects=(2,))
    with pytest.raises(ConfigError):
        ExperimentConfig(train_subjects=(), val_subjects=(1,), test_subjects=(2,))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="syn_og")
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="leave_one_out")
    with pytest.raises(ConfigError):
        ExperimentConfig(strategies=("supervised_only", "supervised_only"))
    with pytest.raises(ConfigError):
        ExperimentConfig(strategies=("fine_tune_harder",))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_seeds=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(test_gain=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="within_subject", split_fractions=(0.5, 0.5, 0.5))


NAN = float("nan")


def sgd(**kwargs):
    return SGD([("w", Tensor(np.zeros(2), requires_grad=True))], **kwargs)


@pytest.mark.parametrize("build, field", [
    (FinetuneConfig, {"lr": NAN}),
    (PretrainConfig, {"lr": NAN}),
    (TttConfig, {"lr": NAN}),
    (TentConfig, {"lr": NAN}),
    (sgd, {"lr": NAN}),
    (ShiftSpec, {"noise_scale": NAN}),
    (micro, {"dropout": NAN}),
    (micro, {"test_gain": NAN}),
    (micro, {"duration": NAN}),
    (micro, {"protocol": "within_subject", "split_fractions": (NAN, 0.2, 0.2)}),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else v.__name__)
def test_nan_fails_every_range_check(build, field):
    with pytest.raises(ConfigError):
        build(**field)


# each preset as one literal config, the reference for the PRESETS table
_PRESET_LITERALS = {
    "syn_mi": (ExperimentConfig(
        task="syn_mi", protocol="cross_subject",
        train_subjects=(1, 2, 3, 4, 5), val_subjects=(6, 7), test_subjects=(8, 9),
        trials_per_subject=24,
        finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
    ), "cd7d3fe89bc01d68"),
    "syn_stress": (ExperimentConfig(
        task="syn_stress", protocol="cross_subject",
        train_subjects=(1, 2, 3, 4, 5, 6, 7, 8), val_subjects=(9, 10),
        test_subjects=(11, 12), trials_per_subject=16,
        finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
    ), "810c554831057e69"),
    "syn_speech": (ExperimentConfig(
        task="syn_speech", protocol="within_subject", n_subjects=4,
        trials_per_subject=30,
        finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
    ), "990edcfb46538ab4"),
}


@pytest.mark.parametrize("task", sorted(_PRESET_LITERALS))
def test_preset_equals_its_literal_config(task):
    literal, digest = _PRESET_LITERALS[task]
    assert preset_experiment(task) == literal
    assert config_hash(preset_experiment(task)) == digest


@pytest.mark.parametrize("task", [["syn_mi"], {"syn_mi": 1}, "syn_eeg"])
def test_preset_of_no_task_name_is_a_config_error(task):
    with pytest.raises(ConfigError, match="unknown task"):
        preset_experiment(task)


def test_infinite_duration_is_a_config_error():
    # without the check the config builds and generation dies converting inf to a sample count
    with pytest.raises(ConfigError, match="duration"):
        preset_experiment("syn_mi", duration=float("inf"))


def test_infinite_test_gain_is_a_config_error():
    # without the check the run generates, pretrains and fine-tunes before the
    # infinite test epochs stop it
    with pytest.raises(ConfigError, match="test_gain"):
        preset_experiment("syn_mi", test_gain=float("inf"))


@pytest.mark.parametrize("build", [FinetuneConfig, PretrainConfig, TttConfig, TentConfig],
                         ids=lambda build: build.__name__)
def test_infinite_lr_is_a_config_error(build):
    # without the check the run generates data and pretrains before the first
    # non-finite loss stops it
    with pytest.raises(ConfigError, match="lr"):
        build(lr=float("inf"))


def test_config_hash_deterministic_and_sensitive():
    a = micro()
    b = micro()
    assert config_hash(a) == config_hash(b)
    variants = [
        micro(task="syn_stress"),
        micro(n_seeds=2),
        micro(test_gain=1.3),
        micro(hidden=12),
        micro(finetune=FinetuneConfig(epochs=2, batch_size=16, lr=2e-3)),
        micro(shift=ShiftSpec(channel_gain=(0.9, 1.1))),
        micro(ttt=a.ttt.__class__(lr=3e-5)),
        micro(pretrain=None),
    ]
    hashes = {config_hash(v) for v in variants}
    assert config_hash(a) not in hashes
    assert len(hashes) == len(variants)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_cross_subject_split_membership_and_sizes():
    cfg = micro()
    splits = build_splits(cfg, seed=0)
    for name, subjects in (("train", cfg.train_subjects), ("val", cfg.val_subjects), ("test", cfg.test_subjects)):
        X, y, subj = splits[name]
        assert set(np.unique(subj)) == set(subjects)
        assert X.shape == (len(subjects) * cfg.trials_per_subject, 8, 200)
        assert y.shape == (X.shape[0],)


def test_within_subject_split_every_subject_everywhere():
    cfg = micro("syn_speech")
    splits = build_splits(cfg, seed=0)
    all_subjects = set(range(1, cfg.n_subjects + 1))
    for name in ("train", "val", "test"):
        _, _, subj = splits[name]
        assert set(np.unique(subj)) == all_subjects
    # stratified counts: 5 recordings per subject/class -> 3/1/1
    _, ytr, str_ = splits["train"]
    n_cls = len(np.unique(ytr))
    for s in all_subjects:
        for c in range(n_cls):
            assert np.sum((str_ == s) & (ytr == c)) == 3
            assert np.sum((splits["val"][2] == s) & (splits["val"][1] == c)) == 1
            assert np.sum((splits["test"][2] == s) & (splits["test"][1] == c)) == 1


def test_within_subject_too_few_recordings_rejected():
    with pytest.raises(ConfigError):
        build_splits(micro("syn_speech", trials_per_subject=10), seed=0)


def test_test_gain_scales_test_split_only():
    plain = build_splits(micro(), seed=3)
    shifted = build_splits(micro(test_gain=1.3), seed=3)
    assert np.array_equal(shifted["train"][0], plain["train"][0])
    assert np.array_equal(shifted["val"][0], plain["val"][0])
    assert np.array_equal(shifted["test"][0], plain["test"][0] * 1.3)


@pytest.mark.parametrize("task", ["syn_mi", "syn_speech"])  # cross- and within-subject
def test_multi_epoch_recordings_stay_whole_and_in_order(task):
    cfg = micro(task, duration=2.5)
    cross = cfg.protocol == "cross_subject"
    n_subjects = max(*cfg.train_subjects, *cfg.val_subjects, *cfg.test_subjects) if cross else cfg.n_subjects
    recs = generate_dataset(cfg.task, range(1, n_subjects + 1), cfg.trials_per_subject, 1, cfg.shift, cfg.duration)
    epochs = []
    for rec in recs:
        x = resample(bandpass(rec.data, rec.rate, *PASSBAND), rec.rate, TARGET_RATE)
        assert x.shape[-1] // 200 == 2
        epochs.append([x[:, :200], x[:, 200:400]])
    owner = {first.tobytes(): i for i, (first, _) in enumerate(epochs)}
    orders = {}
    for name, (X, y, subj) in build_splits(cfg, seed=1).items():
        assert X.flags.c_contiguous and len(X) % 2 == 0
        order = orders[name] = [owner[X[i].tobytes()] for i in range(0, len(X), 2)]
        assert np.array_equal(X, np.stack([e for i in order for e in epochs[i]]))
        assert y.tolist() == [recs[i].label for i in order for _ in range(2)]
        assert subj.tolist() == [recs[i].subject for i in order for _ in range(2)]
    # every recording lands whole in exactly one split
    assert sorted(i for order in orders.values() for i in order) == list(range(len(recs)))
    for name, order in orders.items():
        if cross:
            assert order == sorted(order)
            assert {recs[i].subject for i in order} == set(getattr(cfg, f"{name}_subjects"))
        else:
            assert order == sorted(order, key=lambda i: (recs[i].subject, recs[i].label, i))


def test_gapped_subject_sets_generate_only_listed_subjects(monkeypatch):
    cfg = micro(train_subjects=(2, 5), val_subjects=(7,), test_subjects=(3, 9))
    # reference: every subject up to the largest listed id, each split keeping its own
    recs = generate_dataset(cfg.task, range(1, 10), cfg.trials_per_subject, 4, cfg.shift, cfg.duration)
    generated = []

    def spy(task, subjects, *args):
        generated.append(list(subjects))
        return generate_dataset(task, subjects, *args)

    monkeypatch.setattr(harness, "generate_dataset", spy)
    splits = build_splits(cfg, seed=4)
    assert generated == [[2, 3, 5, 7, 9]]
    for name in ("train", "val", "test"):
        keep = set(getattr(cfg, f"{name}_subjects"))
        want = preprocess([r for r in recs if r.subject in keep])
        for got, ref in zip(splits[name], want):
            assert got.tobytes() == ref.tobytes(), name


def test_build_splits_deterministic():
    a = build_splits(micro(), seed=7)
    b = build_splits(micro(), seed=7)
    c = build_splits(micro(), seed=8)
    assert np.array_equal(a["train"][0], b["train"][0])
    assert np.array_equal(a["test"][0], b["test"][0])
    assert not np.array_equal(a["train"][0], c["train"][0])


# ---------------------------------------------------------------------------
# single-seed pipeline
# ---------------------------------------------------------------------------

def test_run_single_record_shape_multiclass():
    rec = run_single(micro(), seed=0)
    assert set(rec["strategies"]) == {"supervised_only", "stage1_ssl", "ttt_ssl", "tent"}
    for name, r in rec["strategies"].items():
        values = r["metrics"]["values"]
        assert set(values) == {"balanced_accuracy", "cohens_kappa", "weighted_f1"}
        assert all(np.isfinite(v) for v in values.values())
    assert rec["strategies"]["ttt_ssl"]["adaptation"]["records"] == 16  # one per test epoch
    assert rec["strategies"]["tent"]["adaptation"]["records"] == 1     # one batch of 16


def test_run_single_binary_metric_set():
    rec = run_single(micro("syn_stress", strategies=("supervised_only",)), seed=0)
    values = rec["strategies"]["supervised_only"]["metrics"]["values"]
    assert set(values) == {"balanced_accuracy", "cohens_kappa", "weighted_f1", "auroc", "auc_pr"}


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------

def test_run_experiment_single_strategy_single_seed():
    report = run_experiment(micro(strategies=("supervised_only",), n_seeds=1))
    assert len(report.per_seed) == 1
    assert list(report.aggregates) == ["supervised_only"]
    assert report.kind == "experiment"
    assert report.seeds == [0]


def test_run_experiment_deterministic_up_to_timing():
    cfg = micro(strategies=("stage1_ssl", "tent"), n_seeds=2)
    a = run_experiment(cfg).to_dict()
    b = run_experiment(cfg).to_dict()
    assert strip_wall(a) == strip_wall(b)


def test_run_experiment_aggregates_recompute():
    report = run_experiment(micro(strategies=("supervised_only", "stage1_ssl"), n_seeds=3))
    for strategy, metrics in report.aggregates.items():
        for metric, stats in metrics.items():
            vals = [r["strategies"][strategy]["metrics"]["values"][metric] for r in report.per_seed]
            assert abs(stats["mean"] - np.mean(vals)) < 1e-12
            assert abs(stats["std"] - np.std(vals)) < 1e-12


def test_worker_pool_result_independent_of_pool_size(monkeypatch):
    # the ablation reaches the pool through a partial of run_single
    for run, cfg in ((run_experiment, micro(strategies=("supervised_only",), n_seeds=2)),
                     (run_ablation, micro(n_seeds=2))):
        monkeypatch.setenv("TTALIGN_WORKERS", "1")
        serial = strip_wall(run(cfg).to_dict())
        monkeypatch.setenv("TTALIGN_WORKERS", "2")
        parallel = strip_wall(run(cfg).to_dict())
        assert serial == parallel, run.__name__


def test_worker_env_var_validated(monkeypatch):
    monkeypatch.setenv("TTALIGN_WORKERS", "many")
    with pytest.raises(ConfigError):
        run_experiment(micro(strategies=("supervised_only",), n_seeds=2))


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

ABLATION_ROWS = ("no_ssl", "stopped_band", "jigsaw", "both")


def test_ablation_grid_shape():
    report = run_ablation(micro(n_seeds=1))
    labels = [f"{row}/{column}" for row in ABLATION_ROWS for column in ADAPT_METHODS]
    assert len(labels) == 12  # 4 x 3 cells
    assert report.columns == labels
    assert len(report.per_seed) == 1
    assert list(report.per_seed[0]["strategies"]) == labels
    for cell in report.per_seed[0]["strategies"].values():
        assert set(cell) == {"metrics", "val_best", "adaptation", "wall_time"}
    assert list(report.aggregates) == labels


def test_ablation_builds_splits_and_base_once_per_seed(monkeypatch):
    monkeypatch.delenv("TTALIGN_WORKERS", raising=False)  # counts need the in-process path
    stages = ("build_splits", "pretrained_base", "finetune")
    calls = []
    for name in stages:
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    report = run_ablation(micro(n_seeds=2))
    # per seed: one split, one base, one fine-tune per row
    assert [calls.count(name) for name in stages] == [2, 2, 8]
    # one record per seed; cells are label-major: every seed of one cell before the next cell
    assert [r["seed"] for r in report.per_seed] == [0, 1]
    assert [(label, seed) for label, seed, _ in harness.report_cells(report.to_dict())] == [
        (f"{row}/{column}", seed) for row in ABLATION_ROWS for column in ADAPT_METHODS for seed in (0, 1)
    ]
    # the four strategies are cells of two rows: two fine-tunes per seed
    calls.clear()
    run_experiment(micro(n_seeds=2))
    assert [calls.count(name) for name in stages] == [2, 2, 4]


def test_ablation_both_no_ttt_cell_matches_stage1_ssl_run():
    cfg = micro(n_seeds=1)
    experiment = run_experiment(cfg)
    ablation = run_ablation(cfg)
    for strategy, (row, column) in STRATEGY_CELLS.items():
        # the whole cell record: metrics, val_best and the adaptation summary
        expected = strip_wall(experiment.per_seed[0]["strategies"][strategy])
        assert strip_wall(ablation.per_seed[0]["strategies"][f"{row}/{column}"]) == expected, strategy


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_emit_report_csv_roundtrip(tmp_path):
    report = run_experiment(micro(strategies=("supervised_only", "stage1_ssl"), n_seeds=2))
    paths = emit_report(report, tmp_path)
    csv_path = next(p for p in paths if p.suffix == ".csv")
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert set(rows[0]) == {"strategy", "seed", "metric", "value"}
    per_seed_rows = [r for r in rows if r["seed"] not in ("mean", "std")]
    for row in per_seed_rows:
        rec = next(p for p in report.per_seed if p["seed"] == int(row["seed"]))
        stored = rec["strategies"][row["strategy"]]["metrics"]["values"][row["metric"]]
        assert float(row["value"]) == stored  # exact: 17 significant digits
    # aggregate rows recompute from per-seed rows
    for row in (r for r in rows if r["seed"] == "mean"):
        vals = [float(r["value"]) for r in per_seed_rows
                if r["strategy"] == row["strategy"] and r["metric"] == row["metric"]]
        assert abs(float(row["value"]) - np.mean(vals)) < 1e-12


def test_emit_report_empty_strategy_list_header_only(tmp_path):
    report = RunReport(
        kind="experiment", task="syn_mi", protocol="cross_subject",
        config_hash="0" * 16, seeds=[], per_seed=[], aggregates={}, wall_time=0.0,
        columns=[],
    )
    paths = emit_report(report, tmp_path)
    assert paths[0].read_text() == "strategy,seed,metric,value\n"


def test_emit_report_json_matches_report(tmp_path):
    report = run_experiment(micro(strategies=("supervised_only",), n_seeds=1))
    paths = emit_report(report, tmp_path)
    assert [p.name for p in paths] == ["experiment_syn_mi.csv", "experiment_syn_mi.json"]
    loaded = json.loads(paths[1].read_text())
    assert loaded == report.to_dict()


def test_ablation_csv_rows(tmp_path):
    report = run_ablation(micro(n_seeds=1))
    paths = emit_report(report, tmp_path)
    rows = list(csv.DictReader(io.StringIO(paths[0].read_text())))
    keys = {r["strategy"] for r in rows}
    assert "both/none" in keys and "no_ssl/tent" in keys
    assert all("/" in k for k in keys)
