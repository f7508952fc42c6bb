"""Experiment orchestration: the staged pipeline, the strategy/ablation grid, and
deterministic report emission.

Every run is a set of ``(row, column)`` cells of one grid, and runs the same stages:

1. :func:`build_splits` — generate, preprocess and split one seed's dataset;
2. :func:`pretrained_base` — initialise the model and masked-pretrain it;
3. :func:`finetune` — stage-I fine-tuning of a clone with one row's pretext weights
   (:func:`ablation_rows`: none, either pretext task alone, or both);
4. :func:`adapt_and_evaluate` — one column's stage-II method (``ADAPT_METHODS``) on
   the test split, then scoring.

:func:`finetuned_rows` runs stages 1-3 for one seed, each row fine-tuned once, and
:func:`run_cells` adds stage 4. A compared *strategy* is one cell (``STRATEGY_CELLS``):
``supervised_only`` is ``no_ssl``/``none``; ``stage1_ssl``, ``ttt_ssl`` and ``tent``
are the ``both`` row (the task's pretext weights) under ``none``, per-sample
pretext adaptation and batch entropy minimisation. Only this module knows the
report layout; :func:`report_cells` and :func:`report_aggregates` read it. Seeds
are independent jobs; TTALIGN_WORKERS bounds the process pool (default 1 = in-process).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .adapt import ADAPT_METHODS, TentConfig, TttConfig, run_adaptation
from .errors import ConfigError, ContractError
from .metrics import EvalResult, evaluate_predictions
from .nn import Model, ModelConfig, clone_model
from .pretext import TaskSpec, task_spec_for
from .signals import EPOCH_SAMPLES, N_CLASSES, TARGET_RATE, TASKS, ShiftSpec, epochs_to_arrays, generate_dataset, preprocess
from .training import FinetuneConfig, PretrainConfig, finetune_stage1, masked_pretrain

# strategy -> its (stage-I row, stage-II column) cell of the grid
STRATEGY_CELLS = {
    "supervised_only": ("no_ssl", "none"),
    "stage1_ssl": ("both", "none"),
    "ttt_ssl": ("both", "ttt_ssl"),
    "tent": ("both", "tent"),
}
STRATEGIES = tuple(STRATEGY_CELLS)
PROTOCOLS = ("cross_subject", "within_subject")
WORKERS_ENV = "TTALIGN_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "syn_mi"
    protocol: str = "cross_subject"
    train_subjects: tuple[int, ...] = (1, 2, 3, 4, 5)
    val_subjects: tuple[int, ...] = (6, 7)
    test_subjects: tuple[int, ...] = (8, 9)
    n_subjects: int = 4                      # within_subject only
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    trials_per_subject: int = 24
    duration: float = 1.0
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    test_gain: float = 1.0                   # extra channel gain on the test split
    strategies: tuple[str, ...] = STRATEGIES
    hidden: int = 16
    features: int = 32
    head_layers: int = 1
    dropout: float = 0.1
    pretrain: PretrainConfig | None = field(default_factory=lambda: PretrainConfig(epochs=1))
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    ttt: TttConfig = field(default_factory=TttConfig)
    tent: TentConfig = field(default_factory=TentConfig)
    n_seeds: int = 5
    base_seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task '{self.task}' (expected one of {TASKS})")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol '{self.protocol}'")
        if not self.strategies or len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be a non-empty list without duplicates")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ConfigError(f"unknown strategies {sorted(unknown)}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.test_gain <= 0:
            raise ConfigError(f"test_gain must be positive, got {self.test_gain}")
        if self.trials_per_subject < 1:
            raise ConfigError("trials_per_subject must be >= 1")
        if self.duration < EPOCH_SAMPLES / TARGET_RATE:
            raise ConfigError(f"duration must cover one epoch ({EPOCH_SAMPLES / TARGET_RATE:g} s), got {self.duration}")
        if self.hidden < 1 or self.features < 1:
            raise ConfigError(f"hidden and features must be >= 1, got {self.hidden} and {self.features}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.finetune.monitor == "auroc" and N_CLASSES[self.task] != 2:
            raise ConfigError(f"monitor 'auroc' needs a binary task; {self.task} has {N_CLASSES[self.task]} classes")
        if self.protocol == "cross_subject":
            groups = [set(self.train_subjects), set(self.val_subjects), set(self.test_subjects)]
            if any(not g for g in groups):
                raise ConfigError("cross_subject needs non-empty train/val/test subject sets")
            for key in ("train_subjects", "val_subjects", "test_subjects"):
                if min(getattr(self, key)) < 1:
                    raise ConfigError(f"{key}: subject ids must be >= 1, got {list(getattr(self, key))}")
            if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
                raise ConfigError("cross_subject train/val/test subject sets must be disjoint")
        else:
            if self.n_subjects < 1:
                raise ConfigError("within_subject needs n_subjects >= 1")
            fr = self.split_fractions
            if len(fr) != 3 or any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
                raise ConfigError(f"split_fractions must be 3 positive numbers summing to 1, got {fr}")


def preset_experiment(task: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults per task, mirroring the split protocols in the tests."""
    if task == "syn_mi":
        base = dict(
            task="syn_mi", protocol="cross_subject",
            train_subjects=(1, 2, 3, 4, 5), val_subjects=(6, 7), test_subjects=(8, 9),
            trials_per_subject=24,
            finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
        )
    elif task == "syn_stress":
        base = dict(
            task="syn_stress", protocol="cross_subject",
            train_subjects=(1, 2, 3, 4, 5, 6, 7, 8), val_subjects=(9, 10),
            test_subjects=(11, 12), trials_per_subject=16,
            finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
        )
    elif task == "syn_speech":
        base = dict(
            task="syn_speech", protocol="within_subject", n_subjects=4,
            trials_per_subject=30,
            finetune=FinetuneConfig(epochs=8, batch_size=32, lr=1e-3),
        )
    else:
        raise ConfigError(f"unknown task '{task}' (expected one of {TASKS})")
    base.update(overrides)
    return ExperimentConfig(**base)


def config_hash(cfg: ExperimentConfig) -> str:
    """Deterministic digest of every config field (nested dataclasses included)."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------

def build_splits(cfg: ExperimentConfig, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Generate, preprocess, and split one seed's dataset.

    Cross-subject: whole subjects go to one split each. Within-subject: every
    subject contributes to all three splits, stratified by class, recordings kept
    whole (all epochs of a recording land in the same split). The test split is
    multiplied by ``test_gain`` afterwards (covariate-shift knob).
    """
    if cfg.protocol == "cross_subject":
        wanted = {"train": set(cfg.train_subjects), "val": set(cfg.val_subjects), "test": set(cfg.test_subjects)}
        n_subjects = max(max(g) for g in wanted.values())
        recs = generate_dataset(cfg.task, n_subjects, cfg.trials_per_subject, seed, cfg.shift, cfg.duration)
        epochs = {"train": [], "val": [], "test": []}
        for rec in recs:
            for name, members in wanted.items():
                if rec.subject in members:
                    epochs[name].extend(preprocess(rec))
    else:
        recs = generate_dataset(cfg.task, cfg.n_subjects, cfg.trials_per_subject, seed, cfg.shift, cfg.duration)
        epochs = {"train": [], "val": [], "test": []}
        by_subject_class: dict[tuple[int, int], list] = {}
        for rec in recs:
            by_subject_class.setdefault((rec.subject, rec.label), []).append(rec)
        for (_, _), group in sorted(by_subject_class.items()):
            n = len(group)
            n_tr = int(np.floor(cfg.split_fractions[0] * n))
            n_va = int(np.floor(cfg.split_fractions[1] * n))
            if n_tr < 1 or n_va < 1 or n - n_tr - n_va < 1:
                raise ConfigError(
                    f"{n} recordings per subject/class cannot fill all three splits "
                    f"at fractions {cfg.split_fractions}"
                )
            for rec in group[:n_tr]:
                epochs["train"].extend(preprocess(rec))
            for rec in group[n_tr: n_tr + n_va]:
                epochs["val"].extend(preprocess(rec))
            for rec in group[n_tr + n_va:]:
                epochs["test"].extend(preprocess(rec))
    out = {}
    for name, eps in epochs.items():
        if not eps:
            raise ContractError(f"split '{name}' ended up empty")
        out[name] = epochs_to_arrays(eps)
    if cfg.test_gain != 1.0:
        X, y, subj = out["test"]
        out["test"] = (X * cfg.test_gain, y, subj)
    return out


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

# nested config fields the stages below overwrite with the run seed and the row's weights
RUN_OWNED = {"pretrain": ("seed",), "finetune": ("seed", "weights"), "ttt": ("seed",)}


def ablation_rows(spec: TaskSpec) -> dict[str, tuple[float, float]]:
    """The grid's rows: row name -> stage-I pretext weights."""
    w1, w2 = spec.weights
    return {
        "no_ssl": (0.0, 0.0),
        spec.ssl_tasks[0]: (w1, 0.0),
        spec.ssl_tasks[1]: (0.0, w2),
        "both": (w1, w2),
    }


def pretrained_base(cfg: ExperimentConfig, spec: TaskSpec, seed: int, X_train: np.ndarray) -> tuple[Model, list[dict]]:
    """Freshly initialised model, masked-pretrained on ``X_train`` unless ``cfg.pretrain`` is None."""
    model = Model(ModelConfig(
        hidden=cfg.hidden, features=cfg.features, n_main=spec.n_main, ssl_dims=spec.ssl_dims,
        head_layers=cfg.head_layers, dropout=cfg.dropout, init_seed=seed,
    ))
    if cfg.pretrain is None:
        return model, []
    return masked_pretrain(model, X_train, replace(cfg.pretrain, seed=seed))


def finetune(cfg: ExperimentConfig, spec: TaskSpec, base: Model, weights: tuple[float, float],
             seed: int, splits: dict) -> tuple[Model, list[dict]]:
    """Stage-I fine-tuning of a clone of ``base``; the base model is left untouched."""
    Xtr, ytr, _ = splits["train"]
    Xva, yva, _ = splits["val"]
    ft = replace(cfg.finetune, weights=weights, seed=seed)
    return finetune_stage1(clone_model(base), spec, Xtr, ytr, Xva, yva, ft)


def adapt_and_evaluate(kind: str, model: Model, spec: TaskSpec, weights: tuple[float, float],
                       cfg: ExperimentConfig, seed: int,
                       X_test: np.ndarray, y_test: np.ndarray) -> tuple[EvalResult, list[dict]]:
    """Stage-II adaptation (``none``/``ttt_ssl``/``tent``) of the test split, then scoring.

    Adaptation uses the row's stage-I pretext ``weights``; a row without pretext
    weights falls back to the task's (adaptation without stage-I alignment).
    """
    adapt_spec = replace(spec, weights=weights) if any(weights) else spec
    probs, logs = run_adaptation(kind, model, adapt_spec, X_test, ttt=replace(cfg.ttt, seed=seed), tent=cfg.tent)
    scores = probs[:, 1] if spec.n_main == 2 else None
    return evaluate_predictions(y_test, probs.argmax(axis=1), spec.n_main, scores=scores), logs


def finetuned_rows(cfg: ExperimentConfig, seed: int,
                   rows) -> tuple[TaskSpec, dict, dict[str, tuple[tuple[float, float], Model, list[dict]]]]:
    """Stages 1-3 for one seed: the splits and pretrained base once, then each row fine-tuned once.

    Returns the task spec, the splits and ``{row: (weights, model, history)}`` in ``rows`` order.
    """
    spec = task_spec_for(cfg.task)
    splits = build_splits(cfg, seed)
    base, _ = pretrained_base(cfg, spec, seed, splits["train"][0])
    table = ablation_rows(spec)
    return spec, splits, {
        row: (table[row], *finetune(cfg, spec, base, table[row], seed, splits)) for row in dict.fromkeys(rows)
    }


def run_cells(cfg: ExperimentConfig, seed: int, cells) -> dict[tuple[str, str], tuple]:
    """Stages 1-4 for one seed over ``(row, column)`` cells.

    Returns ``{cell: (EvalResult, adaptation logs, fine-tuning history, stage-II wall time)}``.
    """
    spec, splits, models = finetuned_rows(cfg, seed, [row for row, _ in cells])
    X_test, y_test, _ = splits["test"]
    out = {}
    for row, column in cells:
        t0 = time.perf_counter()
        weights, model, history = models[row]
        result, logs = adapt_and_evaluate(column, model, spec, weights, cfg, seed, X_test, y_test)
        out[row, column] = (result, logs, history, time.perf_counter() - t0)
    return out


def _adapt_summary(records: list[dict]) -> dict:
    if not records:
        return {"records": 0}
    deltas = [r.get("param_delta", 0.0) for r in records]
    return {"records": len(records), "mean_param_delta": float(np.mean(deltas))}


def run_single(cfg: ExperimentConfig, seed: int) -> dict:
    """Run every configured strategy's cell for one seed; returns a plain-dict record."""
    cells = run_cells(cfg, seed, [STRATEGY_CELLS[s] for s in cfg.strategies])
    record = {"seed": seed, "strategies": {}}
    for strategy in cfg.strategies:
        result, logs, history, wall_time = cells[STRATEGY_CELLS[strategy]]
        record["strategies"][strategy] = {
            "metrics": result.as_dict(),
            "val_best": float(max(h["val_score"] for h in history)),
            "adaptation": _adapt_summary(logs),
            "wall_time": wall_time,
        }
    return record


# ---------------------------------------------------------------------------
# multi-seed experiment
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    kind: str
    task: str
    protocol: str
    config_hash: str
    seeds: list[int]
    columns: list[str]
    per_seed: list[dict]
    aggregates: dict
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def _run_jobs(fn, cfg: ExperimentConfig, seeds: list[int]) -> list:
    """``[fn(cfg, seed) for seed in seeds]``, in a process pool when TTALIGN_WORKERS > 1."""
    workers = _worker_count()
    if workers == 1 or len(seeds) <= 1:
        return [fn(cfg, seed) for seed in seeds]
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
        return list(pool.map(fn, [cfg] * len(seeds), seeds))


def _aggregate(results: list[dict]) -> dict:
    """Mean and population std per metric over ``EvalResult.as_dict()`` records."""
    metric_values: dict[str, list[float]] = {}
    for result in results:
        for metric, value in result["values"].items():
            metric_values.setdefault(metric, []).append(value)
    return {
        name: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        for name, vals in metric_values.items()
    }


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full strategy comparison over ``cfg.n_seeds`` seeds."""
    t0 = time.perf_counter()
    seeds = [cfg.base_seed + s for s in range(cfg.n_seeds)]
    per_seed = _run_jobs(run_single, cfg, seeds)
    aggregates = {
        strategy: _aggregate([rec["strategies"][strategy]["metrics"] for rec in per_seed])
        for strategy in cfg.strategies
    }
    return RunReport(
        kind="experiment",
        task=cfg.task,
        protocol=cfg.protocol,
        config_hash=config_hash(cfg),
        seeds=seeds,
        per_seed=per_seed,
        aggregates=aggregates,
        wall_time=time.perf_counter() - t0,
        columns=list(cfg.strategies),
    )


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

def _ablation_job(cfg: ExperimentConfig, seed: int) -> list[dict]:
    """Every cell of the grid for one seed; one record per row."""
    rows = ablation_rows(task_spec_for(cfg.task))
    cells = run_cells(cfg, seed, [(row, column) for row in rows for column in ADAPT_METHODS])
    return [
        {"row": row, "seed": seed, "cells": {column: cells[row, column][0].as_dict() for column in ADAPT_METHODS}}
        for row in rows
    ]


def run_ablation(cfg: ExperimentConfig) -> RunReport:
    """Pretext-weight masks x adaptation strategies; one job per seed runs every row."""
    t0 = time.perf_counter()
    seeds = [cfg.base_seed + s for s in range(cfg.n_seeds)]
    # one tuple per row, holding that row's record from every seed
    by_row = list(zip(*_run_jobs(_ablation_job, cfg, seeds)))
    # row-major: every seed of the first row, then every seed of the next
    per_seed = [record for records in by_row for record in records]
    aggregates = {
        records[0]["row"]: {
            column: _aggregate([record["cells"][column] for record in records])
            for column in ADAPT_METHODS
        }
        for records in by_row
    }
    return RunReport(
        kind="ablation",
        task=cfg.task,
        protocol=cfg.protocol,
        config_hash=config_hash(cfg),
        seeds=seeds,
        per_seed=per_seed,
        aggregates=aggregates,
        wall_time=time.perf_counter() - t0,
        columns=list(ADAPT_METHODS),
    )


# ---------------------------------------------------------------------------
# report layout and emission
# ---------------------------------------------------------------------------

def report_cells(data: dict):
    """Yield ``(label, seed, {metric: value})`` for every per-seed result of a report dict.

    Labels are strategies (experiment) or ``row/column`` (ablation); the order is
    the CSV's: strategy-major for experiments, record order for ablations.
    """
    if data["kind"] == "experiment":
        for strategy in data["columns"]:
            for rec in data["per_seed"]:
                yield strategy, rec["seed"], rec["strategies"][strategy]["metrics"]["values"]
    else:
        for rec in data["per_seed"]:
            for column in data["columns"]:
                yield f"{rec['row']}/{column}", rec["seed"], rec["cells"][column]["values"]


def report_aggregates(data: dict) -> dict[str, dict]:
    """A report dict's aggregates as ``{label: {metric: {"mean", "std"}}}``; labels as in :func:`report_cells`."""
    if data["kind"] == "experiment":
        return data["aggregates"]
    return {f"{row}/{column}": metrics
            for row, columns in data["aggregates"].items() for column, metrics in columns.items()}


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the report deterministically as CSV and JSON; returns ``[csv_path, json_path]``.

    CSV rows are ``strategy,seed,metric,value`` (ablation: ``row/column`` as the
    strategy key) with 17-significant-digit decimal values, followed by mean/std
    aggregate rows keyed ``mean``/``std`` in the seed column.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = report.to_dict()
    lines = ["strategy,seed,metric,value"]
    for label, seed, values in report_cells(data):
        lines.extend(f"{label},{seed},{metric},{_fmt(value)}" for metric, value in values.items())
    for label, metrics in report_aggregates(data).items():
        for metric, stats in metrics.items():
            lines.append(f"{label},mean,{metric},{_fmt(stats['mean'])}")
            lines.append(f"{label},std,{metric},{_fmt(stats['std'])}")
    csv_path = out_dir / f"{report.kind}_{report.task}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out_dir / f"{report.kind}_{report.task}.json"
    json_path.write_text(json.dumps(data, indent=2) + "\n")
    return [csv_path, json_path]
