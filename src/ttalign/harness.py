"""Experiment orchestration: the staged pipeline, strategy comparisons, the
pretext ablation grid, and deterministic report emission.

Every run composes the same stages, and the CLI calls them one by one:

1. :func:`build_splits` — generate, preprocess and split one seed's dataset;
2. :func:`pretrained_base` — initialise the model and masked-pretrain it;
3. :func:`finetune` — stage-I fine-tuning of a clone with given pretext weights;
4. :func:`adapt_and_evaluate` — stage-II adaptation of the test split, then scoring.

A *strategy* names one path through stages 3 and 4 (``STRATEGY_STAGES``):

* ``supervised_only`` — stage-I fine-tuning with both pretext weights at zero.
* ``stage1_ssl``      — stage-I fine-tuning with the task's pretext weights.
* ``ttt_ssl``         — stage1_ssl, then per-sample pretext adaptation at test time.
* ``tent``            — stage1_ssl, then batch entropy minimisation at test time.

The three pretext strategies share one fine-tuned model per seed; the supervised
baseline is trained separately. Seeds are independent jobs; the TTALIGN_WORKERS
environment variable bounds the process pool (default 1 = in-process).
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
from .signals import TASKS, ShiftSpec, epochs_to_arrays, generate_dataset, preprocess
from .training import FinetuneConfig, PretrainConfig, finetune_stage1, masked_pretrain

# strategy -> (stage-I fine-tuning uses the task's pretext weights, stage-II adaptation kind)
STRATEGY_STAGES = {
    "supervised_only": (False, "none"),
    "stage1_ssl": (True, "none"),
    "ttt_ssl": (True, "ttt_ssl"),
    "tent": (True, "tent"),
}
STRATEGIES = tuple(STRATEGY_STAGES)
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
        if self.protocol == "cross_subject":
            groups = [set(self.train_subjects), set(self.val_subjects), set(self.test_subjects)]
            if any(not g for g in groups):
                raise ConfigError("cross_subject needs non-empty train/val/test subject sets")
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

def strategy_weights(strategy: str, spec: TaskSpec) -> tuple[float, float]:
    """Stage-I pretext weights of a strategy: the task's, or zero for ``supervised_only``."""
    return spec.weights if STRATEGY_STAGES[strategy][0] else (0.0, 0.0)


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


def adapt_and_evaluate(kind: str, model: Model, spec: TaskSpec, cfg: ExperimentConfig, seed: int,
                       X_test: np.ndarray, y_test: np.ndarray,
                       adapt_spec: TaskSpec | None = None) -> tuple[EvalResult, list[dict]]:
    """Stage-II adaptation (``none``/``ttt_ssl``/``tent``) of the test split, then scoring.

    ``adapt_spec`` overrides the pretext weighting used while adapting; scoring
    always uses ``spec``.
    """
    probs, logs = run_adaptation(
        kind, model, adapt_spec if adapt_spec is not None else spec, X_test,
        ttt=replace(cfg.ttt, seed=seed), tent=cfg.tent,
    )
    scores = probs[:, 1] if spec.n_main == 2 else None
    return evaluate_predictions(y_test, probs.argmax(axis=1), spec.n_main, scores=scores), logs


def _adapt_summary(records: list[dict]) -> dict:
    if not records:
        return {"records": 0}
    deltas = [r.get("param_delta", 0.0) for r in records]
    return {"records": len(records), "mean_param_delta": float(np.mean(deltas))}


def run_single(cfg: ExperimentConfig, seed: int) -> dict:
    """Run every configured strategy for one seed; returns a plain-dict record.

    One model is fine-tuned per distinct weight pair, in ``STRATEGY_STAGES``
    order (the supervised baseline first); strategies sharing weights share it.
    """
    spec = task_spec_for(cfg.task)
    splits = build_splits(cfg, seed)
    X_test, y_test, _ = splits["test"]
    base, _ = pretrained_base(cfg, spec, seed, splits["train"][0])
    finetuned = {}
    for strategy in STRATEGY_STAGES:
        weights = strategy_weights(strategy, spec)
        if strategy in cfg.strategies and weights not in finetuned:
            finetuned[weights] = finetune(cfg, spec, base, weights, seed, splits)

    record = {"seed": seed, "strategies": {}}
    for strategy in cfg.strategies:
        t0 = time.perf_counter()
        model, hist = finetuned[strategy_weights(strategy, spec)]
        result, logs = adapt_and_evaluate(STRATEGY_STAGES[strategy][1], model, spec, cfg, seed, X_test, y_test)
        record["strategies"][strategy] = {
            "metrics": result.as_dict(),
            "val_best": float(max(h["val_score"] for h in hist)),
            "adaptation": _adapt_summary(logs),
            "wall_time": time.perf_counter() - t0,
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
    per_seed: list[dict]
    aggregates: dict
    wall_time: float
    columns: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task": self.task,
            "protocol": self.protocol,
            "config_hash": self.config_hash,
            "seeds": self.seeds,
            "columns": self.columns,
            "per_seed": self.per_seed,
            "aggregates": self.aggregates,
            "wall_time": self.wall_time,
        }


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def _run_jobs(fn, payloads: list) -> list:
    workers = _worker_count()
    if workers == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


def _experiment_job(payload: tuple[ExperimentConfig, int]) -> dict:
    cfg, seed = payload
    return run_single(cfg, seed)


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
    per_seed = _run_jobs(_experiment_job, [(cfg, s) for s in seeds])
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

def ablation_rows(spec: TaskSpec) -> list[tuple[str, tuple[float, float]]]:
    w1, w2 = spec.weights
    return [
        ("no_ssl", (0.0, 0.0)),
        (spec.ssl_tasks[0], (w1, 0.0)),
        (spec.ssl_tasks[1], (0.0, w2)),
        ("both", (w1, w2)),
    ]


def _ablation_job(payload: tuple[ExperimentConfig, int]) -> list[dict]:
    """Every ablation row of one seed, sharing the seed's splits and pretrained base."""
    cfg, seed = payload
    spec = task_spec_for(cfg.task)
    splits = build_splits(cfg, seed)
    X_test, y_test, _ = splits["test"]
    base, _ = pretrained_base(cfg, spec, seed, splits["train"][0])
    records = []
    for row, mask in ablation_rows(spec):
        model, _ = finetune(cfg, spec, base, mask, seed, splits)
        # adaptation uses the row's active pretext tasks; the no-SSL row falls back to
        # the task's default weighting (adaptation without stage-I alignment)
        adapt_spec = task_spec_for(cfg.task, weights=mask if any(mask) else None)
        cells = {
            column: adapt_and_evaluate(column, model, spec, cfg, seed, X_test, y_test, adapt_spec)[0].as_dict()
            for column in ADAPT_METHODS
        }
        records.append({"row": row, "seed": seed, "cells": cells})
    return records


def run_ablation(cfg: ExperimentConfig) -> RunReport:
    """Pretext-weight masks x adaptation strategies; one job per seed runs every row."""
    spec = task_spec_for(cfg.task)
    if len(spec.ssl_tasks) != 2:
        raise ConfigError("the ablation grid expects exactly two pretext tasks")
    t0 = time.perf_counter()
    seeds = [cfg.base_seed + s for s in range(cfg.n_seeds)]
    by_seed = _run_jobs(_ablation_job, [(cfg, seed) for seed in seeds])
    rows = [row for row, _ in ablation_rows(spec)]
    # row-major: every seed of the first row, then every seed of the next
    per_seed = [records[i] for i in range(len(rows)) for records in by_seed]
    aggregates = {
        row: {
            column: _aggregate([records[i]["cells"][column] for records in by_seed])
            for column in ADAPT_METHODS
        }
        for i, row in enumerate(rows)
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
# report emission
# ---------------------------------------------------------------------------

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
    lines = ["strategy,seed,metric,value"]
    if report.kind == "experiment":
        for strategy in report.columns:
            for rec in report.per_seed:
                for metric, value in rec["strategies"][strategy]["metrics"]["values"].items():
                    lines.append(f"{strategy},{rec['seed']},{metric},{_fmt(value)}")
        for strategy in report.columns:
            for metric, stats in report.aggregates.get(strategy, {}).items():
                lines.append(f"{strategy},mean,{metric},{_fmt(stats['mean'])}")
                lines.append(f"{strategy},std,{metric},{_fmt(stats['std'])}")
    else:
        for rec in report.per_seed:
            for column, cell in rec["cells"].items():
                for metric, value in cell["values"].items():
                    lines.append(f"{rec['row']}/{column},{rec['seed']},{metric},{_fmt(value)}")
        for row, columns in report.aggregates.items():
            for column, metrics in columns.items():
                for metric, stats in metrics.items():
                    lines.append(f"{row}/{column},mean,{metric},{_fmt(stats['mean'])}")
                    lines.append(f"{row}/{column},std,{metric},{_fmt(stats['std'])}")
    csv_path = out_dir / f"{report.kind}_{report.task}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out_dir / f"{report.kind}_{report.task}.json"
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return [csv_path, json_path]
