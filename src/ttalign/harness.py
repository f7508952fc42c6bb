"""Experiment orchestration: the staged pipeline, the strategy/ablation grid, and
deterministic report emission.

Every run is a set of ``(row, column)`` cells of one grid, and runs the same stages:

1. :func:`build_splits` — generate, split and preprocess one seed's dataset;
2. :func:`pretrained_base` — initialise the model and masked-pretrain it;
3. :func:`finetune` — stage-I fine-tuning of a clone with one row's pretext weights
   (:func:`ablation_rows`: none, either pretext task alone, or both);
4. :func:`adapt_and_evaluate` — one column's stage-II method (``ADAPT_METHODS``) on
   the test split, then scoring.

:func:`finetuned_rows` runs stages 1-3 for one seed, each row fine-tuned once, and
:func:`run_cells` adds stage 4. A compared *strategy* is one cell (``STRATEGY_CELLS``):
``supervised_only`` is ``no_ssl``/``none``; ``stage1_ssl``, ``ttt_ssl`` and ``tent``
are the ``both`` row (the task's pretext weights) under ``none``, per-sample
pretext adaptation and batch entropy minimisation.

Every report is a set of labelled cells: :func:`run_experiment` labels each
strategy's cell by the strategy, :func:`run_ablation` labels every cell of the grid
``row/column``. One job per seed (:func:`run_single`) records each label's cell,
and the aggregates are ``{label: {metric: {"mean", "std"}}}`` in ``columns`` order.
:func:`report_cells` reads a report's per-seed layout. Every ``(config, seed)`` job
is independent: :func:`run_jobs` runs a list of them, in a process pool of
TTALIGN_WORKERS processes (default 1 = in-process).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .adapt import ADAPT_METHODS, TentConfig, TttConfig, run_adaptation
from .errors import ConfigError, check_seed
from .metrics import EvalResult, evaluate_predictions
from .nn import Model, ModelConfig, clone_model
from .pretext import TaskSpec, task_spec_for
from .signals import EPOCH_SAMPLES, N_CLASSES, NATIVE_RATE, TARGET_RATE, TASKS, ShiftSpec, generate_dataset, preprocess
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
        for key, kind in _SECTIONS.items():
            if not isinstance(getattr(self, key), kind):
                raise ConfigError(f"config section '{key}' must be {kind}, got {getattr(self, key)!r}")
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
        if not 0 < self.test_gain <= sys.float_info.max:
            raise ConfigError(f"test_gain must be positive and finite, got {self.test_gain}")
        if self.trials_per_subject < 1:
            raise ConfigError("trials_per_subject must be >= 1")
        if not EPOCH_SAMPLES / TARGET_RATE <= self.duration <= sys.float_info.max:
            raise ConfigError(
                f"duration must be finite and cover one epoch ({EPOCH_SAMPLES / TARGET_RATE:g} s), got {self.duration}")
        # every model-shape rule, before any data is generated
        ModelConfig(hidden=self.hidden, features=self.features, head_layers=self.head_layers, dropout=self.dropout)
        if self.pretrain is not None and EPOCH_SAMPLES % self.pretrain.patch:
            raise ConfigError(f"pretrain patch {self.pretrain.patch} does not divide the {EPOCH_SAMPLES}-sample epoch")
        check_seed(self.base_seed, "base_seed")
        if self.finetune.monitor == "auroc" and N_CLASSES[self.task] != 2:
            raise ConfigError(f"monitor 'auroc' needs a binary task; {self.task} has {N_CLASSES[self.task]} classes")
        if self.protocol == "cross_subject":
            groups = [set(self.train_subjects), set(self.val_subjects), set(self.test_subjects)]
            if any(not g for g in groups):
                raise ConfigError("cross_subject needs non-empty train/val/test subject sets")
            for key in ("train_subjects", "val_subjects", "test_subjects"):
                ids = getattr(self, key)
                if min(ids) < 1 or max(ids) > np.iinfo(np.int64).max:
                    raise ConfigError(f"{key}: subject ids must lie in [1, 2**63 - 1], got {list(ids)}")
            if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
                raise ConfigError("cross_subject train/val/test subject sets must be disjoint")
        else:
            if self.n_subjects < 1:
                raise ConfigError("within_subject needs n_subjects >= 1")
            fr = self.split_fractions
            if len(fr) != 3 or not all(0 < f < 1 for f in fr) or not abs(sum(fr) - 1.0) <= 1e-9:
                raise ConfigError(f"split_fractions must be 3 positive numbers summing to 1, got {fr}")


# the nested sections: field -> its declared config class (``PretrainConfig | None`` for pretrain)
_SECTIONS = {key: hint for key, hint in get_type_hints(ExperimentConfig).items()
             if any(map(is_dataclass, (hint, *get_args(hint))))}

# what each task's preset changes in ExperimentConfig's defaults, which are syn_mi's
PRESETS = {
    "syn_mi": {},
    "syn_stress": dict(
        train_subjects=(1, 2, 3, 4, 5, 6, 7, 8), val_subjects=(9, 10), test_subjects=(11, 12),
        trials_per_subject=16,
    ),
    "syn_speech": dict(protocol="within_subject", trials_per_subject=30),
}
PRESET_FINETUNE = FinetuneConfig(epochs=8, batch_size=32, lr=1e-3)  # every preset's


def preset_experiment(task: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults per task: the task's ``PRESETS`` entry and ``PRESET_FINETUNE``, then ``overrides``."""
    if task not in TASKS:  # before the lookup: a task that is no string is a config error too
        raise ConfigError(f"unknown task '{task}' (expected one of {TASKS})")
    return ExperimentConfig(**{"task": task, "finetune": PRESET_FINETUNE, **PRESETS[task], **overrides})


def config_hash(cfg: ExperimentConfig) -> str:
    """Deterministic digest of every config field (nested dataclasses included)."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------

def build_splits(cfg: ExperimentConfig, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Generate, split and preprocess one seed's dataset.

    A split is a list of row indices into the generated trials, and every epoch of
    a trial lands in its trial's split. Cross-subject: each subject's rows go to
    its split. Within-subject: each sorted ``(subject, label)`` group of rows is cut
    at ``split_fractions``, so every subject feeds all three splits. The test split
    is multiplied by ``test_gain`` afterwards (covariate-shift knob).
    """
    cross = cfg.protocol == "cross_subject"
    if cross:
        subjects = sorted({*cfg.train_subjects, *cfg.val_subjects, *cfg.test_subjects})
    else:
        subjects = range(1, cfg.n_subjects + 1)
    X, y, subj = generate_dataset(cfg.task, subjects, cfg.trials_per_subject, seed, cfg.shift, cfg.duration)
    rows = {"train": [], "val": [], "test": []}
    if cross:
        rows = {name: np.flatnonzero(np.isin(subj, getattr(cfg, f"{name}_subjects"))) for name in rows}
    else:
        for s, label in sorted(set(zip(subj.tolist(), y.tolist()))):
            group = np.flatnonzero((subj == s) & (y == label)).tolist()
            n = len(group)
            n_tr, n_va = (int(np.floor(f * n)) for f in cfg.split_fractions[:2])
            if n_tr < 1 or n_va < 1 or n - n_tr - n_va < 1:
                raise ConfigError(f"{n} trials per subject/class cannot fill all three splits "
                                  f"at fractions {cfg.split_fractions}")
            rows["train"] += group[:n_tr]
            rows["val"] += group[n_tr: n_tr + n_va]
            rows["test"] += group[n_tr + n_va:]
    out = {name: preprocess(X, y, subj, NATIVE_RATE[cfg.task], split) for name, split in rows.items()}
    if cfg.test_gain != 1.0:
        out["test"][0][...] *= cfg.test_gain  # in place: the epochs are this call's own
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


def run_single(cfg: ExperimentConfig, seed: int, labels: dict[str, tuple[str, str]] | None = None) -> dict:
    """Run labelled ``(row, column)`` cells for one seed; returns a plain-dict record.

    ``labels`` maps each label to its cell; by default the configured strategies'
    cells (``STRATEGY_CELLS``). The record is ``{"seed", "strategies": {label: cell
    record}}``, each cell record holding ``metrics``, ``val_best``, ``adaptation``
    and ``wall_time`` (stage II only).
    """
    if labels is None:
        labels = {strategy: STRATEGY_CELLS[strategy] for strategy in cfg.strategies}
    cells = run_cells(cfg, seed, list(labels.values()))
    record = {"seed": seed, "strategies": {}}
    for label, cell in labels.items():
        result, logs, history, wall_time = cells[cell]
        record["strategies"][label] = {
            "metrics": result.as_dict(),
            "val_best": float(max(h["val_score"] for h in history)),
            "adaptation": _adapt_summary(logs),
            "wall_time": wall_time,
        }
    return record


# ---------------------------------------------------------------------------
# multi-seed reports
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


def _worker_count(default: int) -> int:
    raw = os.environ.get(WORKERS_ENV, str(default))
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def run_jobs(fn, jobs: list[tuple[ExperimentConfig, int]], default_workers: int = 1) -> list:
    """``[fn(cfg, seed) for cfg, seed in jobs]``, in job order.

    The jobs run in a process pool of TTALIGN_WORKERS processes (else ``default_workers``),
    at most one per job; with one worker, in this process.
    """
    workers = min(_worker_count(default_workers), len(jobs))
    if workers <= 1:
        return [fn(cfg, seed) for cfg, seed in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


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


def _run_report(kind: str, cfg: ExperimentConfig, labels: dict[str, tuple[str, str]]) -> RunReport:
    """The labelled cells over ``cfg.n_seeds`` seeds, one :func:`run_single` job per seed."""
    t0 = time.perf_counter()
    seeds = [cfg.base_seed + s for s in range(cfg.n_seeds)]
    per_seed = run_jobs(partial(run_single, labels=labels), [(cfg, seed) for seed in seeds])
    aggregates = {
        label: _aggregate([rec["strategies"][label]["metrics"] for rec in per_seed]) for label in labels
    }
    return RunReport(
        kind=kind,
        task=cfg.task,
        protocol=cfg.protocol,
        config_hash=config_hash(cfg),
        seeds=seeds,
        per_seed=per_seed,
        aggregates=aggregates,
        wall_time=time.perf_counter() - t0,
        columns=list(labels),
    )


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full strategy comparison over ``cfg.n_seeds`` seeds; labels are the strategies."""
    return _run_report("experiment", cfg, {strategy: STRATEGY_CELLS[strategy] for strategy in cfg.strategies})


def run_ablation(cfg: ExperimentConfig) -> RunReport:
    """Pretext-weight rows x adaptation columns over ``cfg.n_seeds`` seeds; labels are ``row/column``."""
    rows = ablation_rows(task_spec_for(cfg.task))
    return _run_report("ablation", cfg, {f"{row}/{column}": (row, column) for row in rows for column in ADAPT_METHODS})


# ---------------------------------------------------------------------------
# report layout and emission
# ---------------------------------------------------------------------------

def report_cells(data: dict):
    """Yield ``(label, seed, {metric: value})`` for every per-seed cell of a report dict.

    The order is the CSV's: label-major, each label's seeds in ``per_seed`` order.
    """
    for label in data["columns"]:
        for rec in data["per_seed"]:
            yield label, rec["seed"], rec["strategies"][label]["metrics"]["values"]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the report deterministically as CSV and JSON; returns ``[csv_path, json_path]``.

    CSV rows are ``strategy,seed,metric,value``, the label in the strategy column,
    with 17-significant-digit decimal values in :func:`report_cells` order, followed
    by mean/std aggregate rows keyed ``mean``/``std`` in the seed column.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = report.to_dict()
    lines = ["strategy,seed,metric,value"]
    for label, seed, values in report_cells(data):
        lines.extend(f"{label},{seed},{metric},{_fmt(value)}" for metric, value in values.items())
    for label, metrics in data["aggregates"].items():
        for metric, stats in metrics.items():
            lines.append(f"{label},mean,{metric},{_fmt(stats['mean'])}")
            lines.append(f"{label},std,{metric},{_fmt(stats['std'])}")
    csv_path = out_dir / f"{report.kind}_{report.task}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out_dir / f"{report.kind}_{report.task}.json"
    json_path.write_text(json.dumps(data, indent=2) + "\n")
    return [csv_path, json_path]
