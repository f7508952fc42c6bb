"""Command-line front end.

Subcommands cover the full pipeline — ``generate`` (datasets), ``pretrain``,
``finetune``, ``adapt`` (test-time strategies), ``evaluate`` (multi-seed
strategy comparison), ``ablate`` (pretext-weight x adaptation grid),
``gradcheck`` (finite-difference audit), and ``report`` (render + verify a
persisted report).

Every command is deterministic given ``--config`` and ``--seed``: repeated
invocations reproduce all emitted metric values bit for bit.  Failures exit
nonzero after printing a single machine-readable JSON error record to stderr:
2 for a config error, 3 for a contract violation, 4 for an I/O error and 5 when
the run does not fit in memory. Commands run with numpy's overflow and
invalid-value warnings off: a run that goes non-finite fails its own finite
check, and stderr keeps the one record.
The ``TTALIGN_WORKERS`` environment variable sets the worker-pool size for
multi-seed commands.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .adapt import ADAPT_METHODS
from .errors import ConfigError, ContractError, ShapeError
from .gradcheck import TOLERANCE, max_relative_error, run_gradcheck
from .harness import (
    RUN_OWNED,
    STRATEGIES,
    STRATEGY_CELLS,
    ExperimentConfig,
    build_splits,
    config_hash,
    emit_report,
    finetuned_rows,
    preset_experiment,
    pretrained_base,
    report_cells,
    run_ablation,
    run_cells,
    run_experiment,
)
from .nn import save_checkpoint
from .pretext import task_spec_for
from .signals import TASKS, save_split

_HINTS = get_type_hints(ExperimentConfig)
# the config's nested sections: field -> its dataclass (``X`` or ``X | None``)
_NESTED = {key: cls for key, hint in _HINTS.items() for cls in (hint, *get_args(hint)) if is_dataclass(cls)}
_FINETUNE_STRATEGIES = ("supervised_only", "stage1_ssl")


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(v) for v in obj)
    return obj


def _fits(value, hint) -> bool:
    """Whether a loaded JSON value (lists as tuples) has the type a config field declares."""
    args = get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, a) for a in args)
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value) if isinstance(value, tuple) else ()
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if hint is float:  # an int fits too; the field's range check refuses one that no float holds
        return isinstance(value, float) or _fits(value, int)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _typed(cls, values: dict, prefix: str = "") -> dict:
    """``values`` with lists as tuples; ConfigError for a value of the wrong type."""
    hints = get_type_hints(cls)
    out = {key: _tuplify(value) for key, value in values.items()}
    for key, value in out.items():
        if key in hints and not _fits(value, hints[key]):
            want = str(hints[key]).removeprefix("<class '").removesuffix("'>")
            raise ConfigError(f"config key '{prefix}{key}' must be {want}, got {json.dumps(values[key])}")
    return out


def load_config_file(path: Path) -> dict:
    def non_finite(constant: str):
        raise ConfigError(f"config file {path} holds {constant}; numbers must be finite")

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=non_finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def build_config(args) -> ExperimentConfig:
    """Preset for the task, then file overrides, then flag overrides.

    A nested section given as an object is merged field-wise into the preset's;
    any other value, null included, must fit the field's type hint.
    """
    file_cfg = load_config_file(args.config) if args.config else {}
    task = args.task or file_cfg.get("task", "syn_mi")
    base = preset_experiment(task)
    overrides = {}
    for key, value in file_cfg.items():
        if key == "task":
            continue
        if key not in _HINTS:
            raise ConfigError(f"unknown config key '{key}'")
        if key in _NESTED and isinstance(value, dict):
            for owned in RUN_OWNED.get(key, ()):
                if owned in value:
                    raise ConfigError(f"config key '{key}.{owned}' is set by the run, not the config file")
            merged = {**asdict(getattr(base, key)), **_typed(_NESTED[key], value, f"{key}.")}
            try:
                overrides[key] = _NESTED[key](**merged)
            except TypeError as exc:
                raise ConfigError(f"bad fields for '{key}': {exc}")
        else:
            overrides.update(_typed(ExperimentConfig, {key: value}))
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    return preset_experiment(task, **overrides)


def _manifest(args, cfg: ExperimentConfig, **fields) -> dict:
    """A stage command's record: the header every one shares, then ``fields``."""
    return {"command": args.command, "task": cfg.task, "seed": cfg.base_seed, "config_hash": config_hash(cfg),
            **fields}


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else Path("runs") / args.command
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> None:
    cfg = build_config(args)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, protocol=cfg.protocol, splits={})
    meta = {key: manifest[key] for key in ("task", "seed", "config_hash")}
    for name, (X, y, subj) in build_splits(cfg, cfg.base_seed).items():
        save_split(out, name, X, y, subj, {**meta, "split": name})
        counts = {int(c): int(n) for c, n in zip(*np.unique(y, return_counts=True))}
        manifest["splits"][name] = {"epochs": int(X.shape[0]), "class_counts": counts}
    _write_json(out / "manifest.json", manifest)
    _emit(manifest)


def cmd_pretrain(args) -> None:
    cfg = build_config(args)
    if cfg.pretrain is None:
        raise ConfigError("pretraining is disabled in this config ('pretrain': null)")
    out = _out_dir(args)
    splits = build_splits(cfg, cfg.base_seed)
    model, history = pretrained_base(cfg, task_spec_for(cfg.task), cfg.base_seed, splits["train"][0])
    save_checkpoint(model, out / "pretrained.ckpt")
    _write_json(out / "pretrain_history.json", history)
    _emit(_manifest(args, cfg, epochs=len(history), final_recon_loss=history[-1]["recon_loss"],
                    checkpoint=str(out / "pretrained.ckpt")))


def cmd_finetune(args) -> None:
    cfg = build_config(args)
    strategy = args.strategy or "stage1_ssl"
    out = _out_dir(args)
    row = STRATEGY_CELLS[strategy][0]
    _, _, models = finetuned_rows(cfg, cfg.base_seed, [row])
    _, model, history = models[row]
    ckpt = out / f"checkpoint_{strategy}.ckpt"
    save_checkpoint(model, ckpt)
    _write_json(out / f"finetune_history_{strategy}.json", history)
    _emit(_manifest(args, cfg, strategy=strategy, val_best=float(max(h["val_score"] for h in history)),
                    monitor=history[-1]["monitor"], checkpoint=str(ckpt)))


def cmd_adapt(args) -> None:
    cfg = build_config(args)
    strategy = args.strategy or "none"
    out = _out_dir(args)
    result, records, _, _ = run_cells(cfg, cfg.base_seed, [("both", strategy)])["both", strategy]
    _write_json(out / f"metrics_{strategy}.json", result.as_dict())
    _write_json(out / f"adaptation_log_{strategy}.json", records)
    _emit(_manifest(args, cfg, strategy=strategy, metrics=result.as_dict()["values"],
                    adaptation_records=len(records)))


def cmd_run(args) -> None:
    """``evaluate`` (the strategies' cells) or ``ablate`` (the whole grid) over every seed, then the report."""
    cfg = build_config(args)
    out = _out_dir(args)
    if args.command == "ablate":
        report = run_ablation(cfg)
    else:
        report = run_experiment(cfg if args.strategy is None else replace(cfg, strategies=(args.strategy,)))
    paths = emit_report(report, out)
    print(f"{report.kind} {report.task}  config={report.config_hash}  seeds={report.seeds}")
    print("\n".join(_table_lines(report.to_dict())))
    for path in paths:
        print(f"wrote {path}")


def cmd_gradcheck(args) -> None:
    """Max elementwise relative error per tensor (``autodiff.grad_check``); fails at ``TOLERANCE``."""
    out = _out_dir(args)
    start = time.perf_counter()
    results = run_gradcheck()
    elapsed = time.perf_counter() - start
    worst = max_relative_error(results)
    payload = {
        "command": "gradcheck",
        "tolerance": TOLERANCE,
        "max_relative_error": worst,
        "seconds": elapsed,
        "per_tensor": results,
    }
    _write_json(out / "gradcheck.json", payload)
    _emit({k: v for k, v in payload.items() if k != "per_tensor"})
    if worst >= TOLERANCE:
        raise ContractError(
            f"gradient check failed: max relative error {worst:.3e} >= {TOLERANCE:.0e}"
        )


def cmd_report(args) -> None:
    # without --out, where evaluate and ablate write by default
    dirs = [Path(args.out)] if args.out is not None else [Path("runs") / "evaluate", Path("runs") / "ablate"]
    candidates = [p for d in dirs for kind in ("experiment", "ablation") for p in sorted(d.glob(f"{kind}_*.json"))]
    if args.task:
        candidates = [p for p in candidates if p.stem.endswith(args.task)]
    where = " or ".join(map(str, dirs))
    if not candidates:
        raise ConfigError(f"no report JSON found under {where}")
    if len(candidates) > 1:
        names = ", ".join(map(str, candidates))
        raise ConfigError(f"multiple reports under {where} ({names}); pick one with --task or --out")
    path = candidates[0]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        _verify_aggregates(data)
        lines = [f"report {path}  kind={data['kind']}  task={data['task']}  "
                 f"config={data['config_hash']}  seeds={data['seeds']}", *_table_lines(data)]
    except ContractError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ContractError(f"{path}: not a readable report ({type(exc).__name__}: {exc})") from None
    print("\n".join(lines))
    print("aggregates verified against per-seed rows (tolerance 1e-12)")


# ---------------------------------------------------------------------------
# report rendering and verification
# ---------------------------------------------------------------------------

def _verify_aggregates(data: dict) -> None:
    """Recompute every aggregate from its per-seed rows with numpy, independently of ``harness``;
    refuse a non-finite row or aggregate, which no run writes."""
    rows: dict[str, list[dict]] = {}
    for label, seed, values in report_cells(data):
        if not np.isfinite(list(values.values())).all():
            raise ContractError(f"per-seed row {label}/{seed} holds a non-finite value")
        rows.setdefault(label, []).append(values)
    for label, metrics in data["aggregates"].items():
        for metric, stats in metrics.items():
            vals = [values[metric] for values in rows.get(label, [])]
            if not vals:
                raise ContractError(f"aggregate for {label}/{metric} has no per-seed rows")
            if not np.isfinite([stats["mean"], stats["std"]]).all():
                raise ContractError(f"aggregate for {label}/{metric} holds a non-finite value")
            if not (abs(stats["mean"] - np.mean(vals)) <= 1e-12 and abs(stats["std"] - np.std(vals)) <= 1e-12):
                raise ContractError(
                    f"aggregate for {label}/{metric} does not match its per-seed rows"
                )


def _table_lines(data: dict) -> list[str]:
    rows = [(label, metric, stats) for label, metrics in data["aggregates"].items()
            for metric, stats in metrics.items()]
    if not rows:
        return ["(empty report)"]
    width = max(len(label) for label, _, _ in rows)
    mwidth = max(len(metric) for _, metric, _ in rows)
    return [f"{label:<{width}}  {metric:<{mwidth}}  {stats['mean']:.4f} +/- {stats['std']:.4f}"
            for label, metric, stats in rows]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "adapt": cmd_adapt,
    "evaluate": cmd_run,
    "ablate": cmd_run,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttalign",
        description="Two-stage alignment experiments on synthetic multichannel signals.",
        epilog="Set TTALIGN_WORKERS to control the worker-pool size for multi-seed runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, strategy_choices: tuple[str, ...] | None = None):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON file with experiment-config overrides")
        sp.add_argument("--task", choices=TASKS, default=None,
                        help="task preset (default: config file's task, else syn_mi)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed (single-run commands) or base seed (multi-seed commands)")
        sp.add_argument("--out", type=Path, default=None,
                        help="output directory (default: runs/<command>)")
        if strategy_choices is not None:
            sp.add_argument("--strategy", choices=strategy_choices, default=None)
        return sp

    add("generate", "generate and save the train/val/test splits")
    add("pretrain", "masked-reconstruction pretraining of the backbone")
    add("finetune", "stage-1 fine-tuning (supervised or with pretext heads)",
        _FINETUNE_STRATEGIES)
    add("adapt", "fine-tune, then apply a test-time strategy to the test split",
        ADAPT_METHODS)
    add("evaluate", "multi-seed strategy comparison; emits CSV + JSON reports", STRATEGIES)
    add("ablate", "pretext-weight x adaptation grid; emits a matrix report")
    add("gradcheck", "finite-difference audit of every gradient path")
    add("report", "render a persisted report and verify its aggregates "
                  "(default: the one report under runs/evaluate or runs/ablate)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a run that goes non-finite fails its own finite check with a typed
        # error; numpy's warnings would put lines ahead of the one-line record
        with np.errstate(over="ignore", invalid="ignore"):
            _HANDLERS[args.command](args)
        return 0
    except ConfigError as exc:
        _error_record(args.command, exc)
        return 2
    except (ContractError, ShapeError) as exc:
        _error_record(args.command, exc)
        return 3
    except OSError as exc:
        _error_record(args.command, exc)
        return 4
    except MemoryError as exc:
        _error_record(args.command, exc)
        return 5


def _error_record(command: str, exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "command": command}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
