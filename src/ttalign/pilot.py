"""Pinned desk-scale configs for the three directional strategy checks.

Each check compares two strategies on the same seeded data and asks for a
directional gap:

* ``ssl_advantage`` — joint pretext fine-tuning (``stage1_ssl``) beats plain
  supervised fine-tuning on the cross-subject motor-imagery task.
* ``tent_advantage`` — entropy-minimization adaptation (``tent``) beats the
  frozen model when the test split carries an extra channel gain.
* ``ttt_transfer`` — per-sample test-time training moves balanced accuracy
  more on the two cross-subject tasks than on the within-subject speech task.

The configs live here, in one place (:func:`pilot_configs`), because two
consumers must agree on them bit for bit: ``scripts/pilot_directional.py``
(which freezes the observed deltas and margins into
``golden/directional_margins.json``) and the acceptance suite (which reruns them
and compares against the frozen file). Everything downstream of a config is
seeded, so a rerun that matches the config hashes must reproduce the recorded
deltas exactly. Each config's ``strategies`` are its check's baseline and
challenger, in that order.

:func:`run_pilot` runs every seed of every config as one ``harness.run_jobs`` list,
one worker per usable core unless ``TTALIGN_WORKERS`` sets the count.

The per-task test-time-training settings differ on purpose: the pretext
weights scale the adaptation gradient, so tasks with small weights need a
larger step to move at all — the same per-dataset tuning the adaptation
recipe calls for.
"""

from __future__ import annotations

import os
import time
from itertools import islice

from .adapt import TttConfig
from .harness import ExperimentConfig, config_hash, preset_experiment, run_jobs, run_single
from .training import FinetuneConfig

# Balanced-accuracy margins the two two-sided checks must clear (fractions,
# i.e. 0.02 == 2 points). The transfer check is direction-only.
MARGINS = {"ssl_advantage": 0.02, "tent_advantage": 0.02}

PILOT_SEEDS = 5

# Scarce-label regime where the auxiliary heads are the only regularizer:
# no dropout, wider trunk, long small-batch training; _SCARCE adds few trials.
_WIDE = dict(
    hidden=32,
    features=64,
    dropout=0.0,
    finetune=FinetuneConfig(epochs=120, batch_size=8, lr=1e-3),
)
_SCARCE = dict(_WIDE, trials_per_subject=12)

# ttt_transfer's per-task TTT learning rate and overrides
_TRANSFER = {
    "syn_mi": (1e-2, _WIDE),
    "syn_stress": (5e-2, _SCARCE),
    "syn_speech": (1e-2, dict(finetune=FinetuneConfig(epochs=60, batch_size=8, lr=1e-3))),
}


def ssl_advantage_config() -> ExperimentConfig:
    """Cross-subject motor imagery, scarce labels: stage1_ssl vs supervised."""
    return preset_experiment(
        "syn_mi",
        strategies=("supervised_only", "stage1_ssl"),
        n_seeds=PILOT_SEEDS,
        **_SCARCE,
    )


def tent_advantage_config() -> ExperimentConfig:
    """Preset-scale motor imagery with a 1.3x channel gain on the test split."""
    return preset_experiment(
        "syn_mi",
        strategies=("stage1_ssl", "tent"),
        n_seeds=PILOT_SEEDS,
        test_gain=1.3,
    )


def pilot_configs() -> dict[str, ExperimentConfig]:
    """The pinned configs by check name: ``ssl_advantage``, ``tent_advantage`` and,
    for the cross- vs within-subject transfer check, ``ttt_transfer/<task>``."""
    return {
        "ssl_advantage": ssl_advantage_config(),
        "tent_advantage": tent_advantage_config(),
        **{f"ttt_transfer/{task}": preset_experiment(
            task,
            strategies=("stage1_ssl", "ttt_ssl"),
            n_seeds=PILOT_SEEDS,
            ttt=TttConfig(lr=lr, steps=1),
            **overrides,
        ) for task, (lr, overrides) in _TRANSFER.items()},
    }


def pilot_config_hashes() -> dict[str, str]:
    return {name: config_hash(cfg) for name, cfg in pilot_configs().items()}


def _pair(records: list[dict], baseline: str, challenger: str) -> dict:
    base, chal = ([rec["strategies"][strategy]["metrics"]["values"]["balanced_accuracy"] for rec in records]
                  for strategy in (baseline, challenger))
    return {
        "baseline": baseline,
        "challenger": challenger,
        "baseline_per_seed": base,
        "challenger_per_seed": chal,
        "baseline_mean": sum(base) / len(base),
        "challenger_mean": sum(chal) / len(chal),
        "delta": sum(chal) / len(chal) - sum(base) / len(base),
    }


def run_pilot() -> dict:
    """Run all three checks and return the comparison payload.

    The payload's ``checks``/``config_hashes``/``margins`` entries are what
    the freeze script commits; ``wall_time`` is informational only.
    """
    t0 = time.perf_counter()
    configs = pilot_configs()
    jobs = [(cfg, cfg.base_seed + s) for cfg in configs.values() for s in range(cfg.n_seeds)]
    records = iter(run_jobs(run_single, jobs, default_workers=len(os.sched_getaffinity(0))))
    checks = {name: _pair(list(islice(records, cfg.n_seeds)), *cfg.strategies) for name, cfg in configs.items()}
    return {
        "seeds": PILOT_SEEDS,
        "margins": dict(MARGINS),
        "config_hashes": pilot_config_hashes(),
        "checks": {
            "ssl_advantage": checks.pop("ssl_advantage"),
            "tent_advantage": checks.pop("tent_advantage"),
            "ttt_transfer": {name.removeprefix("ttt_transfer/"): pair for name, pair in checks.items()},
        },
        "wall_time": time.perf_counter() - t0,
    }


def evaluate_pilot(payload: dict) -> dict[str, bool]:
    """Boolean verdict per check, from a :func:`run_pilot` payload."""
    checks = payload["checks"]
    margins = payload["margins"]
    transfer = checks["ttt_transfer"]
    within = transfer["syn_speech"]["delta"]
    return {
        "ssl_advantage": checks["ssl_advantage"]["delta"] >= margins["ssl_advantage"],
        "tent_advantage": checks["tent_advantage"]["delta"] >= margins["tent_advantage"],
        "ttt_transfer": (
            transfer["syn_mi"]["delta"] > within
            and transfer["syn_stress"]["delta"] > within
        ),
    }
