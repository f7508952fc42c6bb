#!/usr/bin/env python3
"""Fingerprint the bits of a small seeded pipeline, and compare them with a frozen file.

Usage, from the repository root:

    python3 scripts/digest.py            # compute, compare with golden/digests.json
    python3 scripts/digest.py --freeze   # also (re)write golden/digests.json

Each digest is a sha256 over the values, dtypes, shapes and C-contiguity of one
stage's outputs on micro configs:

- ``splits/...``: ``harness.build_splits`` of the three presets, and of the
  test-gain shift, at two seeds;
- ``rows/...``: ablation rows of each task fine-tuned from one pretrained
  base (``harness.finetuned_rows``), so every pretext view and grouped
  passes of G = 1, 2 and 3 groups: each row's parameter and buffer arenas
  and its history without ``wall_time``;
- ``cells/...``: the results and adaptation logs of ``harness.run_cells``;
- ``adapt/...``: the probabilities and logs of episodic ``ttt_ssl``, online
  ``ttt_ssl`` and ``tent`` on a stream of 24 test epochs (one TTT block, three
  Tent batches), from a freshly initialised model that no training has
  touched. The bits of a call split into several TTT blocks are held by
  ``tests/test_adapt.py::test_ttt_blocks_match_per_epoch_reference_bitwise``
  (2 x ``TTT_BLOCK`` + 3 = 67 epochs in three blocks of uneven size, against
  adapting one epoch at a time).

``golden/digests.json`` also holds the machine facts: numpy's version, the
OpenBLAS version and the kernel that OpenBLAS picked for this CPU. OpenBLAS
built with ``DYNAMIC_ARCH`` picks its kernels per CPU, so the digests hold for
one machine class; on other facts the comparison is not made. A change that
keeps every bit leaves the file as it is. A deliberate change in rounding
rewrites it with ``--freeze``, which prints every digest that moves, old -> new.
Exit status: 0 when every digest matches, 1 when one differs, 2 when the
machine facts differ. Only numpy and the standard library are used.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as the tests and the pilot run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from ttalign.adapt import TentConfig, TttConfig, run_adaptation  # noqa: E402
from ttalign.harness import build_splits, finetuned_rows, preset_experiment, run_cells  # noqa: E402
from ttalign.nn import Model, ModelConfig  # noqa: E402
from ttalign.pretext import task_spec_for  # noqa: E402
from ttalign.signals import TASKS  # noqa: E402
from ttalign.training import FinetuneConfig, PretrainConfig  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "digests.json"
SEEDS = (0, 1)
ROWS = ("no_ssl", "stopped_band", "both")  # grouped passes of G = 1, 2 and 3
CELLS = (("no_ssl", "none"), ("both", "none"), ("both", "ttt_ssl"), ("both", "tent"))


def micro(task: str, **overrides):
    """A preset shrunk until one seed's stages take a fraction of a second."""
    base = dict(
        trials_per_subject=25 if task == "syn_speech" else 6,
        hidden=8,
        features=16,
        n_seeds=1,
        finetune=FinetuneConfig(epochs=2, batch_size=8, lr=1e-3),
        pretrain=PretrainConfig(epochs=1),
    )
    return preset_experiment(task, **{**base, **overrides})


def machine_facts() -> dict:
    """numpy's version, OpenBLAS's version and the CPU kernel it picked (None where unknown)."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    core = None
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn().decode()
    return {"numpy": np.__version__, "openblas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": core}


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``: arrays by dtype, shape, C-contiguity and bytes,
    containers item by item (dicts by sorted key), scalars by type and exact value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.asarray(obj)
        h.update(f"array {a.dtype.str} {a.shape} {a.flags.c_contiguous}\n".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}\n".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"list {len(obj)}\n".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, float):
        h.update(f"float {obj.hex()}\n".encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__} {obj!r}\n".encode())
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _no_wall_time(history: list[dict]) -> list[dict]:
    return [{k: v for k, v in rec.items() if k != "wall_time"} for rec in history]


def compute() -> dict[str, str]:
    """Every digest, by name."""
    out = {}
    split_cfgs = {task: micro(task) for task in ("syn_mi", "syn_stress", "syn_speech")}
    split_cfgs["syn_mi_gain"] = micro("syn_mi", test_gain=1.3)
    for name, cfg in split_cfgs.items():
        for seed in SEEDS:
            out[f"splits/{name}/seed{seed}"] = digest(build_splits(cfg, seed))

    for task, cfg in split_cfgs.items():
        if task in TASKS:
            for row, (_, model, history) in finetuned_rows(cfg, 0, ROWS)[2].items():
                out[f"rows/{task}/{row}"] = digest([model.param_arena, model.buffer_arena, _no_wall_time(history)])

    cfg = split_cfgs["syn_mi"]
    for (row, column), (result, logs, history, _) in run_cells(cfg, 1, CELLS).items():
        out[f"cells/syn_mi/{row}/{column}"] = digest([result, logs, _no_wall_time(history)])

    spec = task_spec_for("syn_mi")
    X_test = np.concatenate([build_splits(cfg, seed)["test"][0] for seed in SEEDS])
    model = Model(ModelConfig(hidden=cfg.hidden, features=cfg.features, n_main=spec.n_main,
                              ssl_dims=spec.ssl_dims, dropout=cfg.dropout, init_seed=7))
    runs = {
        "ttt_ssl": ("ttt_ssl", dict(ttt=TttConfig(lr=1e-2, steps=2))),
        "ttt_ssl_online": ("ttt_ssl", dict(ttt=TttConfig(lr=1e-2, steps=2, online=True))),
        "tent": ("tent", dict(tent=TentConfig(lr=1e-2, batch_size=10))),
    }
    for name, (strategy, kwargs) in runs.items():
        out[f"adapt/syn_mi/{name}"] = digest(run_adaptation(strategy, model, spec, X_test, **kwargs))
    return out


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """``name: old -> new`` for every digest that moved, was added or was removed."""
    return [f"{name}: {old.get(name)} -> {new.get(name)}"
            for name in sorted({*old, *new}) if old.get(name) != new.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--freeze", action="store_true", help="(re)write golden/digests.json")
    args = parser.parse_args(argv)
    facts = machine_facts()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"machine": None, "digests": {}}
    if golden["machine"] != facts and not args.freeze:
        print(f"machine facts differ: frozen {golden['machine']}, here {facts}; digests not compared")
        return 2
    digests = compute()
    moved = changes(golden["digests"], digests)
    for line in moved:
        print(line)
    if args.freeze:
        GOLDEN.write_text(json.dumps({"machine": facts, "digests": digests}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN} ({len(moved)} of {len(digests)} digests moved)")
        return 0
    print(f"{len(digests) - len(moved)} of {len(digests)} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
