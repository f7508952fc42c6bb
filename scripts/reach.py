"""List the functions in ``src/ttalign`` that no CLI command runs.

Traces every Python call (``sys.setprofile``) while ``ttalign.cli.main`` runs
each command in-process on micro configs of all three tasks: ``generate``,
``pretrain``, both ``finetune`` strategies, the three ``adapt`` strategies,
``evaluate``, ``ablate`` and ``report``. Variants add SGD and Adam for every
optimizer, ``head_layers`` 2, ``pretrain: null``, online and ``first_only``
TTT, ``gradcheck``, and five failing runs (a missing config, a NaN in a
config, a null ``ttt`` section, a diverging TTT, a diverging fine-tune). ``gradcheck`` runs with each tensor's
central-difference loop cut to its first entry: the loop only reruns, under
``no_grad``, what the tape pass already reached. Functions are read from the
source, nested ones (autodiff pulls) included. Each known exception is printed
with its reason, and each run that exits otherwise than planned with its argv.

    python3 scripts/reach.py    # exit 1 if a function outside the exceptions is unreached,
                                # an exception is stale, or a run exits otherwise than planned

Stdlib only; runs in a few seconds on one core.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "ttalign"

# (qualified-name prefix, reason) of every function allowed to stay unreached
EXCEPTIONS = (
    ("pilot.", "run by scripts/pilot_directional.py and acceptance criterion 09"),
    ("nn.Snapshot.params", "read by perfbench/workloads.py"),
    ("autodiff.Tape.__len__", "read by perfbench/tracing.py"),
)

MICRO = {
    "trials_per_subject": 8,
    "hidden": 8,
    "features": 16,
    "n_seeds": 1,
    "finetune": {"epochs": 2, "batch_size": 16, "lr": 1e-3},
    "pretrain": {"epochs": 1},
}
# syn_speech splits each subject's trials per class: 5 classes x 5 trials fill all three splits
TRIALS = {"syn_speech": 25}

# configs beyond the three task presets: every optimizer switched, deeper head,
# no pretraining, online and first_only TTT
VARIANTS = {
    "sgd_adam": {**MICRO, "finetune": {**MICRO["finetune"], "optimizer": "sgd"},
                 "pretrain": {"epochs": 1, "optimizer": "sgd"}, "ttt": {"optimizer": "adam"}},
    "deep_online": {**MICRO, "head_layers": 2, "pretrain": None,
                    "ttt": {"online": True, "ssl_mode": "first_only"}},
}


def functions(path: Path, module: str) -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every def in ``path``, nested ones included.

    The first line is a decorated function's first decorator, as in ``co_firstlineno``.
    """
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), module + ".")
    return out


def first_entry_only(grad_check):
    """``grad_check`` over each tensor's first entry, so its finite-difference loop runs once per tensor."""
    from ttalign.autodiff import Tensor

    def check(fragment, x, params, epsilon=1e-5):
        firsts = []
        for p in params:
            first = Tensor(p.data.reshape(-1)[:1])  # a view: perturbing it perturbs ``p``
            first.grad = p.grad.reshape(-1)[:1]
            firsts.append(first)
        return grad_check(fragment, x, firsts, epsilon)
    return check


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """The argv and planned exit code of every traced ``ttalign`` call, writing configs and outputs under ``tmp``."""
    def config(name, payload):
        path = tmp / f"{name}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    runs = []
    for task in ("syn_mi", "syn_stress", "syn_speech"):
        cfg = config(task, {**MICRO, "task": task,
                            "trials_per_subject": TRIALS.get(task, MICRO["trials_per_subject"])})
        runs += [["generate", "--config", cfg, "--out", str(tmp / task / "data")],
                 ["pretrain", "--config", cfg, "--out", str(tmp / task / "pretrain")]]
        runs += [["finetune", "--config", cfg, "--strategy", s, "--out", str(tmp / task / "finetune")]
                 for s in ("supervised_only", "stage1_ssl")]
        runs += [["adapt", "--config", cfg, "--strategy", s, "--out", str(tmp / task / "adapt")]
                 for s in ("none", "ttt_ssl", "tent")]
        for command in ("evaluate", "ablate"):
            out = str(tmp / task / command)
            runs += [[command, "--config", cfg, "--out", out], ["report", "--out", out]]
    for name, payload in VARIANTS.items():
        runs.append(["evaluate", "--config", config(name, payload), "--out", str(tmp / name)])
    runs.append(["gradcheck", "--out", str(tmp / "gradcheck")])
    planned = [(argv, 0) for argv in runs]
    # the failing runs: a NaN in a config (2), a null nested section (2), a diverging TTT (3),
    # a fine-tune whose parameters stay finite but whose read-out does not (3), a missing config (2)
    failing = {"nan": ('{"duration": NaN}', 2),
               "null_ttt": ({**MICRO, "ttt": None}, 2),
               "diverge": ({**MICRO, "ttt": {"lr": 1e300}, "strategies": ["ttt_ssl"]}, 3),
               "diverge_finetune": ({**MICRO, "finetune": {"optimizer": "sgd", "lr": 1e30, "epochs": 1,
                                                           "batch_size": 64}}, 3)}
    planned += [(["evaluate", "--config", config(name, payload), "--out", str(tmp / name)], code)
                for name, (payload, code) in failing.items()]
    planned.append((["evaluate", "--config", str(tmp / "missing.json")], 2))
    return planned


def main() -> int:
    os.environ["TTALIGN_WORKERS"] = "1"  # in-process, so one profiler sees every call
    sys.path.insert(0, str(SRC))
    from ttalign import autodiff, cli

    autodiff.grad_check = first_entry_only(autodiff.grad_check)
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(functions(path, path.stem))
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        runs = commands(Path(tmp))
        codes = []
        for argv, _ in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # an escaped error is reported, not fatal to the trace
                    codes.append(type(exc).__name__)
                finally:
                    sys.setprofile(None)
    print(f"traced {len(runs)} ttalign commands; exit codes {' '.join(sorted({str(c) for c in codes}))}")
    unplanned = [(argv, planned, code) for (argv, planned), code in zip(runs, codes) if code != planned]
    for argv, planned, code in unplanned:
        print(f"  ttalign {' '.join(argv)}: exit {code}, planned {planned}")

    unreached = sorted(name for key, name in defined.items() if key not in seen)
    reached = {name for key, name in defined.items() if key in seen}
    print(f"{len(defined)} functions in src/ttalign, {len(unreached)} unreached")
    bad = []
    for name in unreached:
        reason = next((why for prefix, why in EXCEPTIONS if name.startswith(prefix)), None)
        print(f"  {name}: {reason or 'UNREACHED, no exception'}")
        if reason is None:
            bad.append(name)
    stale = [prefix for prefix, _ in EXCEPTIONS if any(name.startswith(prefix) for name in reached)
             or not any(name.startswith(prefix) for name in unreached)]
    for prefix in stale:
        print(f"  exception {prefix!r} names a reached function or none at all; drop it")
    failed = bad or stale or unplanned
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
