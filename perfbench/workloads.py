"""The benchmark's workloads and the output checks they run.

Each workload is a function ``(seed, seconds, clock, tracer=None) -> Outcome``.
Set-up (data and, for the stream workloads, stage-I fine-tuning) runs
``SETUP_REPEATS`` times and its median is reported; then the timed part (which
``tracer.begin()`` marks) runs operations in a closed loop, one at a time,
until ``seconds`` have passed. An operation is one fine-tune,
one adaptation call or one ``ttalign evaluate`` run. It fails if it raises,
yields non-finite output, or fails its output check.

Every duration is the wall time of whole operations, reported at nominal
machine speed (see ``speed.py``); the raw figures are printed beside them.

The program is reached only through module attributes (``training.finetune_stage1``
rather than a name imported from it), so a tracer that patches those attributes
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from speed import SpeedClock
from ttalign import adapt, cli, harness, metrics, nn, pilot, pretext, training

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "golden" / "directional_margins.json"
SETUP_REPEATS = 3

# tent_advantage test split: subjects 8 and 9, 24 epochs each. The stream adds
# subjects 10..15 from the same generator, so its first chunk is that split.
STREAM_TEST_SUBJECTS = tuple(range(8, 16))
CHUNK = 48

EVALUATE_TASKS = ("syn_mi", "syn_stress", "syn_speech")
# One task-seed per evaluate run: more, shorter operations give a steadier median.
EVALUATE_SEEDS = 1


@dataclass
class Outcome:
    """What one workload run measured and produced.

    ``throughput`` counts items per second (the item is workload-defined) and
    ``setup_s`` is the median set-up time, both at nominal machine speed; the
    ``raw_`` fields are the same figures as the wall clock read them.
    """

    setup_s: float
    raw_setup_s: float
    throughput: float
    raw_throughput: float
    name: str                  # the throughput's own name, e.g. ttt.samples_per_s
    unit: str
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # (operation key, result) in run order


class _Ops:
    """Attempted/failed bookkeeping for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: list = []

    @contextlib.contextmanager
    def op(self, key):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"operation {key} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"output check failed: {what}")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["checks"]


def _check_probs(probs: np.ndarray, n: int, what: str) -> None:
    _check(probs.shape[0] == n and bool(np.all(np.isfinite(probs))), f"{what}: non-finite probabilities")
    _check(bool(np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)), f"{what}: rows do not sum to 1")


def _balanced_accuracy(spec, y, probs) -> float:
    # the same read-out the harness applies to every strategy
    scores = probs[:, 1] if spec.n_main == 2 else None
    result = metrics.evaluate_predictions(y, probs.argmax(axis=1), spec.n_main, scores=scores)
    return result.values["balanced_accuracy"]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _median_setup(clock: SpeedClock, prepare):
    """Run ``prepare`` SETUP_REPEATS times; returns (scaled median s, raw median s, last result)."""
    times: list = []
    result = None
    for _ in range(SETUP_REPEATS):
        with clock.time(times):
            result = prepare()
    return statistics.median(t[1] for t in times), statistics.median(t[0] for t in times), result


def _rate(items: float, groups) -> tuple[float, float]:
    """(scaled, raw) items per second over one median operation of each group.

    ``groups`` holds one list of :meth:`SpeedClock.time` entries per kind of operation.
    """
    scaled = sum(statistics.median(t[1] for t in g) for g in groups if g)
    raw = sum(statistics.median(t[0] for t in g) for g in groups if g)
    return (items / scaled, items / raw) if scaled and raw else (0.0, 0.0)


def _prepare_base(cfg, spec, seed: int):
    """One seed's splits and masked-pretrained base model, wired as the harness does."""
    splits = harness.build_splits(cfg, seed)
    base = nn.Model(nn.ModelConfig(
        hidden=cfg.hidden, features=cfg.features, n_main=spec.n_main, ssl_dims=spec.ssl_dims,
        head_layers=cfg.head_layers, dropout=cfg.dropout, init_seed=seed,
    ))
    if cfg.pretrain is not None:
        training.masked_pretrain(base, splits["train"][0], replace(cfg.pretrain, seed=seed))
    return splits, base


def _finetune(cfg, spec, base, weights, seed, splits):
    Xtr, ytr, _ = splits["train"]
    Xva, yva, _ = splits["val"]
    ft = replace(cfg.finetune, weights=weights, seed=seed)
    return training.finetune_stage1(nn.clone_model(base), spec, Xtr, ytr, Xva, yva, ft)


# ---------------------------------------------------------------------------
# finetune_scarce
# ---------------------------------------------------------------------------

def finetune_scarce(seed: int, seconds: float, clock: SpeedClock, tracer=None) -> Outcome:
    """Both arms of the ssl_advantage config (batch 8, hidden 32, features 64, 120 epochs).

    Operations alternate supervised and joint fine-tuning; pair ``k`` runs on
    data seed ``seed + k``. Throughput is epochs x training samples per second
    over one median ``finetune_stage1`` call of each arm: the whole call, its
    validation, set-up before the epoch loop and final restore included. A
    call lasts seconds, so the speed reference is also read after each
    validation (``Model.predict_proba``) inside it.
    """
    cfg = pilot.ssl_advantage_config()
    spec = pretext.task_spec_for(cfg.task)
    golden = _golden()["ssl_advantage"]
    arms = (("supervised_only", (0.0, 0.0), golden["baseline_per_seed"]),
            ("stage1_ssl", spec.weights, golden["challenger_per_seed"]))

    setup_s, raw_setup_s, (splits, base) = _median_setup(clock, lambda: _prepare_base(cfg, spec, seed))
    ops = _Ops()
    calls: dict[str, list] = {arm: [] for arm, _, _ in arms}
    if tracer is not None:
        tracer.begin()
    start = time.perf_counter()

    def fits(arm):  # after the first pair, start an arm only if it should end in time
        done = calls[arm]
        return time.perf_counter() - start + (done[-1][0] if done else 0.0) <= seconds

    data_seed = seed
    while data_seed == seed or fits(arms[0][0]):
        if data_seed != seed:
            splits, base = _prepare_base(cfg, spec, data_seed)
        for arm, weights, golden_accs in arms:
            if data_seed != seed and not fits(arm):
                break
            with ops.op((arm, data_seed)):
                with clock.time(calls[arm], read_after=(nn.Model, "predict_proba")):
                    model, _ = _finetune(cfg, spec, base, weights, data_seed, splits)
                X, y, _ = splits["test"]
                probs, _ = adapt.run_adaptation("none", model, spec, X)
                _check_probs(probs, len(y), arm)
                acc = _balanced_accuracy(spec, y, probs)
                if 0 <= data_seed < len(golden_accs):
                    _check(acc == golden_accs[data_seed], f"{arm} seed {data_seed}: {acc} != golden")
                ops.outputs.append(((arm, data_seed), acc))
        data_seed += 1

    n_train = splits["train"][0].shape[0]
    scaled, raw = _rate(len(arms) * cfg.finetune.epochs * n_train, calls.values())
    return Outcome(setup_s, raw_setup_s, scaled, raw, "finetune.samples_per_s", "samples/s",
                   ops.attempted, ops.failed, ops.outputs)


# ---------------------------------------------------------------------------
# ttt_stream / tent_stream
# ---------------------------------------------------------------------------

def _prepare_stream(seed: int):
    """Fine-tune the tent_advantage config and build its gain-shifted test stream."""
    cfg = pilot.tent_advantage_config()
    spec = pretext.task_spec_for(cfg.task)
    stream_cfg = replace(cfg, test_subjects=STREAM_TEST_SUBJECTS)
    splits, base = _prepare_base(stream_cfg, spec, seed)
    model, _ = _finetune(cfg, spec, base, spec.weights, seed, splits)
    return cfg, spec, model, splits["test"]


def _stream(strategy: str, seed: int, seconds: float, clock: SpeedClock, tracer) -> Outcome:
    setup_s, raw_setup_s, (cfg, spec, model, (X, y, _)) = _median_setup(clock, lambda: _prepare_stream(seed))
    golden = _golden()["tent_advantage"]
    ops = _Ops()
    params_before = nn.snapshot(model)

    # stage1_ssl read-out on the tent_advantage test split (untimed)
    with ops.op(("stage1_ssl", seed)):
        probs, _ = adapt.run_adaptation("none", model, spec, X[:CHUNK])
        _check_probs(probs, CHUNK, "stage1_ssl")
        acc = _balanced_accuracy(spec, y[:CHUNK], probs)
        if 0 <= seed < len(golden["baseline_per_seed"]):
            _check(acc == golden["baseline_per_seed"][seed], f"stage1_ssl seed {seed}: {acc} != golden")
        ops.outputs.append((("stage1_ssl", seed), acc))

    kwargs = {"ttt": replace(cfg.ttt, seed=seed)} if strategy == "ttt_ssl" else {"tent": cfg.tent}
    n_chunks = X.shape[0] // CHUNK
    calls: list = []
    first_pass: dict[int, str] = {}
    if tracer is not None:
        tracer.begin()
    start = time.perf_counter()
    i = 0
    while i < n_chunks or time.perf_counter() - start < seconds:
        c = i % n_chunks
        Xc, yc = X[c * CHUNK:(c + 1) * CHUNK], y[c * CHUNK:(c + 1) * CHUNK]
        with ops.op((strategy, c)):
            with clock.time(calls):
                probs, _ = adapt.run_adaptation(strategy, model, spec, Xc, **kwargs)
            _check_probs(probs, CHUNK, f"{strategy} chunk {c}")
            digest = _digest(probs)
            # a chunk seen again must adapt to the same predictions
            _check(first_pass.setdefault(c, digest) == digest, f"{strategy} chunk {c} not reproducible")
            if i < n_chunks:
                acc = _balanced_accuracy(spec, yc, probs)
                if strategy == "tent" and c == 0 and 0 <= seed < len(golden["challenger_per_seed"]):
                    _check(acc == golden["challenger_per_seed"][seed], f"tent seed {seed}: {acc} != golden")
                ops.outputs.append(((strategy, c), acc))
        i += 1

    # untimed: the caller's model is untouched, and Tent moves only BN affine parameters
    with ops.op(("unchanged", strategy)):
        after = nn.snapshot(model)
        _check(all(np.array_equal(after.params[n], a) for n, a in params_before.params.items()),
                  "run_adaptation mutated the caller's model")
        if strategy == "tent":
            work = nn.clone_model(model)
            adapt.tent_adapt_predict(work, X[:CHUNK], cfg.tent)
            affine = set(model.param_groups()["bn_affine"])
            moved = {n for n, p in work.named_parameters() if not np.array_equal(p.data, params_before.params[n])}
            _check(moved <= affine, f"tent changed non-affine parameters {sorted(moved - affine)}")
            _check(bool(moved), "tent changed no parameter")

    # one pass over the stream (every chunk once) is the unit of the median
    passes = [(sum(t[0] for t in calls[k:k + n_chunks]), sum(t[1] for t in calls[k:k + n_chunks]))
              for k in range(0, len(calls) - n_chunks + 1, n_chunks)]
    scaled, raw = _rate(CHUNK * n_chunks, [passes])
    name = "ttt.samples_per_s" if strategy == "ttt_ssl" else "tent.samples_per_s"
    return Outcome(setup_s, raw_setup_s, scaled, raw, name, "samples/s", ops.attempted, ops.failed, ops.outputs)


def ttt_stream(seed: int, seconds: float, clock: SpeedClock, tracer=None) -> Outcome:
    """Per-sample test-time training (batch 1) over the gain-shifted stream."""
    return _stream("ttt_ssl", seed, seconds, clock, tracer)


def tent_stream(seed: int, seconds: float, clock: SpeedClock, tracer=None) -> Outcome:
    """Tent (batch 32, BN affine only) over the same stream."""
    return _stream("tent", seed, seconds, clock, tracer)


# ---------------------------------------------------------------------------
# pipeline_evaluate
# ---------------------------------------------------------------------------

WORK_DIR = ROOT / ".perfbench_out" / "evaluate"


def _check_report(path: Path) -> dict[int, list[float]]:
    """Aggregates must equal the mean/std of the per-seed rows they summarise.

    Returns each seed's balanced accuracies, one per strategy.
    """
    data = json.loads(path.read_text())
    _check(sorted(data["aggregates"]) == sorted(harness.STRATEGIES), f"{path.name}: strategies missing")
    accs: dict[int, list[float]] = {rec["seed"]: [] for rec in data["per_seed"]}
    for strategy, metric_stats in data["aggregates"].items():
        for metric, stats in metric_stats.items():
            values = [rec["strategies"][strategy]["metrics"]["values"][metric] for rec in data["per_seed"]]
            _check(all(np.isfinite(values)), f"{path.name}: non-finite {strategy}/{metric}")
            _check(stats["mean"] == float(np.mean(values)) and stats["std"] == float(np.std(values)),
                   f"{path.name}: aggregate {strategy}/{metric} does not match its rows")
            if metric == "balanced_accuracy":
                for rec, value in zip(data["per_seed"], values):
                    accs[rec["seed"]].append(value)
    return accs


def _evaluate(task: str, base_seed: int, config: Path, out: Path) -> Path:
    """Run ``ttalign evaluate``; returns the path of its report."""
    argv = ["evaluate", "--task", task, "--seed", str(base_seed), "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    _check(code == 0, f"ttalign {' '.join(argv)} exited {code}")
    return out / f"experiment_{task}.json"


def pipeline_evaluate(seed: int, seconds: float, clock: SpeedClock, tracer=None) -> Outcome:
    """``ttalign evaluate`` in-process, cycling syn_mi, syn_stress and syn_speech.

    Run ``k`` evaluates task ``k % 3`` with base seed ``seed + k // 3``.
    Throughput is task-seeds per second from each task's median run time. A
    run lasts seconds, so the speed reference is also read after each
    ``Model.predict_proba`` return inside it.

    Before the timed part, one untimed two-seed syn_mi run checks the
    aggregation over more than one row; its rows must also equal the timed
    one-seed runs of the same seeds.
    """
    config = WORK_DIR / "config.json"
    config2 = WORK_DIR / "config2.json"

    def prepare():
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        WORK_DIR.mkdir(parents=True)
        config.write_text(json.dumps({"n_seeds": EVALUATE_SEEDS}))
        config2.write_text(json.dumps({"n_seeds": 2}))

    setup_s, raw_setup_s, _ = _median_setup(clock, prepare)
    ops = _Ops()
    runs: dict[str, list] = {task: [] for task in EVALUATE_TASKS}
    two_seeds: dict[int, list[float]] = {}
    try:
        with ops.op(("syn_mi", seed, "2 seeds")):
            two_seeds = _check_report(_evaluate("syn_mi", seed, config2, WORK_DIR / "two-seeds"))
            _check(sorted(two_seeds) == [seed, seed + 1], f"two-seed run reported seeds {sorted(two_seeds)}")
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        k = 0
        while k < len(EVALUATE_TASKS) or time.perf_counter() - start < seconds:
            task = EVALUATE_TASKS[k % len(EVALUATE_TASKS)]
            base_seed = seed + k // len(EVALUATE_TASKS)
            out = WORK_DIR / f"{task}-{base_seed}"
            with ops.op((task, base_seed)):
                with clock.time(runs[task], read_after=(nn.Model, "predict_proba")):
                    report = _evaluate(task, base_seed, config, out)
                accs = _check_report(report)
                _check(list(accs) == [base_seed], f"{task} run reported seeds {list(accs)}")
                if task == "syn_mi" and base_seed in two_seeds:
                    _check(accs[base_seed] == two_seeds[base_seed],
                           f"syn_mi seed {base_seed}: one-seed and two-seed runs disagree")
                ops.outputs.append(((task, base_seed), accs[base_seed]))
            shutil.rmtree(out, ignore_errors=True)
            k += 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    scaled, raw = _rate(len(EVALUATE_TASKS) * EVALUATE_SEEDS, runs.values())
    return Outcome(setup_s, raw_setup_s, scaled, raw, "evaluate.seeds_per_min", "task-seeds/min",
                   ops.attempted, ops.failed, ops.outputs)


WORKLOADS = {
    "finetune_scarce": finetune_scarce,
    "ttt_stream": ttt_stream,
    "tent_stream": tent_stream,
    "pipeline_evaluate": pipeline_evaluate,
}
