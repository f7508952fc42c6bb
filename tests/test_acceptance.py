"""Acceptance gate: ten checks, one verdict line each.

Every criterion's test ends by calling :func:`_verdict`, which records a single
``criterion NN <name>: PASS/FAIL`` line (re-emitted after the run by
``conftest.pytest_terminal_summary``) and then asserts; one fast test checks the
detail that criterion 09 gives when its deltas do not reproduce. Tolerances are stated
inline and are not configurable; when a check cannot be met the test fails —
it is never to be loosened.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import test_metrics as metric_oracles
from oracles import bandpower, combined_loss, content_rng, jigsaw_order
from test_adapt import tiny_model
from test_digest import digest
from ttalign import autodiff as ad
from ttalign.adapt import (
    TentConfig,
    TttConfig,
    entropy,
    tent_adapt_predict,
    ttt_ssl_adapt_predict,
)
from ttalign.autodiff import Tensor, cross_entropy
from ttalign.cli import main as cli_main
from ttalign.gradcheck import TOLERANCE, max_relative_error, run_gradcheck
from ttalign.harness import build_splits, preset_experiment
from ttalign.metrics import (
    auc_pr,
    auroc,
    balanced_accuracy,
    cohens_kappa,
    weighted_f1,
)
from ttalign.nn import restore, snapshot
from ttalign.optim import make_optimizer
from ttalign.pilot import (
    MARGINS,
    evaluate_pilot,
    pilot_config_hashes,
    run_pilot,
)
from ttalign.pretext import AMP_FACTORS, band_table_for, make_view, task_spec_for
from ttalign.signals import AP_PAIRS, TARGET_RATE
from ttalign.training import (
    FinetuneConfig,
    finetune_stage1,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "directional_margins.json"

VERDICT_LINES: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    results = run_gradcheck()
    elapsed = time.perf_counter() - t0
    worst = max_relative_error(results)

    prefixes = {name.split(".")[0] for name in results}
    covered = {"linear", "linear_nb", "relu", "stack", "stack_eval", "stack_replicas", "tent", "pretrain"}
    stack_params = {n for n in results if n.startswith("stack.")}

    ok = (
        worst < TOLERANCE
        and elapsed < 60.0
        and covered <= prefixes
        and len(stack_params) >= 10  # trunk + both heads + input
    )
    _verdict(
        1, "gradient-fidelity", ok,
        f"max rel err {worst:.2e} over {len(results)} tensors in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. single-step adaptation exactness
# ---------------------------------------------------------------------------

def test_criterion_02_single_step_exactness():
    spec = task_spec_for("syn_mi")
    lr = 1e-3
    cfg = TttConfig(steps=1, lr=lr, optimizer="sgd", seed=11)
    x = np.random.default_rng(42).standard_normal((8, 200))

    model, _ = tiny_model("syn_mi", seed=13)
    reference, _ = tiny_model("syn_mi", seed=13)  # same init -> bitwise-equal params

    # independent gradient of the weighted pretext loss, same view draws
    branches = [
        (j, name, w)
        for j, (name, w) in enumerate(zip(spec.ssl_tasks, spec.weights))
        if w != 0.0
    ]
    rng = content_rng(x, cfg.seed)
    views = [make_view(name, x[None], rng, spec) for _, name, _ in branches]
    with ad.fresh_tape():
        loss = None
        for (j, _, w), (view, label) in zip(branches, views):
            feats = reference.features(Tensor(view), train=False)
            term = ad.scale(cross_entropy(reference.ssl_heads[j](feats), label), w)
            loss = term if loss is None else ad.add(loss, term)
        reference.zero_grad()
        ad.backward(loss)
    grads = {
        n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for n, p in reference.named_parameters()
    }

    before = {n: p.data.copy() for n, p in model.named_parameters()}
    ttt_ssl_adapt_predict(model, x, spec, cfg)

    worst = 0.0
    for n, p in model.named_parameters():
        expected = before[n] - lr * grads[n]
        worst = max(worst, float(np.max(np.abs(p.data - expected))))
    ok = worst <= 1e-12
    _verdict(2, "single-step-exactness", ok, f"max |delta + lr*grad| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. entropy-adaptation parameter restriction
# ---------------------------------------------------------------------------

def test_criterion_03_tent_restriction():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((16, 8, 200))

    def changed_bits(update_stats: bool) -> tuple[set, set]:
        model, _ = tiny_model("syn_mi", seed=3)
        params_before = {n: p.data.tobytes() for n, p in model.named_parameters()}
        bufs_before = {n: b.tobytes() for n, b in model.named_buffers()}
        tent_adapt_predict(
            model, X,
            TentConfig(lr=1e-3, steps_per_batch=3, batch_size=8,
                       update_running_stats=update_stats),
        )
        changed_p = {
            n for n, p in model.named_parameters()
            if p.data.tobytes() != params_before[n]
        }
        changed_b = {
            n for n, b in model.named_buffers() if b.tobytes() != bufs_before[n]
        }
        return changed_p, changed_b

    model_probe, _ = tiny_model("syn_mi", seed=3)
    affine = set(model_probe.param_groups()["bn_affine"])

    p_on, b_on = changed_bits(update_stats=True)
    p_off, b_off = changed_bits(update_stats=False)

    ok = (
        p_on <= affine and p_off <= affine
        and len(p_on) > 0  # adaptation actually moved something
        and b_off == set()  # stats frozen -> buffers bit-identical
    )
    _verdict(
        3, "tent-parameter-restriction", ok,
        f"changed params {sorted(p_on)} within BN affine; "
        f"buffers changed only when enabled ({sorted(b_on)} vs {sorted(b_off)})",
    )


# ---------------------------------------------------------------------------
# 4. entropy descent
# ---------------------------------------------------------------------------

def test_criterion_04_entropy_descent():
    for c in range(2, 13):
        e = float(entropy(np.full(c, 1.0 / c)))
        assert abs(e - math.log(c)) <= 1e-12, f"uniform entropy mismatch at C={c}"

    # lightly fine-tuned model; 100 seeded channel-gain shifts of its test split
    cfg = preset_experiment(
        "syn_mi", trials_per_subject=8, hidden=8, features=16, n_seeds=1,
        finetune=FinetuneConfig(epochs=2, batch_size=16, lr=1e-3, weights=(0.0, 0.0)),
    )
    splits = build_splits(cfg, seed=0)
    Xtr, ytr, _ = splits["train"]
    Xva, yva, _ = splits["val"]
    Xte, _, _ = splits["test"]
    model, spec = tiny_model("syn_mi", seed=29, hidden=8, features=16)
    model, _ = finetune_stage1(model, spec, Xtr, ytr, Xva, yva, cfg.finetune)

    monotone = 0
    for trial in range(100):
        gains = np.random.default_rng(trial).uniform(0.5, 2.0, size=(Xte.shape[1],))
        shifted = Xte * gains[None, :, None]
        work, _ = tiny_model("syn_mi", seed=29, hidden=8, features=16)
        restore(work, snapshot(model))
        _, records = tent_adapt_predict(
            work, shifted,
            TentConfig(lr=1e-4, steps_per_batch=5, batch_size=shifted.shape[0]),
        )
        (record,) = records
        steps = record["entropy"]
        if all(b <= a for a, b in zip(steps, steps[1:])):
            monotone += 1

    ok = monotone >= 95
    _verdict(4, "entropy-descent", ok, f"non-increasing in {monotone}/100 shifted batches")


# ---------------------------------------------------------------------------
# 5. pretext transform correctness
# ---------------------------------------------------------------------------

def test_criterion_05_pretext_correctness():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((8, 200))
    stress, mi = task_spec_for("syn_stress"), task_spec_for("syn_mi")

    def first_flip(x):
        """The view of the first of 16 seeds whose ap_flip draw flips, else None."""
        for seed in range(16):
            views, labels = make_view("ap_flip", x[None], np.random.default_rng(seed), stress)
            if labels[0] == 1:
                return views[0]
        return None

    # flip twice == identity, bitwise, and a flip swaps every AP pair (find a draw that flips)
    flipped = first_flip(data)
    assert flipped is not None, "no flipping draw in 16 seeds"
    twice = first_flip(flipped)
    flip_ok = twice is not None and np.array_equal(twice, data)
    flip_ok &= all(np.array_equal(flipped[[a, b]], data[[b, a]]) for a, b in AP_PAIRS)

    # jigsaw: the argsort of the chunk order round-trips bitwise, over 24 draws
    jig_ok = True
    for seed in range(24):
        views, labels = make_view("jigsaw", data[None], np.random.default_rng(seed), mi)
        jig_ok &= np.array_equal(views[0][:, np.argsort(jigsaw_order(200, labels[0]))], data)

    # amplitude factors: the exact 16-point grid, and the view is an exact product
    grid_ok = all(AMP_FACTORS[k] == -2.0 + (k * 4.0) / 15.0 for k in range(16))
    grid_ok &= len(AMP_FACTORS) == 16
    for seed in range(8):
        views, labels = make_view("amp_scale", data[None], np.random.default_rng(seed), mi)
        grid_ok &= np.array_equal(views[0], AMP_FACTORS[labels[0]] * data)

    # band-stop: >= 40 dB on a stopband-centered sine, <= 0.1 dB on a passband sine
    t = np.arange(int(4 * TARGET_RATE)) / TARGET_RATE
    low, high = 8.0, 13.0
    one_band = replace(mi, band_table=((low, high),))
    center = np.tile(np.sin(2 * np.pi * 10.5 * t), (2, 1))
    passband = np.tile(np.sin(2 * np.pi * 30.0 * t), (2, 1))
    stopped = make_view("stopped_band", center[None], np.random.default_rng(0), one_band)[0][0]
    kept = make_view("stopped_band", passband[None], np.random.default_rng(0), one_band)[0][0]
    atten_db = 10 * math.log10(
        bandpower(center, TARGET_RATE, low, high)
        / bandpower(stopped, TARGET_RATE, low, high)
    )
    pass_db = abs(10 * math.log10(
        bandpower(kept, TARGET_RATE, 29.0, 31.0)
        / bandpower(passband, TARGET_RATE, 29.0, 31.0)
    ))
    band_ok = atten_db >= 40.0 and pass_db <= 0.1

    ok = flip_ok and jig_ok and grid_ok and band_ok
    _verdict(
        5, "pretext-correctness", ok,
        f"flip involution {flip_ok}, jigsaw round-trip {jig_ok}, "
        f"amp grid {grid_ok}, band-stop {atten_db:.1f} dB / {pass_db:.3f} dB",
    )


# ---------------------------------------------------------------------------
# 6. frequency-band tables
# ---------------------------------------------------------------------------

def test_criterion_06_band_tables():
    expected = {
        "syn_speech": ((0.5, 8.0), (8.0, 30.0), (30.0, 70.0), (70.0, 100.0)),
        "syn_stress": ((4.0, 8.0), (8.0, 12.0), (13.0, 20.0), (20.0, 30.0)),
        "syn_mi": ((3.0, 7.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0)),
    }
    ok = True
    for task, table in expected.items():
        ok &= band_table_for(task) == table
        ok &= task_spec_for(task).band_table == table
    _verdict(6, "band-tables", ok, "three tables, bit-for-bit")


# ---------------------------------------------------------------------------
# 7. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(4, 41))
        c = int(rng.integers(2, 6))
        y_true = rng.integers(0, c, size=n)
        while len(np.unique(y_true)) < 2:
            y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)

        worst = max(worst, abs(
            balanced_accuracy(y_true, y_pred)
            - metric_oracles.oracle_balanced_accuracy(y_true, y_pred)))
        worst = max(worst, abs(
            cohens_kappa(y_true, y_pred) - metric_oracles.oracle_kappa(y_true, y_pred)))
        worst = max(worst, abs(
            weighted_f1(y_true, y_pred) - metric_oracles.oracle_weighted_f1(y_true, y_pred)))

        y_bin = rng.integers(0, 2, size=n)
        while len(np.unique(y_bin)) < 2:
            y_bin = rng.integers(0, 2, size=n)
        scores = rng.normal(size=n)
        if i % 3 == 0:
            scores = np.round(scores, 1)  # force ties through the rank path
        worst = max(worst, abs(
            auroc(y_bin, scores) - metric_oracles.oracle_auroc_pairwise(y_bin, scores)))
        worst = max(worst, abs(
            auc_pr(y_bin, scores) - metric_oracles.oracle_average_precision(y_bin, scores)))

    ok = worst <= 1e-12
    _verdict(7, "metric-oracle-equivalence", ok,
             f"1000 instances, max |diff| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. zero-weight degeneracy and per-head gradient linearity
# ---------------------------------------------------------------------------

def _class_coded(n, c, seed, channels=8, samples=200):
    rng = np.random.default_rng(seed)
    t = np.arange(samples) / TARGET_RATE
    x = rng.normal(scale=0.5, size=(n, channels, samples))
    y = np.arange(n) % c
    for i in range(n):
        x[i, y[i]] += 2.0 * np.sin(2 * np.pi * 11 * t + rng.uniform(0, 2 * np.pi))
    return x, y


def test_criterion_08_degeneracy_and_linearity():
    # (a) w = (0, 0) trajectory == independent handwritten supervised loop, bitwise
    xtr, ytr = _class_coded(24, 4, seed=101)
    xva, yva = _class_coded(12, 4, seed=102)
    cfg = FinetuneConfig(epochs=2, batch_size=8, lr=1e-3, weights=(0.0, 0.0), seed=55)

    model, spec = tiny_model("syn_mi", seed=77)
    trained, _ = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)

    oracle, _ = tiny_model("syn_mi", seed=77)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 3])
    opt = make_optimizer(cfg.optimizer, oracle.named_parameters(), cfg.lr)
    best, best_snap = -np.inf, None
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(xtr))
        for s in range(0, len(xtr), cfg.batch_size):
            idx = order[s: s + cfg.batch_size]
            with ad.fresh_tape():
                logits = oracle.forward_main(
                    Tensor(xtr[idx]), train=True, dropout_rng=dropout_rng)
                loss = cross_entropy(logits, ytr[idx])
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
        score = cohens_kappa(yva, oracle.predict_proba(xva).argmax(axis=1))
        if score > best:
            best, best_snap = score, snapshot(oracle)
    restore(oracle, best_snap)

    degen_ok = all(
        np.array_equal(p1.data, p2.data)
        for (_, p1), (_, p2) in zip(trained.named_parameters(), oracle.named_parameters())
    ) and all(
        np.array_equal(b1, b2)
        for (_, b1), (_, b2) in zip(trained.named_buffers(), oracle.named_buffers())
    )

    # (b) pretext-head gradients scale linearly in their weight
    lin_model, lin_spec = tiny_model("syn_mi", seed=88, dtype="float64")  # a float64 tolerance
    rng = np.random.default_rng(6)
    xb = rng.normal(size=(4, 8, 200))
    yb = np.array([0, 1, 2, 3])
    views = [rng.normal(size=(4, 8, 200)) for _ in range(2)]
    vlabs = [np.array([1, 0, 2, 1]), np.array([0, 5, 3, 2])]

    def head_grads(weights):
        lin_model.zero_grad()
        with ad.fresh_tape():
            feats = lin_model.features(Tensor(xb), train=False)
            main = lin_model.main_logits(feats)
            slog = [
                lin_model.ssl_heads[j](lin_model.features(Tensor(views[j]), train=False))
                for j in range(2)
            ]
            ad.backward(combined_loss(main, yb, slog, vlabs, weights)[0])
        return {
            n: p.grad.copy()
            for n, p in lin_model.named_parameters()
            if n.startswith("ssl.") and p.grad is not None
        }

    g_half = head_grads((0.4, 0.3))
    g_full = head_grads((0.8, 0.6))
    g_trip = head_grads((1.2, 0.9))
    lin_ok = bool(g_half)
    for name in g_half:
        lin_ok &= np.array_equal(g_full[name], 2.0 * g_half[name])  # exact doubling
        lin_ok &= np.allclose(g_trip[name], 3.0 * g_half[name], rtol=0, atol=1e-12)

    ok = degen_ok and lin_ok
    _verdict(8, "degeneracy-and-linearity", ok,
             f"zero-weight trajectory bitwise {degen_ok}, head-gradient linearity {lin_ok}")


# ---------------------------------------------------------------------------
# 9. directional strategy checks against the committed pilot
# ---------------------------------------------------------------------------

def _repro_detail(got: dict, want: dict, facts: dict, frozen_facts: dict) -> str:
    """Each delta of this run that differs from the frozen one, both values in full, and
    this machine's facts beside those that ``golden/digests.json`` was frozen on."""
    moved = ", ".join(f"{key} {got.get(key)!r} (frozen {want.get(key)!r})"
                      for key in sorted(got.keys() | want.keys()) if got.get(key) != want.get(key))
    return f"not reproduced: {moved}; this machine {facts}, golden digests frozen on {frozen_facts}"


def test_criterion_09_names_each_delta_that_did_not_reproduce():
    want = {"ssl_advantage": 0.25, "tent_advantage": 0.5, "ttt_transfer/syn_speech": -0.015}
    got = {**want, "tent_advantage": 0.5000000000000001, "ttt_transfer/syn_speech": -0.01}
    assert _repro_detail(got, want, {"openblas_core": "Sandybridge"}, {"openblas_core": "SkylakeX"}) == (
        "not reproduced: tent_advantage 0.5000000000000001 (frozen 0.5), "
        "ttt_transfer/syn_speech -0.01 (frozen -0.015); "
        "this machine {'openblas_core': 'Sandybridge'}, golden digests frozen on {'openblas_core': 'SkylakeX'}"
    )


def test_criterion_09_directional_checks():
    assert GOLDEN.exists(), (
        "golden/directional_margins.json missing — run "
        "scripts/pilot_directional.py --freeze and commit the result"
    )
    frozen = json.loads(GOLDEN.read_text())

    t0 = time.perf_counter()
    payload = run_pilot()
    elapsed = time.perf_counter() - t0

    hashes_ok = payload["config_hashes"] == frozen["config_hashes"] == pilot_config_hashes()
    verdicts = evaluate_pilot(payload)
    margins_ok = payload["margins"] == frozen["margins"] == MARGINS

    # seeded pipeline: a rerun must land on the committed deltas exactly
    def deltas(d):
        out = {
            "ssl_advantage": d["checks"]["ssl_advantage"]["delta"],
            "tent_advantage": d["checks"]["tent_advantage"]["delta"],
        }
        for task, pair in d["checks"]["ttt_transfer"].items():
            out[f"ttt_transfer/{task}"] = pair["delta"]
        return out

    got, want = deltas(payload), deltas(frozen)
    repro_ok = got == want

    ok = (
        hashes_ok and margins_ok and repro_ok
        and all(verdicts.values())
        and elapsed < 900.0
    )
    detail = (
        f"ssl {got['ssl_advantage']:+.4f} (>= {MARGINS['ssl_advantage']}), "
        f"tent {got['tent_advantage']:+.4f} (>= {MARGINS['tent_advantage']}), "
        f"ttt cross {got['ttt_transfer/syn_mi']:+.4f}/{got['ttt_transfer/syn_stress']:+.4f} "
        f"vs within {got['ttt_transfer/syn_speech']:+.4f}; "
        f"reproduced committed deltas exactly: {repro_ok}; {elapsed:.0f}s"
    )
    if not repro_ok:
        frozen_facts = json.loads(digest.GOLDEN.read_text())["machine"]
        detail += "; " + _repro_detail(got, want, digest.machine_facts(), frozen_facts)
    _verdict(9, "directional-checks", ok, detail)


# ---------------------------------------------------------------------------
# 10. end-to-end determinism through the command line
# ---------------------------------------------------------------------------

def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "micro.json"
    config.write_text(json.dumps({
        "task": "syn_mi",
        "trials_per_subject": 8,
        "hidden": 8,
        "features": 16,
        "n_seeds": 1,
        "strategies": ["stage1_ssl", "ttt_ssl"],
        "finetune": {"epochs": 2, "batch_size": 16, "lr": 1e-3},
        "pretrain": {"epochs": 1},
    }))

    def run(cmd, rep, *extra):
        out = tmp_path / f"{cmd}{rep}"
        code = cli_main([cmd, "--config", str(config), "--seed", "3",
                         "--out", str(out), *extra])
        assert code == 0, f"{cmd} run {rep} exited {code}"
        return out

    ok = True
    details = []

    a = run("evaluate", 1)
    b = run("evaluate", 2)
    csv_same = (a / "experiment_syn_mi.csv").read_bytes() == (b / "experiment_syn_mi.csv").read_bytes()
    json_same = (
        _strip_wall(json.loads((a / "experiment_syn_mi.json").read_text()))
        == _strip_wall(json.loads((b / "experiment_syn_mi.json").read_text()))
    )
    ok &= csv_same and json_same
    details.append(f"evaluate csv/json {csv_same}/{json_same}")

    a = run("adapt", 1, "--strategy", "tent")
    b = run("adapt", 2, "--strategy", "tent")
    adapt_same = (
        (a / "metrics_tent.json").read_bytes() == (b / "metrics_tent.json").read_bytes()
        and (a / "adaptation_log_tent.json").read_bytes()
        == (b / "adaptation_log_tent.json").read_bytes()
    )
    ok &= adapt_same
    details.append(f"adapt metrics+log {adapt_same}")

    a = run("generate", 1)
    b = run("generate", 2)
    gen_same = all(
        (a / f"{split}.f32").read_bytes() == (b / f"{split}.f32").read_bytes()
        for split in ("train", "val", "test")
    ) and (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    ok &= gen_same
    details.append(f"generate bytes {gen_same}")

    _verdict(10, "cli-determinism", ok, ", ".join(details))
