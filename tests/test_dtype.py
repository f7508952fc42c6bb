"""A float32 model computes in float32 end to end and reads out float64 probabilities."""

import numpy as np
import pytest

from test_adapt import make_epochs, tiny_model
from ttalign import adapt, autodiff as ad, training
from ttalign.adapt import TentConfig, TttConfig, run_adaptation, tent_adapt_predict, ttt_ssl_adapt_predict
from ttalign.errors import ConfigError
from ttalign.nn import Model, ModelConfig
from ttalign.training import FinetuneConfig, PretrainConfig, finetune_stage1, masked_pretrain


def float32_model(task="syn_mi", seed=3, dropout=0.2):
    model, spec = tiny_model(task, seed, head_layers=2, dropout=dropout)
    assert model.cfg.dtype == "float32"  # the default
    return model, spec


def test_dtype_is_checked():
    with pytest.raises(ConfigError, match="dtype"):
        ModelConfig(dtype="float16")
    assert Model(ModelConfig(dtype="float64")).param_arena.dtype == np.float64


@pytest.mark.parametrize("strategy", ["predict_proba", "none", "ttt_ssl", "tent"])
def test_probabilities_are_float64_rows_that_sum_to_one(strategy):
    model, spec = float32_model()
    X = make_epochs(20, seed=5)
    p = model.predict_proba(X) if strategy == "predict_proba" else run_adaptation(strategy, model, spec, X)[0]
    assert p.dtype == np.float64 and p.shape == (20, spec.n_main)
    assert np.all(p >= 0.0) and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_no_float64_leaks_through_training_or_adaptation(monkeypatch):
    """After pretraining, one fine-tuning epoch, one Tent and one TTT call, the arenas,
    Adam's moments, every recorded output and every gradient contribution are float32."""
    seen: set = set()
    real_backward = ad.backward

    def spying_backward(loss):
        def spy(pull):
            def wrapped(g):
                contribs = pull(g)
                seen.update(c.dtype for c in contribs if c is not None)
                return contribs
            return wrapped

        tape = ad.active_tape()
        seen.update(out.data.dtype for out, _, _ in tape._records)
        tape._records = [(out, inputs, spy(pull)) for out, inputs, pull in tape._records]
        real_backward(loss)

    optimizers = []
    real_make = training.make_optimizer

    def keeping_make(*args):
        optimizers.append(real_make(*args))
        return optimizers[-1]

    monkeypatch.setattr(ad, "backward", spying_backward)
    monkeypatch.setattr(training, "make_optimizer", keeping_make)
    monkeypatch.setattr(adapt, "make_optimizer", keeping_make)
    model, spec = float32_model()
    X, y = make_epochs(16, seed=7), np.arange(16) % spec.n_main
    masked_pretrain(model, X, PretrainConfig(epochs=1, batch_size=8))
    finetune_stage1(model, spec, X, y, X[:8], y[:8], FinetuneConfig(epochs=1, batch_size=8, lr=1e-3))
    tent_adapt_predict(model, X[:8], TentConfig(lr=1e-3, batch_size=4))
    ttt_ssl_adapt_predict(model, X[0], spec, TttConfig(steps=2, lr=1e-3, optimizer="adam"))
    run_adaptation("ttt_ssl", model, spec, X[:3])

    assert seen == {np.dtype(np.float32)}
    # pretraining, fine-tuning, TTT with Adam, block TTT with SGD (no moments)
    assert [type(opt).__name__ for opt in optimizers] == ["Adam", "Adam", "Adam", "SGD"]
    arrays = [model.param_arena, model.grad_arena, model.buffer_arena]
    for opt in optimizers[:3]:
        arrays += [*opt.m, *opt.v]
    assert all(a.dtype == np.float32 for a in arrays)
