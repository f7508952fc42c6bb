"""``scripts/pilot_directional.py --freeze`` shows what a refreeze changes, on hand-built payloads;
the pinned configs still hash as the golden file froze them."""

import importlib.util
import json
from pathlib import Path

from ttalign import pilot
from ttalign.harness import preset_experiment, run_single
from ttalign.pilot import pilot_config_hashes
from ttalign.training import FinetuneConfig, PretrainConfig

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "pilot_directional.py"
_SPEC = importlib.util.spec_from_file_location("pilot_directional", _PATH)
pilot_directional = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pilot_directional)


def _payload(speech_baseline):
    pair = {"baseline": "stage1_ssl", "challenger": "ttt_ssl",
            "baseline_per_seed": speech_baseline, "challenger_per_seed": [0.35, 0.3],
            "baseline_mean": sum(speech_baseline) / 2, "challenger_mean": 0.325}
    pair["delta"] = pair["challenger_mean"] - pair["baseline_mean"]
    return {"seeds": 2, "margins": {"ssl_advantage": 0.02},
            "config_hashes": {"ttt_transfer/syn_speech": "abc"},
            "checks": {"ttt_transfer": {"syn_speech": pair}}}


def test_golden_changes_lists_each_changed_value_old_to_new():
    old, new = _payload([0.375, 0.3]), _payload([0.4, 0.3])
    path = "checks/ttt_transfer/syn_speech"
    assert pilot_directional.golden_changes(old, new) == [
        f"{path}/baseline_mean: 0.3375 -> 0.35",
        f"{path}/baseline_per_seed[0]: 0.375 -> 0.4",
        f"{path}/delta: {old['checks']['ttt_transfer']['syn_speech']['delta']!r} -> "
        f"{new['checks']['ttt_transfer']['syn_speech']['delta']!r}",
    ]
    assert pilot_directional.golden_changes(old, json.loads(json.dumps(old))) == []


def test_golden_changes_names_added_removed_and_resized_entries():
    old = _payload([0.375, 0.3])
    new = json.loads(json.dumps(old))
    new["checks"]["ttt_transfer"]["syn_speech"]["baseline_per_seed"].append(0.5)
    new["config_hashes"]["extra"] = "def"
    del new["margins"]["ssl_advantage"]
    assert pilot_directional.golden_changes(old, new) == [
        "checks/ttt_transfer/syn_speech/baseline_per_seed: [0.375, 0.3] -> [0.375, 0.3, 0.5]",
        "config_hashes/extra: None -> 'def'",
        "margins/ssl_advantage: 0.02 -> None",
    ]


def test_pinned_configs_hash_as_frozen():
    # criterion 09 checks this too, after its 30 s rerun
    golden = json.loads((_PATH.parents[1] / "golden" / "directional_margins.json").read_text())
    assert pilot_config_hashes() == golden["config_hashes"]


def test_run_pilot_pairs_each_config_with_its_own_strategies(monkeypatch):
    # two micro configs, two seeds each, in one job list
    micro = dict(trials_per_subject=8, hidden=8, features=16, n_seeds=2,
                 finetune=FinetuneConfig(epochs=2, batch_size=16, lr=1e-3), pretrain=PretrainConfig(epochs=1))
    configs = {
        "ssl_advantage": preset_experiment("syn_mi", strategies=("supervised_only", "stage1_ssl"), **micro),
        "tent_advantage": preset_experiment("syn_mi", strategies=("stage1_ssl", "tent"), base_seed=3, **micro),
    }
    monkeypatch.setattr(pilot, "pilot_configs", lambda: configs)
    payload = pilot.run_pilot()
    assert payload["checks"]["ttt_transfer"] == {}
    for name, cfg in configs.items():
        records = [run_single(cfg, seed) for seed in (cfg.base_seed, cfg.base_seed + 1)]
        baseline, challenger = cfg.strategies
        pair = payload["checks"][name]
        assert (pair["baseline"], pair["challenger"]) == cfg.strategies
        for side, strategy in (("baseline", baseline), ("challenger", challenger)):
            assert pair[f"{side}_per_seed"] == [
                r["strategies"][strategy]["metrics"]["values"]["balanced_accuracy"] for r in records]
