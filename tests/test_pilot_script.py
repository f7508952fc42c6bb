"""``scripts/pilot_directional.py --freeze`` shows what a refreeze changes, on hand-built payloads."""

import importlib.util
import json
from pathlib import Path

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
