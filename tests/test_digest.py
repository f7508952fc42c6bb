"""``scripts/digest.py``: the pipeline's bits against ``golden/digests.json``, on this machine class."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_pipeline_bits_match_the_frozen_digests():
    """Every digest matches the frozen one. On other machine facts (numpy, OpenBLAS or
    its CPU kernel) the frozen bits need not hold, so the test skips and names them."""
    golden = json.loads(digest.GOLDEN.read_text())
    facts = digest.machine_facts()
    if golden["machine"] != facts:
        pytest.skip(f"digests frozen on {golden['machine']}, this machine is {facts}")
    assert digest.changes(golden["digests"], digest.compute()) == []


def test_digest_tells_apart_dtype_layout_and_the_sign_of_zero():
    a = np.arange(6.0).reshape(2, 3)
    same = {digest.digest(a), digest.digest(a.copy())}
    assert len(same) == 1
    variants = [a, a.astype(np.float32), np.asfortranarray(a), a.reshape(3, 2), a.tolist(),
                np.where(a == 0, -0.0, a), {"x": a}, [a], 0.0, -0.0, 0, False, None, "0.0"]
    assert len({digest.digest(v) for v in variants}) == len(variants)
    assert digest.digest({"b": 1, "a": 2}) == digest.digest({"a": 2, "b": 1})


def test_changes_names_each_moved_added_and_removed_digest():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert digest.changes(old, new) == ["b: 2 -> 9", "c: 3 -> None", "d: None -> 4"]
    assert digest.changes(old, dict(old)) == []
