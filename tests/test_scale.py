"""COVEX_SCALE is the one switch that sizes the oracle sweeps."""

from pathlib import Path

import pytest

from scale import sized


def test_one_scale_switch_sizes_every_sweep(monkeypatch):
    """sized reads tier-1 or CI sizes and refuses any other value, and no
    other file under tests/ names a COVEX_ variable, so that no knob grows
    back one per sweep."""
    monkeypatch.delenv("COVEX_SCALE", raising=False)
    assert sized(4, 5) == 4
    monkeypatch.setenv("COVEX_SCALE", "")
    assert sized(4, 5) == 4
    monkeypatch.setenv("COVEX_SCALE", "ci")
    assert sized(4, 5) == 5
    for value in ("CI", "1", "5"):
        monkeypatch.setenv("COVEX_SCALE", value)
        with pytest.raises(ValueError, match="unset or empty.*'ci'"):
            sized(4, 5)
    tests_dir = Path(__file__).parent
    naming = {
        path.relative_to(tests_dir).as_posix()
        for path in tests_dir.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and b"COVEX_" in path.read_bytes()
    }
    assert naming == {"scale.py", "test_scale.py"}
