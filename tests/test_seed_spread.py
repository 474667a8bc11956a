"""Argument checks of the seed-spread script."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seed_spread.py"
_spec = importlib.util.spec_from_file_location("seed_spread", SCRIPT)
seed_spread = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_spread)


@pytest.mark.parametrize("option", ["--seeds", "--epochs", "--patience"])
def test_counts_below_one_refused_before_any_write(tmp_path, monkeypatch, capsys, option):
    work = tmp_path / "spread"
    monkeypatch.setattr(sys, "argv", ["seed_spread.py", "--out", str(work), option, "0"])
    with pytest.raises(SystemExit) as exc:
        seed_spread.main()
    assert exc.value.code == 2
    assert f"argument {option}: must be > 0" in capsys.readouterr().err
    assert not work.exists()
