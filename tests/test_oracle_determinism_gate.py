"""The oracle determinism gate (`tools/check_oracle_determinism.py`) reports
the oracles it actually ran and refuses oracle names it does not know."""

import importlib.util
from pathlib import Path

import pytest

import __ray_entry__

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_oracle_determinism.py"


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_oracle_determinism", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "TABLES", [])
    monkeypatch.setattr(
        __ray_entry__,
        "oracle_sql",
        lambda: {"one": "SELECT 1 AS x", "two": "SELECT 2 AS x", "three": "SELECT 3 AS x"},
    )
    return mod


def test_subset_reports_the_oracles_it_ran(gate, tmp_path, capsys):
    assert gate.main(str(tmp_path), 2, ["one", "three"]) == 0
    assert "checked 2 oracles x 2 runs" in capsys.readouterr().out
    assert gate.main(str(tmp_path), 2) == 0
    assert "checked 3 oracles x 2 runs" in capsys.readouterr().out


def test_unknown_oracle_name_fails(gate, tmp_path, capsys):
    assert gate.main(str(tmp_path), 2, ["one", "no_such_oracle"]) == 1
    out = capsys.readouterr().out
    assert "no_such_oracle" in out and "checked" not in out
