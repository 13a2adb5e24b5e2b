"""Smoke test of the example scripts: each `main()` runs its --quick config
end to end into a temporary directory."""

import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,reports", [
    ("run_iris_pipeline", ["report.txt"]),
    ("run_blobs_pipeline", ["report.txt"]),
    ("canonicalization_trend", ["rebasin/report.txt", "off/report.txt"])])
def test_quick_run_reports(tmp_path, monkeypatch, capsys, name, reports):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--quick", "--out", str(out)])
    assert load_script(name).main() == 0
    for report in reports:
        assert (out / report).is_file()
    assert "Traceback" not in capsys.readouterr().err
