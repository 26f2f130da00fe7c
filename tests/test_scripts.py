"""The scripts under ``scripts/`` run through their ``main()``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumerate_examples_runs(monkeypatch, capsys):
    script = load_script("enumerate_examples")
    monkeypatch.setattr(script, "EXAMPLES", [
        ("sqrt(2)", ["root(2,2)"], 30),
        ("sqrt(2), sqrt(3)", ["root(2,2)", "root(3,2)"], 8),
    ])
    assert script.main() == 0
    out = capsys.readouterr().out
    assert out.count("=" * 72) == 2
    assert "sqrt(2): bound 30, 5 records" in out
    assert "chain: r=2," in out
    assert "series (k=1) S_" in out
