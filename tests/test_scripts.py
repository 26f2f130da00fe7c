"""The scripts under ``scripts/`` run through their ``main(argv)``."""

import importlib.util
from pathlib import Path

import pytest

import bachain
from bachain import cli, extension
from bachain.errors import PrecisionExhausted, SearchTooLarge

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degeneracy_experiment_matches_cli(tmp_path, capsys):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text("version 1\nalpha root(2,2)\nk 1\nsamples 2\nseed 4\n"
                   "max-norm 20\n")
    script_out = tmp_path / "script.json"
    script = load_script("degeneracy_experiment")
    assert script.main(["degeneracy_experiment.py", str(cfg),
                        str(script_out)]) == 0
    chain, cli_out = tmp_path / "c.rec", tmp_path / "cli.json"
    assert cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "20",
                     "--out", str(chain)]) == cli.EXIT_OK
    assert cli.main(["extend", str(chain), "--k", "1", "--samples", "2",
                     "--seed", "4", "--format", "machine",
                     "--out", str(cli_out)]) == cli.EXIT_OK
    assert script_out.read_bytes() == cli_out.read_bytes()
    assert f"wrote {script_out}" in capsys.readouterr().out


def test_degeneracy_experiment_certifies_at_the_config_cap(tmp_path):
    # the divisor is exactly zero: refinement stops at the config's cap
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text("version 1\nalpha 1/(root(2,2)-root(2,2))\nk 1\n"
                   "samples 1\nseed 4\nmax-norm 5\nprecision-cap 128\n")
    script = load_script("degeneracy_experiment")
    with pytest.raises(PrecisionExhausted) as info:
        script.main(["degeneracy_experiment.py", str(cfg)])
    assert info.value.precision == 128


def test_degeneracy_experiment_refuses_before_enumerating(tmp_path,
                                                          monkeypatch):
    # 840 vectors in the extended scan to max-norm 20: refused before the
    # base chain is enumerated
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text("version 1\nalpha root(2,2)\nk 1\nsamples 1\nseed 4\n"
                   "max-norm 20\nbudget 10\n")
    calls = []
    real = extension.enumerate_chain

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # through the package's name or through monte_carlo's
    for module in (bachain, extension):
        monkeypatch.setattr(module, "enumerate_chain", counting)
    script = load_script("degeneracy_experiment")
    with pytest.raises(SearchTooLarge, match="needs 840 evaluations > "
                                             "budget 10$"):
        script.main(["degeneracy_experiment.py", str(cfg)])
    assert calls == []
