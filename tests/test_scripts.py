"""The scripts under ``scripts/`` run through their ``main(argv)``."""

import importlib.util
from pathlib import Path

from bachain import cli

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
