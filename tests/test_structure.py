"""Module-boundary checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bachain"


def private_realnum_imports(path: Path) -> list[str]:
    """`_`-prefixed names that ``path`` imports from ``.realnum``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module == "realnum":
            found += [a.name for a in node.names if a.name.startswith("_")]
    return found


def test_realnum_private_names_stay_inside_realnum():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "realnum.py" for p in modules)
    leaks = {p.name: private_realnum_imports(p)
             for p in modules if p.name != "realnum.py"}
    assert {name: names for name, names in leaks.items() if names} == {}


def test_detects_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .realnum import (\n    Dyadic,\n    _eval_at,\n)\n")
    assert private_realnum_imports(probe) == ["_eval_at"]
