"""Module-boundary checks over the package source."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
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


def call_name(node) -> str | None:
    """The called name of a call node (``f`` in ``f(x)`` and ``a.f(x)``),
    None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def function_def(path: Path, function: str):
    """The first definition of the function named ``function`` in
    ``path``, or None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return next((node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == function), None)


#: The functions outside ``realnum`` that may climb the private ladder
#: themselves: none.  Every refinement takes its rungs from
#: ``realnum.enclosures`` or ``realnum.widths``.
LADDER_SITES = set()

#: The functions outside ``realnum`` that may ask for the working limit:
#: only the chain-file reader, which bounds ``precision-used`` by it.
WORKING_LIMIT_SITES = {("cli.py", "parse_chain")}


def sites(path: Path, matches) -> list[str]:
    """Names of the functions in ``path`` that hold a node for which
    ``matches`` is true (``<module>`` for one outside any function)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if matches(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def callers(path: Path, name: str) -> list[str]:
    """Names of the functions in ``path`` that call ``name`` (``<module>``
    for a call outside any function)."""
    return sites(path, lambda node: call_name(node) == name)


def catchers(path: Path, name: str) -> list[str]:
    """Names of the functions in ``path`` with an ``except`` clause that
    names ``name``, alone or in a tuple (``<module>`` outside any
    function); a bare ``except:`` names nothing."""
    def catches(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        return any(getattr(t, "attr", getattr(t, "id", None)) == name
                   for t in types)

    return sites(path, catches)


def calls_outside_realnum(name: str) -> set[tuple[str, str]]:
    return {(p.name, fn) for p in SRC.glob("*.py") if p.name != "realnum.py"
            for fn in callers(p, name)}


def test_precision_ladder_called_only_at_its_sites():
    assert calls_outside_realnum("_ladder") == LADDER_SITES


def test_working_limit_called_only_at_its_sites():
    assert calls_outside_realnum("working_limit") == WORKING_LIMIT_SITES


def test_detects_a_ladder_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(m):\n"
                     "    def g():\n"
                     "        return list(realnum._ladder(64, 128))\n"
                     "    return [w for w in _ladder(64, 128)]\n"
                     "_ladder(1, 2)\n")
    assert callers(probe, "_ladder") == ["g", "f", "<module>"]


#: The functions that may give up a refinement: ``enclosures`` for every
#: walk over one constant's enclosures, and the criterion scan, whose
#: ladder is over a whole tail set.  Every other refinement stops early
#: or lets ``enclosures`` raise.
EXHAUSTION_SITES = {
    ("realnum.py", "enclosures"),
    ("extension.py", "degeneracy_criterion"),
}


def test_precision_exhausted_raised_only_at_its_sites():
    sites = {(p.name, fn) for p in SRC.glob("*.py")
             for fn in callers(p, "PrecisionExhausted")}
    assert sites == EXHAUSTION_SITES


def test_detects_a_precision_exhausted_site(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _certified_floor(expr, cap):\n"
                     "    for _, iv in enclosures(expr, 64, cap, 'floor'):\n"
                     "        pass\n"
                     "    raise errors.PrecisionExhausted('floor', cap)\n"
                     "def ok(exc):\n"
                     "    raise exc\n")
    assert callers(probe, "PrecisionExhausted") == ["_certified_floor"]


#: The one function that may build ``SearchTooLarge``: every budget
#: refusal, whatever the scan, goes through ``SearchTooLarge.check``, so
#: ``--budget`` counts one thing and is refused in one wording.
BUDGET_SITES = {("errors.py", "check")}


def test_search_too_large_raised_only_at_its_site():
    sites = {(p.name, fn) for p in SRC.glob("*.py")
             for fn in callers(p, "SearchTooLarge")}
    assert sites == BUDGET_SITES


def test_detects_a_second_search_too_large_site(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class SearchTooLarge(Exception):\n"
                     "    @staticmethod\n"
                     "    def check(visits, budget, scan):\n"
                     "        if visits > budget:\n"
                     "            raise SearchTooLarge(scan)\n"
                     "def lattice_inv_norm_sum(M, k, budget):\n"
                     "    SearchTooLarge.check(M, budget, 'lattice sum')\n"
                     "    if (2 * M + 1) ** k - 1 > budget:\n"
                     "        raise errors.SearchTooLarge('lattice points')\n")
    assert callers(probe, "SearchTooLarge") == ["check",
                                                "lattice_inv_norm_sum"]


#: The one function that may catch ``SearchTooLarge``: ``cli.main``,
#: which maps it to exit 5.  A catch anywhere else would turn a refused
#: scan into output that ``--budget`` was meant to stop.
BUDGET_CATCH_SITES = {("cli.py", "main")}


def test_search_too_large_caught_only_at_its_site():
    sites = {(p.name, fn) for p in SRC.glob("*.py")
             for fn in catchers(p, "SearchTooLarge")}
    assert sites == BUDGET_CATCH_SITES


def test_detects_a_search_too_large_catch(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def main(argv):\n"
                     "    try:\n"
                     "        return run(argv)\n"
                     "    except (DomainError, errors.SearchTooLarge):\n"
                     "        return 5\n"
                     "def compare_extended(chain, budget):\n"
                     "    for nu in chain:\n"
                     "        try:\n"
                     "            scan(nu, budget)\n"
                     "        except SearchTooLarge as exc:\n"
                     "            skipped[nu] = str(exc)\n"
                     "        except ValueError:\n"
                     "            pass\n"
                     "try:\n"
                     "    SearchTooLarge.check(1, 0, 'probe')\n"
                     "except:\n"
                     "    pass\n")
    assert catchers(probe, "SearchTooLarge") == ["main", "compare_extended"]


#: The functions that may decide a chain record's enclosure: the scan
#: that writes it and the reader that recomputes it, by one rule.
RECORD_SITES = {("enumerator.py", "_shell_scan"), ("cli.py", "parse_chain")}


def test_record_enclosure_called_only_at_its_sites():
    sites = {(p.name, fn) for p in SRC.glob("*.py")
             for fn in callers(p, "record_enclosure")}
    assert sites == RECORD_SITES


def test_detects_a_record_enclosure_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class Reader:\n"
                     "    def read(self, m):\n"
                     "        return linform.record_enclosure(m, [], [], 4)\n"
                     "def record_enclosure(m, los, his, grid):\n"
                     "    return m\n"
                     "def zeta_of(m):\n"
                     "    return [record_enclosure(m, [], [], 4)]\n")
    assert callers(probe, "record_enclosure") == ["read", "zeta_of"]


#: The exhaustive scans, whose every rounding to the nearest integer must
#: come from their calls to ``linform``: ``scaled_residual`` once per tail
#: (in the shell scan, per tail that ``screen`` keeps), and in the shell
#: scan once more for a shell winner's nearest integer.
SCAN_SITES = {
    ("enumerator.py", "_shell_scan"): ["scaled_residual", "screen",
                                       "scaled_residual"],
    ("extension.py", "degeneracy_criterion"): ["scaled_residual"],
}


#: The one function that may build the screen's residue tables, the only
#: kernel input that takes a coordinate bound: the shell scan, which bounds
#: its own tails.  A table indexed beyond its bound reads another
#: coordinate's entry, so no other caller (the chain reader, in
#: particular) may build one.
RESIDUE_TABLE_SITES = {("enumerator.py", "_shell_scan")}


def test_only_the_shell_scan_binds_a_coordinate_bound():
    sites = {(p.name, fn) for p in SRC.glob("*.py")
             for fn in callers(p, "residue_tables")}
    assert sites == RESIDUE_TABLE_SITES


#: The oracle, whose every rounding is its one ``realnum.round_scaled``
#: call per tail: a drop test that shifts or divides on its own would be
#: a second rounding rule.
ORACLE_SITE = ("enumerator.py", "brute_force_oracle")

#: Calls that round to the nearest integer.
ROUNDING_CALLS = ("divmod", "scaled_residual", "round_scaled", "screen")

#: Operators that round: floor division, the right shift, and the mask
#: and remainder that take a residual off a scaled sum.
ROUNDING_OPS = {ast.FloorDiv: "//", ast.RShift: ">>", ast.BitAnd: "&",
                ast.Mod: "%"}


def rounding_ops(path: Path, function: str):
    """``divmod``, ``//``, ``>>``, ``&``, ``%``, ``scaled_residual``,
    ``round_scaled`` and ``screen`` uses anywhere inside the function
    named ``function`` in ``path`` (nested functions included), or None
    when there is no such function."""
    body = function_def(path, function)
    if body is None:
        return None
    found = []
    for node in ast.walk(body):
        name = call_name(node)
        if name in ROUNDING_CALLS:
            found.append(name)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in ROUNDING_OPS:
            found.append(ROUNDING_OPS[type(node.op)])
    return found


def test_scans_round_only_through_scaled_residual():
    assert {site: rounding_ops(SRC / site[0], site[1])
            for site in SCAN_SITES} == SCAN_SITES


def test_oracle_rounds_only_through_round_scaled():
    assert rounding_ops(SRC / ORACLE_SITE[0], ORACLE_SITE[1]) == \
        ["round_scaled"]


def test_detects_rounding_in_a_scan(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def scan(s, t):\n"
                     "    def inner(x):\n"
                     "        return divmod(x, t)\n"
                     "    s //= 2\n"
                     "    s >>= 1\n"
                     "    s &= t - 1\n"
                     "    lo, hi = linform.scaled_residual(s, t)\n"
                     "    kept = screen([s], t)\n"
                     "    m, _, _ = realnum.round_scaled(lo, hi, 4)\n"
                     "    o = (s + t) & (2 * t - 1), hi % t\n"
                     "    return (2 * s + t) // (2 * t), inner(o), m >> 2\n"
                     "def other(s):\n"
                     "    t = s & 1\n"
                     "    return s // 2, s >> 1, round_scaled(s, t, 2)\n")
    assert sorted(rounding_ops(probe, "scan")) == [
        "%", "&", "&", "//", "//", ">>", ">>", "divmod", "round_scaled",
        "scaled_residual", "screen"]
    assert rounding_ops(probe, "missing") is None


def named_calls(path: Path, function: str, names: set[str]):
    """Calls of any of ``names`` anywhere inside the function named
    ``function`` in ``path``, or None when there is no such function."""
    body = function_def(path, function)
    if body is None:
        return None
    return [name for name in map(call_name, ast.walk(body)) if name in names]


def test_lattice_sum_takes_integer_roots_per_norm_class():
    # one isqrt per squared norm; a dyadic root or Fraction conversion
    # per point is the cost the norm classes removed
    assert named_calls(SRC / "extension.py", "lattice_inv_norm_sum",
                       {"nth_root", "as_fraction"}) == []


def test_detects_a_per_point_root(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def lattice_inv_norm_sum(M, k):\n"
                     "    rt = DyadicInterval.point(M).nth_root(2, 64)\n"
                     "    return 1 / rt.hi.as_fraction()\n")
    names = {"nth_root", "as_fraction"}
    assert sorted(named_calls(probe, "lattice_inv_norm_sum", names)) == \
        ["as_fraction", "nth_root"]
    assert named_calls(probe, "missing", names) is None


#: The certified logarithm and the reciprocal work on integers only; a
#: Fraction on this path pays a gcd per operation.
INTEGER_PATH = ("_atanh_series", "_split", "_ln2_bounds", "_ln_dyadic_bounds",
                "ln_interval", "reciprocal", "_inverse_ratio",
                "dyadic_from_ratio")

#: Calls that build a Fraction or take one.
FRACTION_CALLS = {"Fraction", "as_fraction", "from_fractions"}


def test_logarithm_and_reciprocal_build_no_fraction():
    assert {fn: named_calls(SRC / "realnum.py", fn, FRACTION_CALLS)
            for fn in INTEGER_PATH} == {fn: [] for fn in INTEGER_PATH}


def test_detects_a_fraction_on_the_integer_path(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _atanh_series(a, b, p):\n"
                     "    def term(j):\n"
                     "        return Fraction(a, b) ** (2 * j + 1)\n"
                     "    return term(0), Dyadic(a).as_fraction()\n")
    assert sorted(named_calls(probe, "_atanh_series", FRACTION_CALLS)) == \
        ["Fraction", "as_fraction"]


#: The lattice sum and the omega bound round their sums in integers; the
#: exact rationals they stand for live only in the tests.
LATTICE_PATH = ("_ratio_sum", "_round_sum", "lattice_inv_norm_sum",
                "omega_bound")


def test_lattice_sum_and_omega_bound_build_no_fraction():
    assert {fn: named_calls(SRC / "extension.py", fn, FRACTION_CALLS)
            for fn in LATTICE_PATH} == {fn: [] for fn in LATTICE_PATH}


def test_detects_a_fraction_on_the_lattice_path(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _round_sum(terms, p, round_up):\n"
                     "    return sum(Fraction(n, d) for n, d in terms)\n"
                     "def omega_bound(zeta_nu, M_next, r, k):\n"
                     "    lo, hi = lattice_inv_norm_sum(M_next, k)\n"
                     "    return DyadicInterval.from_fractions(lo, hi, 80)\n")
    assert {fn: named_calls(probe, fn, FRACTION_CALLS)
            for fn in ("_round_sum", "omega_bound")} == \
        {"_round_sum": ["Fraction"], "omega_bound": ["from_fractions"]}


#: The oracle's path, which must stay independent of the scans: a fault in
#: the residual kernel would otherwise show in both and cancel out.
ORACLE_PATH = ("zeta", "form_values", "best_m0", "endpoint_table",
               "dot_bounds", "_Candidate", "_below", "_smaller",
               "brute_force_oracle")

#: The exhaustive scans' residual kernel, its binding and the shell
#: scan's screen with its residue tables, with the record rule built on
#: the kernel.
SCAN_KERNEL = {"scaled_residual", "scaled_constants", "residue_tables",
               "Binding", "record_enclosure", "screen"}


def kernel_reach(paths, roots, kernel=SCAN_KERNEL) -> dict[str, list[str]]:
    """For each root, the call chains by which it reaches a ``kernel``
    name, following calls to the functions and classes defined at the top
    level of ``paths`` (a class counts with all of its methods)."""
    defs = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.update((node.name, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    found = {}
    for root in roots:
        chains, seen, todo = [], {root}, [(root,)]
        while todo:
            chain = todo.pop()
            for name in map(call_name, ast.walk(defs[chain[-1]])):
                if name in kernel:
                    chains.append(" -> ".join(chain + (name,)))
                elif name in defs and name not in seen:
                    seen.add(name)
                    todo.append(chain + (name,))
        found[root] = sorted(chains)
    return found


def test_oracle_path_never_reaches_the_scan_kernel():
    paths = (SRC / "linform.py", SRC / "enumerator.py")
    assert kernel_reach(paths, ORACLE_PATH) == \
        {root: [] for root in ORACLE_PATH}


def test_detects_a_kernel_call_behind_a_helper(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def zeta(m):\n"
                     "    return _dot(m)\n"
                     "def _dot(m):\n"
                     "    return linform.scaled_residual(m, 0, 0, 4)\n"
                     "class _Candidate:\n"
                     "    def refine(self):\n"
                     "        return scaled_constants(self.m, 64)\n"
                     "def best_m0(t):\n"
                     "    return record_enclosure((0,) + t, [], [], 4)\n"
                     "def form_values(m):\n"
                     "    return [linform.screen(t, 64) for t in m]\n"
                     "def clean(m):\n"
                     "    return zeta\n")
    assert kernel_reach([probe], ("zeta", "_Candidate", "best_m0",
                                  "form_values", "clean")) == {
        "zeta": ["zeta -> _dot -> scaled_residual"],
        "_Candidate": ["_Candidate -> scaled_constants"],
        "best_m0": ["best_m0 -> record_enclosure"],
        "form_values": ["form_values -> screen"],
        "clean": []}


#: Every public name of the package.  A name joins on purpose, and one
#: that nothing uses any more leaves here and from ``__init__`` together.
PUBLIC_NAMES = {
    "AmbiguousRounding", "BAChain", "BachainError", "BestApprox",
    "BetaSample", "ChainReport", "ChainTooShort", "CriterionVerdict",
    "DependenceSuspected", "DomainError", "Dyadic", "DyadicInterval",
    "ExtensionReport", "LinearForm",
    "MonteCarloResult", "PRECISION_CAP", "PrecisionExhausted", "PsiSpec",
    "RealExpr", "SearchTooLarge", "Verdict",
    "best_m0", "brute_force_oracle", "check_growth", "check_minkowski",
    "check_monotonic", "check_polytope", "check_psi_singular",
    "compare_extended", "convergent_denominators", "degeneracy_criterion",
    "enumerate_chain",
    "eval_interval", "lattice_inv_norm_sum", "ln_interval",
    "monte_carlo", "nearest_integer",
    "omega_bound", "pad_chain", "parse_expr", "rational", "root",
    "run_checks", "sample_betas", "series_partial_sums", "tail_rank",
    "window_determinants", "zeta",
    # submodules, bound by the imports in __init__
    "analysis", "enumerator", "errors", "extension", "linform", "realnum",
}


def test_public_names_are_the_listed_set():
    import bachain
    assert sorted(bachain.__all__) == sorted(PUBLIC_NAMES)


BENCH = SRC.parent.parent / "bench"


def bench_names(path: Path) -> set[str]:
    """The ``module.name`` attributes of ``bachain`` that ``path`` reaches:
    the dotted string targets in ``make_tracer``, which the tracer
    rebinds by ``getattr``, and every ``bc.<module>.<name>`` read, also
    through a local bound to ``bc.<module>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    tracer = function_def(path, "make_tracer")
    if tracer is not None:
        found |= {node.value for node in ast.walk(tracer)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.fullmatch(r"\w+\.\w+", node.value)}

    def module_of(node):  # "mod" for bc.mod or self.bc.mod, else None
        if isinstance(node, ast.Attribute) and (
                getattr(node.value, "id", None) == "bc"
                or getattr(node.value, "attr", None) == "bc"):
            return node.attr
        return None

    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = zip(target.elts, node.value.elts) \
                        if isinstance(target, ast.Tuple) \
                        and isinstance(node.value, ast.Tuple) \
                        else [(target, node.value)]
                    aliases.update((t.id, module_of(v)) for t, v in pairs
                                   if isinstance(t, ast.Name)
                                   and module_of(v))
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                mod = module_of(node.value) or \
                    aliases.get(getattr(node.value, "id", None))
                if mod:
                    found.add(f"{mod}.{node.attr}")
    return found


def unresolved(names) -> list[str]:
    """The names among ``names`` that ``bachain.<module>`` lacks."""
    missing = []
    for name in sorted(names):
        module, _, attr = name.partition(".")
        if not hasattr(importlib.import_module("bachain." + module), attr):
            missing.append(name)
    return missing


def test_every_name_the_bench_reaches_resolves():
    names = bench_names(BENCH / "layers.py") | \
        bench_names(BENCH / "workloads.py")
    assert {"enumerator.brute_force_oracle", "realnum.nearest_integer",
            "extension._mixed_tails", "enumerator.convergent_denominators",
            "cli.parse_expr"} <= names
    assert unresolved(names) == []


def test_detects_a_bench_name_gone_from_the_package(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def make_tracer(bc):\n"
                     "    plain = ('linform.zeta', 'linform.no_such_span')\n"
                     "    return Tracer('bachain', dict.fromkeys(plain))\n"
                     "class W:\n"
                     "    def run(self):\n"
                     "        cli, other = self.bc.cli, self.bc.enumerator\n"
                     "        self.bc.cli.main(['x'])\n"
                     "        return other.gone_oracle, cli.parse_chain\n")
    names = bench_names(probe)
    assert names == {"linform.zeta", "linform.no_such_span", "cli.main",
                     "enumerator.gone_oracle", "cli.parse_chain"}
    assert unresolved(names) == ["enumerator.gone_oracle",
                                 "linform.no_such_span"]


#: Parameter names that carry a precision cap.  A chain carries the cap
#: it was certified under, so a cap passed beside it is a second cap.
CAP_PARAMETERS = {"cap", "precision_cap"}


def annotated_chain(arg: ast.arg) -> bool:
    node = arg.annotation
    return (isinstance(node, ast.Name) and node.id == "BAChain"
            or isinstance(node, ast.Attribute) and node.attr == "BAChain"
            or isinstance(node, ast.Constant) and node.value == "BAChain")


def caps_beside_chains(path: Path) -> list[str]:
    """Names of the functions in ``path`` that take both a parameter
    annotated ``BAChain`` and a cap parameter."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            if (any(map(annotated_chain, params))
                    and any(p.arg in CAP_PARAMETERS for p in params)):
                found.append(node.name)
    return found


def test_a_chain_is_never_passed_beside_a_cap():
    assert [(p.name, fn) for p in SRC.glob("*.py")
            for fn in caps_beside_chains(p)] == []


def test_detects_a_cap_beside_a_chain(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def write(chain: BAChain, precision_cap: int): ...\n"
                     "def scan(chain: 'BAChain', beta, *, cap=64): ...\n"
                     "class C:\n"
                     "    def run(self, c: enumerator.BAChain, cap): ...\n"
                     "def plain(chain: BAChain, budget: int): ...\n"
                     "def enumerate_chain(form, M_max, cap): ...\n")
    assert caps_beside_chains(probe) == ["write", "scan", "run"]


#: The option strings of each subcommand.  An option joins on purpose:
#: every one multiplies the inputs its command must be right on.
CLI_OPTIONS = {
    "enumerate": {"--alpha", "--max-norm", "--precision-cap", "--budget",
                  "--out"},
    "verify": {"--psi", "--k", "--out", "--format"},
    "extend": {"--k", "--beta", "--samples", "--seed", "--max-norm",
               "--budget", "--out", "--format"},
    "report": {"--out"},
}


def cli_options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Option strings, help aside, of each subcommand of ``parser``."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_cli_options_are_the_listed_set():
    from bachain import cli
    assert cli_options(cli.build_parser()) == CLI_OPTIONS


def test_detects_an_added_option():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("verify")
    p.add_argument("chain")
    p.add_argument("--psi")
    p.add_argument("--checks")
    assert cli_options(parser) == {"verify": {"--psi", "--checks"}}


#: The constant grammar, kept in ``realnum`` beside its inverse
#: ``expr_to_text``.
GRAMMAR_NAMES = {"_TOKEN_RE", "MAX_EXPR_DEPTH", "MAX_ROOT_INDEX",
                 "ExprSyntaxError", "_tokenize", "parse_expr"}


def top_level_names(path: Path) -> set[str]:
    """Names that ``path`` binds at its top level by def, class or
    assignment; imported names do not count."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_cli_defines_none_of_the_grammar():
    assert GRAMMAR_NAMES <= top_level_names(SRC / "realnum.py")
    assert top_level_names(SRC / "cli.py") & GRAMMAR_NAMES == set()


def test_detects_a_grammar_definition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .realnum import parse_expr\n"
                     "MAX_EXPR_DEPTH = 100\n"
                     "class ExprSyntaxError(ValueError):\n"
                     "    pass\n"
                     "def _tokenize(text):\n"
                     "    return []\n")
    assert top_level_names(probe) & GRAMMAR_NAMES == \
        {"MAX_EXPR_DEPTH", "ExprSyntaxError", "_tokenize"}


#: The psi spec grammar, kept in ``analysis`` beside ``PsiSpec``, whose
#: defaults are the only ones.
PSI_SPEC_NAMES = {"PSI_KEYS", "parse_psi"}


def test_cli_defines_none_of_the_psi_spec_grammar():
    assert PSI_SPEC_NAMES <= top_level_names(SRC / "analysis.py")
    assert top_level_names(SRC / "cli.py") & PSI_SPEC_NAMES == set()


def test_detects_a_psi_spec_definition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import analysis\n"
                     "PSI_KEYS = {'log': ('r', 'k', 'eps')}\n"
                     "def parse_psi(text, r):\n"
                     "    return analysis.PsiSpec('log', r)\n"
                     "def _psi_keys():\n"
                     "    return PSI_KEYS\n")
    assert top_level_names(probe) & PSI_SPEC_NAMES == PSI_SPEC_NAMES


def imported_from(path: Path, module: str) -> list[int]:
    """The lines at which ``path`` imports ``module`` (absolutely) or a
    name from it, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names
                      if a.name.partition(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == module:
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_dataclasses():
    # the record types are plain slotted classes: each dataclass would
    # generate and compile its methods again at every import
    lines = {p.name: imported_from(p, "dataclasses") for p in SRC.glob("*.py")}
    assert {name: found for name, found in lines.items() if found} == {}


def test_detects_a_dataclasses_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os, dataclasses\n"
                     "from .dataclasses import fields\n"
                     "def f():\n"
                     "    from dataclasses import replace\n"
                     "    return replace\n")
    assert imported_from(probe, "dataclasses") == [1, 4]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, as each CLI call starts one
    code = ("import sys, bachain.cli; print(bachain.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=os.environ | {"PYTHONPATH": path}).stdout
    assert out.splitlines() == [str(SRC / "cli.py"), "[]"]
