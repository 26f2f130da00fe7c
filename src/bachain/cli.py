"""Command-line front end and the stable on-disk record formats.

Commands: ``enumerate`` (compute a chain), ``verify`` (run checks on a
chain file), ``extend`` (dimension-extension experiments), ``report``
(pretty-print a chain or report file).  Chain files are line-oriented so
they stream and diff cleanly; interval endpoints are serialized as exact
hex dyadics, never decimal floats, so parse(serialize(x)) is the identity
bit for bit.

Exit codes are stable for scripting:
  0 success            3 suspected rational dependence
  1 failed check       4 precision cap exhausted
  2 usage/parse error  5 search budget exceeded
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import analysis
from .enumerator import BAChain, BestApprox, enumerate_chain
from .errors import (
    DependenceSuspected,
    DomainError,
    PrecisionExhausted,
    SearchTooLarge,
)
from .extension import (
    BetaSample,
    DEFAULT_BUDGET,
    compare_extended,
    monte_carlo,
)
from .linform import LinearForm
from .realnum import (
    PRECISION_CAP,
    Dyadic,
    DyadicInterval,
    RealExpr,
    expr_to_text,
    rational,
    root,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEPENDENCE = 3
EXIT_PRECISION = 4
EXIT_BUDGET = 5

CHAIN_MAGIC = "# bachain-chain v1"
REPORT_MAGIC = "bachain-report v1"


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|root|[()+\-*/,])")


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> RealExpr:
    """Parse the constant grammar: integers, + - * /, parentheses, and
    root(x, n) for the n-th root of x."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprSyntaxError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ExprSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_sum() -> RealExpr:
        node = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_product() -> RealExpr:
        node = parse_unary()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_unary()
            if op == "*":
                node = node * rhs
            elif node.is_rational_literal() and rhs.is_rational_literal():
                # fold so that literals like 1/2 or -3/7 round-trip as
                # single rational nodes
                if rhs.value == 0:
                    raise ExprSyntaxError("division by zero")
                node = rational(node.value / rhs.value)
            else:
                node = node / rhs
        return node

    def parse_unary() -> RealExpr:
        if peek() == "-":
            take()
            inner = parse_unary()
            if inner.is_rational_literal():
                return rational(-inner.value)
            return -inner
        return parse_atom()

    def parse_atom() -> RealExpr:
        tok = peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if tok == "(":
            take()
            node = parse_sum()
            take(")")
            return node
        if tok == "root":
            take()
            take("(")
            radicand = parse_sum()
            take(",")
            index = take()
            if not index.isdigit():
                raise ExprSyntaxError("root index must be an integer")
            take(")")
            return root(radicand, int(index))
        if tok.isdigit():
            take()
            return rational(int(tok))
        raise ExprSyntaxError(f"unexpected token {tok!r}")

    node = parse_sum()
    if pos != len(tokens):
        raise ExprSyntaxError(f"trailing input from token {tokens[pos]!r}")
    return node


# ---------------------------------------------------------------------------
# Chain file format
# ---------------------------------------------------------------------------


def serialize_chain(chain: BAChain, precision_cap: int = PRECISION_CAP) -> str:
    lines = [CHAIN_MAGIC,
             f"# r {chain.r}"]
    for alpha in chain.form.alphas:
        lines.append(f"# alpha {expr_to_text(alpha)}")
    lines.append(f"# search-bound {chain.search_bound}")
    lines.append(f"# precision-cap {precision_cap}")
    lines.append(f"# precision-used {chain.precision_used}")
    for rec in chain.records:
        coords = " ".join(str(c) for c in rec.m)
        lines.append(f"{rec.index} {coords} {rec.M} "
                     f"{rec.zeta.lo.to_hex()} {rec.zeta.hi.to_hex()}")
    return "\n".join(lines) + "\n"


def parse_chain(text: str) -> BAChain:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CHAIN_MAGIC:
        raise ValueError(f"not a chain file (missing {CHAIN_MAGIC!r})")
    r: Optional[int] = None
    alphas: list[RealExpr] = []
    search_bound: Optional[int] = None
    precision_used: Optional[int] = None
    body: list[str] = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            parts = ln[1:].strip().split(None, 1)
            if not parts:
                continue
            key = parts[0]
            val = parts[1] if len(parts) > 1 else ""
            if key == "r":
                r = int(val)
            elif key == "alpha":
                alphas.append(parse_expr(val))
            elif key == "search-bound":
                search_bound = int(val)
            elif key == "precision-used":
                precision_used = int(val)
            # precision-cap and unknown keys: provenance only
        else:
            body.append(ln)
    if r is None or search_bound is None or precision_used is None:
        raise ValueError("chain file header incomplete")
    if len(alphas) != r:
        raise ValueError(f"header lists {len(alphas)} constants, r = {r}")
    form = LinearForm(tuple(alphas))
    records = []
    for ln in body:
        fields = ln.split()
        if len(fields) != r + 5:
            raise ValueError(f"malformed record line: {ln!r}")
        index = int(fields[0])
        m = tuple(int(x) for x in fields[1:r + 2])
        M = int(fields[r + 2])
        zeta = DyadicInterval(Dyadic.from_hex(fields[r + 3]),
                              Dyadic.from_hex(fields[r + 4]))
        records.append(BestApprox(index=index, m=m, M=M, zeta=zeta))
    return BAChain(form=form, records=tuple(records),
                   search_bound=search_bound, precision_used=precision_used)


# ---------------------------------------------------------------------------
# psi specification strings
# ---------------------------------------------------------------------------


def parse_psi(text: str) -> analysis.PsiSpec:
    """Parse 'family:key=value,...', e.g. 'log:r=2,k=1,eps=1/10' or
    'power:r=1,coeff=1/2,exp=1'."""
    if ":" not in text:
        raise ValueError("psi spec must look like family:key=value,...")
    family, _, rest = text.partition(":")
    kv = {}
    for part in rest.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        kv[key.strip()] = val.strip()

    def frac(s: str) -> Fraction:
        return Fraction(s)

    if family == "power":
        return analysis.PsiSpec(
            family="power", r=int(kv.get("r", "1")), k=int(kv.get("k", "1")),
            coeff=frac(kv.get("coeff", "1")),
            power_exp=frac(kv.get("exp", "0")))
    if family in ("log", "loglog"):
        return analysis.PsiSpec(
            family=family, r=int(kv["r"]), k=int(kv.get("k", "1")),
            eps=frac(kv.get("eps", "1/10")))
    raise ValueError(f"unknown psi family {family!r}")


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _interval_text(iv: DyadicInterval) -> str:
    return f"[{float(iv.lo):.9g}, {float(iv.hi):.9g}]"


def render_chain_text(chain: BAChain) -> str:
    out = [f"chain: r={chain.r}, {len(chain.records)} records, "
           f"search bound {chain.search_bound}"]
    for j, alpha in enumerate(chain.form.alphas, start=1):
        out.append(f"  alpha[{j}] = {expr_to_text(alpha)}")
    out.append(f"  {'nu':>4} {'M':>10}  vector / form value enclosure")
    for rec in chain.records:
        out.append(f"  {rec.index:>4} {rec.M:>10}  m={rec.m} "
                   f"zeta={_interval_text(rec.zeta)}")
    return "\n".join(out)


def render_report_text(report: analysis.ChainReport) -> str:
    out = [REPORT_MAGIC]
    for name, verdict in report.verdicts.items():
        out.append(f"check {verdict}")
    if report.determinants:
        table = " ".join(f"{nu}:{d}" for nu, d in
                         sorted(report.determinants.items()))
        out.append(f"determinants {table}")
    if report.tail_ranks:
        table = " ".join(f"{nu}:{rk}" for nu, rk in
                         sorted(report.tail_ranks.items()))
        out.append(f"tail-ranks {table}")
    if report.series_k is not None:
        out.append(f"series k={report.series_k} partial sums:")
        for i, s in enumerate(report.series_sums, start=1):
            out.append(f"  S_{i} = {_interval_text(s)}")
    for note in report.notes:
        out.append(f"note {note}")
    return "\n".join(out)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        alphas = tuple(parse_expr(a) for a in args.alpha)
        form = LinearForm(alphas)
        # one scan visits one tail per +-pair of the nonzero box points
        tails = ((2 * args.max_norm + 1) ** form.r - 1) // 2
        if tails > args.budget:
            raise SearchTooLarge(
                f"scan to max-norm {args.max_norm} in dimension {form.r} "
                f"visits {tails} tails > budget {args.budget}")
        chain = enumerate_chain(form, args.max_norm, cap=args.precision_cap)
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(serialize_chain(chain, args.precision_cap), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.chain) as fh:
        chain = parse_chain(fh.read())
    psi = parse_psi(args.psi) if args.psi else None
    selected = set(args.checks.split(",")) if args.checks else None
    report = analysis.run_checks(chain, psi=psi, series_k=args.k,
                                 selected=selected)
    if args.format == "machine":
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              args.out)
    else:
        _emit(render_report_text(report), args.out)
    return EXIT_OK if report.theorem_checks_pass else EXIT_CHECK_FAILED


def cmd_extend(args: argparse.Namespace) -> int:
    with open(args.chain) as fh:
        chain = parse_chain(fh.read())
    form = chain.form
    m_max = chain.search_bound if args.max_norm is None else args.max_norm
    if args.beta:
        if args.samples is not None or args.seed is not None:
            print("error: --samples and --seed apply only to sampled runs, "
                  "not to --beta", file=sys.stderr)
            return EXIT_USAGE
        if len(args.beta) != args.k:
            print(f"error: expected {args.k} --beta expressions",
                  file=sys.stderr)
            return EXIT_USAGE
        values = tuple(parse_expr(b) for b in args.beta)
        beta = BetaSample(values=values, seed=None,
                          recipe="explicit: " + ", ".join(args.beta))
        result = compare_extended(form, beta, m_max, base_chain=chain,
                                  budget=args.budget, cap=args.precision_cap)
    else:
        seed = args.seed
        if seed is None:
            seed = random.SystemRandom().randrange(1 << 30)
            print(f"generated seed {seed}", file=sys.stderr)
        samples = 1 if args.samples is None else args.samples
        result = monte_carlo(form, chain, k=args.k, samples=samples,
                             seed=seed, M_max=m_max, budget=args.budget,
                             cap=args.precision_cap)
    if args.format == "machine":
        _emit(json.dumps(result.to_dict(), indent=2, sort_keys=True),
              args.out)
    else:
        _emit(_render_extension_text(result), args.out)
    return EXIT_OK


def _render_extension_text(result) -> str:
    out = [REPORT_MAGIC]
    data = result.to_dict()
    if "match_horizons" in data:  # Monte Carlo aggregate
        out.append(f"samples {data['samples']} seed {data['seed']} "
                   f"k {data['k']} bound {data['search_bound']}")
        out.append(f"sample seeds {data['sample_seeds']}")
        out.append(f"match horizons {data['match_horizons']}")
        for nu, cnt in data["matched_beyond"].items():
            out.append(f"matched beyond index {nu}: {cnt}/{data['samples']}")
    else:
        out.append(f"k {data['k']} bound {data['search_bound']} "
                   f"beta seed {data['beta_seed']}")
        out.append(f"beta {data['beta_recipe']}")
        for nu, v in data["criterion"].items():
            status = "pass" if v["passed"] else "fail"
            extra = f" witness {v['witness']}" if "witness" in v else ""
            out.append(f"criterion nu={nu}: {status}{extra}")
        for nu, why in data["criterion_skipped"].items():
            out.append(f"criterion nu={nu}: skipped ({why})")
        out.append(f"extra records {data['extra_records']}")
        out.append(f"missing base indices {data['missing_base_indices']}")
        out.append(f"match horizon {data['match_horizon']}")
    for nu, pair in data["omega_bounds"].items():
        lo = float(Dyadic.from_hex(pair[0]))
        hi = float(Dyadic.from_hex(pair[1]))
        out.append(f"omega bound nu={nu}: [{lo:.6g}, {hi:.6g}]")
    out.append(f"regime: {data['regime_note']}")
    return "\n".join(out)


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.file) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith(CHAIN_MAGIC):
        _emit(render_chain_text(parse_chain(text)), args.out)
    elif stripped.startswith("{"):
        _emit(json.dumps(json.loads(text), indent=2, sort_keys=True),
              args.out)
    elif stripped.startswith(REPORT_MAGIC):
        _emit(text, args.out)
    else:
        print("error: unrecognized file format", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_OPTIONS = {
    "precision-cap": dict(type=int, default=PRECISION_CAP,
                          help="refinement cap in bits (default %(default)s)"),
    "budget": dict(type=int, default=DEFAULT_BUDGET,
                   help="most vectors one scan may visit "
                        "(default %(default)s)"),
    "out": dict(help="write output to this file instead of stdout"),
    "format": dict(choices=("text", "machine"), default="text",
                   help="report flavor: human text or JSON"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared options a subcommand actually reads."""
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bachain",
        description="best-approximation chains of linear forms: "
                    "enumeration, certified checks, extension experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="compute a chain")
    p_enum.add_argument("--alpha", action="append", required=True,
                        help="constant expression, once per dimension "
                             "(e.g. 'root(2,2)')")
    p_enum.add_argument("--max-norm", type=int, required=True,
                        help="largest tail max-norm to scan")
    _add_options(p_enum, "precision-cap", "budget", "out")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run checks on a chain file")
    p_verify.add_argument("chain", help="chain file from 'enumerate'")
    p_verify.add_argument("--checks",
                          help="comma list: monotonic,minkowski,growth,"
                               "polytope,determinants,ranks,psi,series "
                               "(default: all)")
    p_verify.add_argument("--psi", help="psi spec, e.g. 'log:r=2,k=1,eps=1/10' "
                                        "or 'power:r=1,coeff=1/2,exp=1'")
    p_verify.add_argument("--k", type=int,
                          help="series diagnostic extension count")
    _add_options(p_verify, "out", "format")
    p_verify.set_defaults(func=cmd_verify)

    p_ext = sub.add_parser("extend", help="dimension-extension experiment")
    p_ext.add_argument("chain", help="base chain file")
    p_ext.add_argument("--k", type=int, required=True,
                       help="number of extension constants (>= 1)")
    p_ext.add_argument("--beta", action="append",
                       help="explicit extension constant (k times)")
    p_ext.add_argument("--samples", type=int,
                       help="number of seeded samples when no --beta "
                            "(default: 1)")
    p_ext.add_argument("--seed", type=int,
                       help="seed for sampled runs (generated if omitted)")
    p_ext.add_argument("--max-norm", type=int,
                       help="search bound (default: the chain's)")
    _add_options(p_ext, "precision-cap", "budget", "out", "format")
    p_ext.set_defaults(func=cmd_extend)

    p_rep = sub.add_parser("report", help="pretty-print a chain/report file")
    p_rep.add_argument("file")
    _add_options(p_rep, "out")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", None) is not None and args.command == "extend" \
            and args.k < 1:
        parser.error("--k must be >= 1")
    try:
        return args.func(args)
    except DependenceSuspected as exc:
        print(f"dependence suspected: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except SearchTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ExprSyntaxError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
