"""Command-line front end and the stable on-disk record formats.

Commands: ``enumerate`` (compute a chain), ``verify`` (run checks on a
chain file), ``extend`` (dimension-extension experiments), ``report``
(pretty-print a chain or report file).  Chain files are line-oriented so
they stream and diff cleanly; interval endpoints are serialized as exact
hex dyadics, never decimal floats, so parse(serialize(x)) is the identity
bit for bit; the reader recomputes each record's enclosure from its
vector, as the scan wrote it, and takes no endpoint from the file.

Exit codes are stable for scripting:
  0 success            3 suspected rational dependence
  1 failed check       4 precision cap exhausted
  2 usage/parse error  5 search budget exceeded
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from itertools import zip_longest
from typing import Optional, Sequence

from . import analysis
from .enumerator import BAChain, BestApprox, enumerate_chain, scan_volume
from .errors import (
    AmbiguousRounding,
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
from .linform import LinearForm, record_enclosure, scaled_constants
from .realnum import (
    PRECISION_CAP,
    START_PRECISION,
    Dyadic,
    DyadicInterval,
    checked_cap,
    expr_to_text,
    parse_expr,
    working_limit,
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
# Chain file format
# ---------------------------------------------------------------------------


def serialize_chain(chain: BAChain) -> str:
    """The chain file of ``chain``, with the precision cap it carries."""
    lines = [CHAIN_MAGIC,
             f"# r {chain.r}"]
    for alpha in chain.form.alphas:
        lines.append(f"# alpha {expr_to_text(alpha)}")
    lines.append(f"# search-bound {chain.search_bound}")
    lines.append(f"# precision-cap {chain.precision_cap}")
    lines.append(f"# precision-used {chain.precision_used}")
    for rec in chain.records:
        coords = " ".join(str(c) for c in rec.m)
        lines.append(f"{rec.index} {coords} {rec.M} "
                     f"{rec.zeta.lo.to_hex()} {rec.zeta.hi.to_hex()}")
    return "\n".join(lines) + "\n"


#: Header keys whose value is one integer.
_INT_HEADERS = ("r", "search-bound", "precision-cap", "precision-used")

_LAYOUT = "chain file line {} is not as serialize_chain writes it"


def parse_chain(text: str) -> BAChain:
    """Read a chain file, its ``precision-cap`` becoming the chain's cap.
    A file is accepted only if ``serialize_chain`` writes its chain back
    byte for byte, which rejects every other spelling, repeated or unknown
    header and stray byte.  Each record's enclosure is recomputed from its
    vector by the scan's rule, ``linform.record_enclosure``, so the round
    trip also certifies its form value, m0 and sign; a record missing
    after the last goes unseen."""
    lines = text.splitlines()
    if not lines or lines[0] != CHAIN_MAGIC:
        raise ValueError(f"not a chain file (missing {CHAIN_MAGIC!r})")
    alpha_texts: list[str] = []
    header: dict[str, int] = {}
    body: list[tuple[int, str]] = []
    for number, ln in enumerate(lines[1:], 2):
        if ln.startswith("#"):
            key, _, val = ln[1:].strip().partition(" ")
            if key == "alpha":
                alpha_texts.append(val)
            elif key in _INT_HEADERS:
                header[key] = int(val)
        else:
            body.append((number, ln))
    try:
        r = header["r"]
        search_bound = header["search-bound"]
        precision_cap = checked_cap(header["precision-cap"])
        precision_used = header["precision-used"]
    except KeyError:
        raise ValueError("chain file header incomplete") from None
    if not START_PRECISION <= precision_used <= working_limit(precision_cap):
        raise ValueError(f"precision-used {precision_used} outside "
                         f"[{START_PRECISION}, {working_limit(precision_cap)}]")
    if len(alpha_texts) != r:
        raise ValueError(f"header lists {len(alpha_texts)} constants, r = {r}")
    form = LinearForm(tuple(parse_expr(t, precision_cap) for t in alpha_texts))
    rows = []
    for number, ln in body:
        fields = ln.split()
        if len(fields) != r + 5:
            raise ValueError(f"malformed record line: {ln!r}")
        index, *m, M = map(int, fields[:-2])
        # bounded before any constant is evaluated at the stated rung
        if _too_wide(m[1:], *fields[-2:], precision_used + 2):
            raise ValueError(_LAYOUT.format(number))
        rows.append((index, m, M))
    binding = scaled_constants(form.alphas, precision_used, precision_cap)
    records = []
    for index, m, M in rows:
        try:
            zeta = record_enclosure(m, binding)
            records.append(BestApprox(index, tuple(m), M, zeta))
        except (AmbiguousRounding, ValueError) as exc:
            raise ValueError(f"record {index}: {exc}") from None
    if not records:  # shell 1 always gives record 1
        raise ValueError("chain file has no records")
    if search_bound < records[-1].M:
        raise ValueError(f"search-bound {search_bound} is below record "
                         f"{records[-1].index}'s M = {records[-1].M}")
    chain = BAChain(form=form, records=tuple(records),
                    search_bound=search_bound, precision_used=precision_used,
                    precision_cap=precision_cap)
    written = serialize_chain(chain)
    if written != text:
        pairs = zip_longest(text.splitlines(True), written.splitlines(True))
        raise ValueError(_LAYOUT.format(next(
            i for i, (got, want) in enumerate(pairs, 1) if got != want)))
    return chain


#: A record endpoint as ``Dyadic.to_hex`` writes it: below 1/2, with an
#: exponent short enough to shift at once; the round trip judges the rest.
_ENDPOINT = re.compile(r"(-?0x[0-9a-f]+)p(0|-[1-9][0-9]{0,5})")


def _too_wide(tail: Sequence[int], lo: str, hi: str, grid: int) -> bool:
    """Whether [lo, hi] is wider than ``record_enclosure`` makes it for
    ``tail`` on the 2**-grid scale, where ``eval_interval`` encloses each
    constant within 4 steps and ``scaled_constants``' floor and ceil add
    under a step at each end: fewer than 6 * sum |m_j| steps in all."""
    ends = [_ENDPOINT.fullmatch(t) for t in (lo, hi)]
    if not all(ends):
        return False
    lo, hi = (Dyadic(int(e[1], 16), int(e[2])) for e in ends)
    return (hi.ceil_scaled(grid) - lo.floor_scaled(grid)
            > 6 * sum(map(abs, tail)))


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _digits9(d: Dyadic) -> str:
    """``d`` as ``f"{float(d):.9g}"`` writes it; a value above the float
    range in that style, rounded half to even from the exact integers."""
    try:
        return f"{float(d):.9g}"
    except OverflowError:
        pass
    num, den = abs(d.man) << max(d.exp, 0), 1 << max(-d.exp, 0)
    e = (num.bit_length() - den.bit_length()) * 301029995 // 10 ** 9
    while num >= den * 10 ** (e + 1):  # e starts at most floor(log10 |d|)
        e += 1
    q, rem = divmod(num, unit := den * 10 ** (e - 8))
    if 2 * rem > unit or 2 * rem == unit and q & 1:
        q += 1
    n = len(str(q))  # 10 when rounding carries to 10**9
    return f"{'-' * (d.man < 0)}{q / 10 ** (n - 1):.9g}e+{e + n - 9}"


def _interval_text(iv: DyadicInterval) -> str:
    return f"[{_digits9(iv.lo)}, {_digits9(iv.hi)}]"


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
    out = [REPORT_MAGIC] + [f"check {v}" for v in report.verdicts.values()]
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
    form = LinearForm(tuple(parse_expr(a, args.precision_cap)
                            for a in args.alpha))
    SearchTooLarge.check(scan_volume(form.r, args.max_norm), args.budget,
                         f"scan in dimension {form.r} to max-norm {args.max_norm}")
    chain = enumerate_chain(form, args.max_norm, cap=args.precision_cap)
    _emit(serialize_chain(chain), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.chain) as fh:
        chain = parse_chain(fh.read())
    psi = None if args.psi is None else analysis.parse_psi(args.psi, chain.r)
    report = analysis.run_checks(chain, psi=psi, series_k=args.k)
    if args.format == "machine":
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              args.out)
    else:
        _emit(render_report_text(report), args.out)
    return EXIT_OK if report.theorem_checks_pass else EXIT_CHECK_FAILED


def cmd_extend(args: argparse.Namespace) -> int:
    with open(args.chain) as fh:
        chain = parse_chain(fh.read())
    m_max = chain.search_bound if args.max_norm is None else args.max_norm
    if args.beta:
        if args.samples is not None or args.seed is not None:
            raise ValueError("--samples and --seed apply only to sampled "
                             "runs, not to --beta")
        if len(args.beta) != args.k:
            raise ValueError(f"expected {args.k} --beta expressions")
        values = tuple(parse_expr(b, chain.precision_cap) for b in args.beta)
        beta = BetaSample(values=values, seed=None,
                          recipe="explicit: " + ", ".join(args.beta))
        result = compare_extended(chain, beta, m_max, budget=args.budget)
    else:
        seed = args.seed
        if seed is None:
            seed = random.SystemRandom().randrange(1 << 30)
            print(f"generated seed {seed}", file=sys.stderr)
        samples = 1 if args.samples is None else args.samples
        result = monte_carlo(chain, k=args.k, samples=samples,
                             seed=seed, M_max=m_max, budget=args.budget)
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
        out.append(f"extra records {data['extra_records']}")
        out.append(f"missing base indices {data['missing_base_indices']}")
        out.append(f"match horizon {data['match_horizon']}")
    for nu, iv in sorted(result.omega_table.items()):
        out.append(f"omega bound nu={nu}: "
                   f"[{float(iv.lo):.6g}, {float(iv.hi):.6g}]")
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
        raise ValueError("unrecognized file format")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it as
    it was."""
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
    p_verify.add_argument("--psi", help="psi spec, e.g. 'log:k=1,eps=1/10' "
                                        "or 'power:coeff=1/2,exp=1'")
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
    _add_options(p_ext, "budget", "out", "format")
    p_ext.set_defaults(func=cmd_extend)

    p_rep = sub.add_parser("report", help="pretty-print a chain/report file")
    p_rep.add_argument("file")
    _add_options(p_rep, "out")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    k = getattr(args, "k", None)
    if k is not None and not 1 <= k <= analysis.MAX_K:
        parser.error(f"--k must be >= 1 and at most {analysis.MAX_K}")
    if "budget" in args and args.budget < 0:
        parser.error("--budget must be >= 0")
    try:
        if "precision_cap" in args:
            checked_cap(args.precision_cap)
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
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
