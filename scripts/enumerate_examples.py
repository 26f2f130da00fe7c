#!/usr/bin/env python3
"""Enumerate the classic example chains and run every certified check.

Prints one block per form: the chain table, the check verdicts, the
window determinants, and the convergence-diagnostic partial sums.
"""

import sys
import time

from bachain import analysis, enumerate_chain, parse_expr
from bachain.cli import render_chain_text
from bachain.linform import LinearForm

EXAMPLES = [
    ("sqrt(2)", ["root(2,2)"], 10 ** 4),
    ("golden ratio - 1", ["(1+root(5,2))/2 - 1"], 10 ** 4),
    ("sqrt(5) - 2", ["root(5,2)-2"], 10 ** 4),
    ("sqrt(3) - 1", ["root(3,2)-1"], 10 ** 4),
    ("cbrt(2), cbrt(4)", ["root(2,3)", "root(4,3)"], 200),
    ("sqrt(2), sqrt(3)", ["root(2,2)", "root(3,2)"], 200),
    ("sqrt(2), sqrt(3), sqrt(5)", ["root(2,2)", "root(3,2)", "root(5,2)"], 60),
]


def main() -> int:
    for label, alpha_texts, bound in EXAMPLES:
        form = LinearForm(tuple(parse_expr(t) for t in alpha_texts))
        t0 = time.time()
        chain = enumerate_chain(form, bound)
        elapsed = time.time() - t0
        print("=" * 72)
        print(f"{label}: bound {bound}, {len(chain.records)} records, "
              f"{elapsed:.2f}s")
        print(render_chain_text(chain))
        report = analysis.run_checks(chain, series_k=1)
        for verdict in report.verdicts.values():
            print(f"  {verdict}")
        if report.determinants:
            print(f"  determinants: {list(report.determinants.values())}")
        if report.series_sums:
            last = report.series_sums[-1]
            print(f"  series (k=1) S_{len(report.series_sums)} ~ "
                  f"[{float(last.lo):.4g}, {float(last.hi):.4g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
