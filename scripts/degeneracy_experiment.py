#!/usr/bin/env python3
"""Run a seeded dimension-extension experiment from a config file.

Usage:
    python scripts/degeneracy_experiment.py experiment.cfg [out.json]

The config format is line-oriented ``key value`` (see README); the run is
fully reproducible from the file contents.  Every scan the run makes is
checked against the config's ``budget`` before any work.  Writes the
aggregate as JSON and prints a short text summary including the
per-index measure-bound table and the padded-chain match counts.
"""

import json
import sys
import time

from bachain import load_experiment_config, monte_carlo, parse_expr
from bachain.linform import LinearForm


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        cfg = load_experiment_config(fh.read())
    out_path = argv[2] if len(argv) > 2 else None

    form = LinearForm(tuple(parse_expr(t, cfg.precision_cap)
                            for t in cfg.alphas))
    t0 = time.time()
    # no chain given: monte_carlo checks every scan against the budget,
    # then enumerates the base chain to max-norm
    result = monte_carlo(form, None, k=cfg.k, samples=cfg.samples,
                         seed=cfg.seed, M_max=cfg.max_norm,
                         budget=cfg.budget, cap=cfg.precision_cap)
    elapsed = time.time() - t0

    # matched_beyond has one entry per base record
    print(f"base chain: {len(result.matched_beyond)} records up to norm "
          f"{cfg.max_norm}; {cfg.samples} samples in {elapsed:.1f}s")
    print(f"match horizons: {result.horizons}")
    for nu, count in sorted(result.matched_beyond.items()):
        print(f"  matched beyond index {nu}: {count}/{cfg.samples}")
    for nu, iv in sorted(result.omega_table.items()):
        print(f"  measure bound at index {nu}: "
              f"[{float(iv.lo):.5g}, {float(iv.hi):.5g}]")
    print(result.regime_note)

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
