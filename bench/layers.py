"""Per-layer metrics of a traced pass, one layer per ``bachain`` module.

The traced functions are the public entry points the workloads reach,
plus ``extension._mixed_tails``, the criterion scan's tail generator,
whose yields are the only outside view of how many vectors the scan
visits.  Time in an untraced helper counts as self time of the traced
function that called it, so ``enumerator.scan.self_s`` is the residual
kernel of ``_shell_scan`` plus its bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Tracer
from workloads import shell_volume

MODULES = ("realnum", "linform", "enumerator", "analysis", "extension", "cli")

# name -> unit; the order is the order printed
METRICS = {
    "realnum.eval_interval.calls": "count",
    "realnum.eval_interval.s": "s",
    "realnum.nearest_integer.calls": "count",
    "realnum.self_s": "s",
    "linform.best_m0.calls": "count",
    "linform.best_m0.s": "s",
    "linform.zeta.calls": "count",
    "linform.self_s": "s",
    "enumerator.shell_tails.count": "count",
    "enumerator.shell_tails.s": "s",
    "enumerator.scans": "ratio",
    "enumerator.precision_used.bits": "bits",
    "enumerator.scan.self_s": "s",
    "enumerator.records.count": "count",
    "enumerator.oracle.s": "s",
    "enumerator.oracle.self_s": "s",
    "enumerator.self_s": "s",
    "analysis.run_checks.calls": "count",
    "analysis.run_checks.s": "s",
    "analysis.psi.s": "s",
    "analysis.series.s": "s",
    "analysis.self_s": "s",
    "extension.sample_betas.s": "s",
    "extension.lattice.calls": "count",
    "extension.lattice.points": "count",
    "extension.lattice.s": "s",
    "extension.omega.s": "s",
    "extension.criterion.calls": "count",
    "extension.criterion.passed": "count",
    "extension.criterion.skipped": "count",
    "extension.criterion.tails": "count",
    "extension.criterion.volume": "count",
    "extension.criterion.s": "s",
    "extension.compare.self_s": "s",
    "extension.self_s": "s",
    "cli.parse_chain.calls": "count",
    "cli.parse_chain.s": "s",
    "cli.serialize_chain.s": "s",
    "cli.output.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics that must repeat exactly for a fixed seed
COUNTS = tuple(n for n, u in METRICS.items() if u in ("count", "bits", "bytes")) \
    + ("enumerator.scans",)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def make_tracer(bc) -> Tracer:
    """A tracer over the entry points the workloads reach."""
    mixed_scan_volume = bc.extension.mixed_scan_volume

    def enum_info(tr, sid, args, kwargs, chain):
        tr.info[sid] = (chain.r, _arg(args, kwargs, 1, "M_max"),
                        chain.precision_used, len(chain.records))

    def oracle_info(tr, sid, args, kwargs, chain):
        tr.info[sid] = (chain.r, _arg(args, kwargs, 1, "M_max"))

    def lattice_info(tr, sid, args, kwargs, result):
        tr.info[sid] = (_arg(args, kwargs, 0, "M"), _arg(args, kwargs, 1, "k"))

    def criterion_info(tr, sid, args, kwargs, verdict):
        chain = _arg(args, kwargs, 0, "chain")
        beta = _arg(args, kwargs, 1, "beta")
        nu = _arg(args, kwargs, 2, "nu")
        tr.info[sid] = (verdict.passed, mixed_scan_volume(
            chain.r, beta.k, chain.records[nu].M))

    def compare_info(tr, sid, args, kwargs, report):
        tr.info[sid] = len(report.skipped_criteria)

    hooks = {
        "enumerator.enumerate_chain": enum_info,
        "enumerator.brute_force_oracle": oracle_info,
        "extension.lattice_inv_norm_sum": lattice_info,
        "extension.degeneracy_criterion": criterion_info,
        "extension.compare_extended": compare_info,
    }
    plain = (
        "realnum.eval_interval", "realnum.nearest_integer",
        "linform.best_m0", "linform.zeta",
        "analysis.run_checks", "analysis.check_psi_singular",
        "analysis.series_partial_sums",
        "extension.sample_betas", "extension.omega_bound",
        "extension.monte_carlo",
        "cli.main", "cli.parse_chain", "cli.serialize_chain",
    )
    targets = {name: ("call", None) for name in plain}
    targets.update((name, ("call", hook)) for name, hook in hooks.items())
    targets["enumerator.canonical_shell_tails"] = ("gen", None)
    targets["extension._mixed_tails"] = ("gen", None)
    return Tracer("bachain", targets)


def layer_metrics(tr: Tracer, wall: float, output_bytes: int):
    """Per-layer metrics of one traced pass, and the work-count checks
    that failed.  Module self times plus ``bench.self_s`` (time outside
    every span) add up to ``wall``."""
    names = [tr.names[i] for i in tr.name_id]
    selfs = tr.self_times()
    calls = defaultdict(int)
    incl = defaultdict(float)
    own = defaultdict(float)
    children = defaultdict(list)
    module_self = dict.fromkeys(MODULES, 0.0)
    top = 0.0
    for sid, name in enumerate(names):
        calls[name] += 1
        incl[name] += tr.dur[sid]
        own[name] += selfs[sid]
        module_self[name.split(".", 1)[0]] += selfs[sid]
        parent = tr.parent[sid]
        if parent < 0:
            top += tr.dur[sid]
        else:
            children[parent].append(sid)

    def yields_under(sid, gen):
        return sum(tr.yields[c] for c in children[sid] if names[c] == gen)

    failures = []
    scanned = volume = bits = records = 0
    lattice_points = crit_tails = crit_volume = crit_passed = skipped = 0
    for sid, name in enumerate(names):
        info = tr.info.get(sid)
        if name == "enumerator.enumerate_chain":
            r, M, prec, nrec = info
            tails = yields_under(sid, "enumerator.canonical_shell_tails")
            scanned += tails
            volume += shell_volume(r, M)
            bits += prec
            records += nrec
            if tails < shell_volume(r, M):
                failures.append(f"enumerate_chain r={r} M={M} visited "
                                f"{tails} < {shell_volume(r, M)} tails")
        elif name == "enumerator.brute_force_oracle":
            r, M = info
            tails = yields_under(sid, "enumerator.canonical_shell_tails")
            if tails != shell_volume(r, M):
                failures.append(f"oracle r={r} M={M} visited {tails} != "
                                f"{shell_volume(r, M)} tails")
        elif name == "extension.lattice_inv_norm_sum":
            M, k = info
            points = 2 * yields_under(sid, "enumerator.canonical_shell_tails")
            lattice_points += points
            if points != (2 * M + 1) ** k - 1:
                failures.append(f"lattice sum M={M} k={k} visited {points} "
                                f"!= {(2 * M + 1) ** k - 1} points")
        elif name == "extension.degeneracy_criterion":
            passed, vol = info
            tails = yields_under(sid, "extension._mixed_tails")
            crit_tails += tails
            crit_volume += vol
            crit_passed += passed
            if tails < 1 or (passed and tails < vol):
                failures.append(f"criterion {'passed' if passed else 'failed'}"
                                f" after {tails} of {vol} vectors")
        elif name == "extension.compare_extended":
            skipped += info

    gen_tails = sum(n for sid, n in tr.yields.items()
                    if names[sid] == "enumerator.canonical_shell_tails")
    m = {
        "realnum.eval_interval.calls": calls["realnum.eval_interval"],
        "realnum.eval_interval.s": incl["realnum.eval_interval"],
        "realnum.nearest_integer.calls": calls["realnum.nearest_integer"],
        "linform.best_m0.calls": calls["linform.best_m0"],
        "linform.best_m0.s": incl["linform.best_m0"],
        "linform.zeta.calls": calls["linform.zeta"],
        "enumerator.shell_tails.count": gen_tails,
        "enumerator.shell_tails.s": incl["enumerator.canonical_shell_tails"],
        "enumerator.scans": scanned / volume if volume else 0.0,
        "enumerator.precision_used.bits": bits,
        "enumerator.scan.self_s": own["enumerator.enumerate_chain"],
        "enumerator.records.count": records,
        "enumerator.oracle.s": incl["enumerator.brute_force_oracle"],
        "enumerator.oracle.self_s": own["enumerator.brute_force_oracle"],
        "analysis.run_checks.calls": calls["analysis.run_checks"],
        "analysis.run_checks.s": incl["analysis.run_checks"],
        "analysis.psi.s": incl["analysis.check_psi_singular"],
        "analysis.series.s": incl["analysis.series_partial_sums"],
        "extension.sample_betas.s": incl["extension.sample_betas"],
        "extension.lattice.calls": calls["extension.lattice_inv_norm_sum"],
        "extension.lattice.points": lattice_points,
        "extension.lattice.s": incl["extension.lattice_inv_norm_sum"],
        "extension.omega.s": incl["extension.omega_bound"],
        "extension.criterion.calls": calls["extension.degeneracy_criterion"],
        "extension.criterion.passed": crit_passed,
        "extension.criterion.skipped": skipped,
        "extension.criterion.tails": crit_tails,
        "extension.criterion.volume": crit_volume,
        "extension.criterion.s": incl["extension.degeneracy_criterion"],
        "extension.compare.self_s": own["extension.compare_extended"],
        "cli.parse_chain.calls": calls["cli.parse_chain"],
        "cli.parse_chain.s": incl["cli.parse_chain"],
        "cli.serialize_chain.s": incl["cli.serialize_chain"],
        "cli.output.bytes": output_bytes,
        "cli.main.self_s": own["cli.main"],
        "bench.self_s": wall - top,
        "trace.wall_s": wall,
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]
    return m, failures
