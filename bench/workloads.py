"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload is single-process and single-threaded, and calls the
package in-process: ``chains`` and ``extend-mc`` through
``bachain.cli.main`` as a user of the command line would, ``crosscheck``
through the library functions the release gate uses.  A pass does the
same work every time for a given seed, so counts repeat exactly and the
outputs of every pass must be byte-identical to those of the first.

Sizes come from measurements of the seed commit on a 2 vCPU box
(Python 3.11.7); see README.md in this directory.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

DEFAULT_SEED = 1

# Square and cube roots of distinct primes: 1 and any set of them are
# linearly independent over the rationals, so no operation can fail with
# suspected dependence.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# The chains workload's verify sweep costs time in proportion to the chain
# lengths, which differ from one set of constants to the next (9 to 19
# records for r=1 at M=200000).  So its forms are fixed tuples from the
# pool, and the seed applies what leaves every norm and form value
# unchanged: an integer shift and a sign per constant, and an order.
CHAIN_BASES = {
    1: ("root(2,3)",),
    2: ("root(5,2)", "root(13,3)"),
    3: ("root(5,2)", "root(3,2)", "root(19,2)"),
}

GOLDEN_MINUS_1 = "(1+root(5,2))/2 - 1"

POWER_EXPS = ("1/2", "1", "3/2", "2", "5/2", "3", "7/2")
LOG_EPS = ("1/20", "1/10", "1/2", "1", "2")

SIZES = {
    "full": {
        "chains": {"forms": ((1, 200_000), (2, 220), (3, 30))},
        "crosscheck": {"forms": ((2, 100), (3, 20))},
        "extend-mc": {"base_norm": 100, "k": 2, "max_norm": 20,
                      "samples": 2},
    },
    "tiny": {
        "chains": {"forms": ((1, 2_000), (2, 30), (3, 8))},
        "crosscheck": {"forms": ((2, 15), (3, 5))},
        "extend-mc": {"base_norm": 30, "k": 2, "max_norm": 6,
                      "samples": 1},
    },
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shell_volume(r: int, M: int) -> int:
    """Canonical tails with max-norm 1..M: sum of ((2m+1)^r-(2m-1)^r)/2."""
    return ((2 * M + 1) ** r - 1) // 2


def pick_constants(rng: random.Random, r: int) -> list[str]:
    primes = rng.sample(PRIMES, r)
    return [f"root({p},{rng.choice((2, 3))})" for p in primes]


def shift_constants(rng: random.Random, bases) -> list[str]:
    return [f"{rng.randrange(10)} {rng.choice('+-')} {base}"
            for base in rng.sample(bases, len(bases))]


@dataclass
class PassResult:
    """One pass: when it and each of its operations ran, and outcomes.

    ``span`` and ``intervals`` hold perf_counter readings; the runner
    turns them into ``wall`` and ``times`` (seconds) once the pass ends.
    """

    span: tuple = (0.0, 0.0)
    intervals: dict = field(default_factory=dict)  # op kind -> [(start, end)]
    wall: float = 0.0
    times: dict = field(default_factory=dict)      # op kind -> [seconds]
    ops: int = 0
    failures: list = field(default_factory=list)  # human-readable reasons
    outputs: dict = field(default_factory=dict)   # label -> bytes
    results: list = field(default_factory=list)   # objects the checks need

    def timed(self, kind: str, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        self.intervals.setdefault(kind, []).append((t0, perf_counter()))
        self.ops += 1
        return result

    def measure(self, seconds) -> None:
        """Fill ``wall`` and ``times`` with ``seconds(start, end)``."""
        self.wall = seconds(*self.span)
        self.times = {kind: [seconds(a, b) for a, b in ivs]
                      for kind, ivs in self.intervals.items()}

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def output_bytes(self) -> int:
        return sum(len(v) for v in self.outputs.values())


class Workload:
    """Base: holds the package modules, the work directory and the
    workload's random generator, seeded from the benchmark seed."""

    name = ""
    cli_outputs = True  # outputs are files the command line wrote

    def __init__(self, bc, work, seed: int, size: dict):
        self.bc = bc
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, res: PassResult) -> None:
        """Output checks, run after the pass and outside its timing."""

    def op_ms(self, passes: list) -> float:
        """``op_p50_ms``: the median over passes of the time of the
        workload's unit operation in a pass."""
        raise NotImplementedError

    def summary(self, passes: list) -> dict:
        """Workload-specific end-to-end figures for the printed summary."""
        return {}

    def _read(self, res: PassResult, label: str, path) -> bytes:
        data = path.read_bytes() if path.exists() else b""
        res.outputs[label] = data
        return data


def _per_pass(passes, kind):
    return [sum(p.times.get(kind, ())) for p in passes]


class Chains(Workload):
    """``bachain enumerate`` on an r=1, r=2 and r=3 form, then a
    ``verify --format machine`` sweep over the three chain files."""

    name = "chains"

    def __init__(self, bc, work, seed, size):
        super().__init__(bc, work, seed, size)
        self.forms = []
        for r, M in size["forms"]:
            alphas = shift_constants(self.rng, CHAIN_BASES[r])
            path = work / f"r{r}.chain"
            argv = ["enumerate"]
            for a in alphas:
                argv += ["--alpha", a]
            argv += ["--max-norm", str(M), "--out", str(path)]
            self.forms.append((r, M, path, argv))
        self.verify_calls = []
        for r, _, path, _ in self.forms:
            for k in (1, 2):
                specs = [f"power:r={r},k={k},coeff=1/2,exp={e}"
                         for e in POWER_EXPS]
                specs += [f"{fam}:r={r},k={k},eps={e}"
                          for fam in ("log", "loglog") for e in LOG_EPS]
                for spec in specs:
                    out = work / f"verify-{len(self.verify_calls):03d}.json"
                    argv = ["verify", str(path), "--psi", spec, "--k", str(k),
                            "--format", "machine", "--out", str(out)]
                    self.verify_calls.append((r, out, argv))

    def run_pass(self) -> PassResult:
        main = self.bc.cli.main
        res = PassResult()
        t0 = perf_counter()
        for r, _, _, argv in self.forms:
            if res.timed("enumerate", main, argv) != 0:
                res.fail(f"enumerate r={r} exited nonzero")
        for r, _, argv in self.verify_calls:
            if res.timed("verify", main, argv) != 0:
                res.fail(f"verify {argv[3]} on r={r} exited nonzero")
        res.span = (t0, perf_counter())
        return res

    def check(self, res: PassResult) -> None:
        cli, enumerator = self.bc.cli, self.bc.enumerator
        for r, M, path, _ in self.forms:
            text = self._read(res, path.name, path).decode()
            try:
                chain = cli.parse_chain(text)
            except ValueError as exc:
                res.fail(f"r={r} chain file does not parse: {exc}")
                continue
            if cli.serialize_chain(chain) != text:
                res.fail(f"r={r} chain file does not round-trip")
            if chain.search_bound != M or not chain.records:
                res.fail(f"r={r} chain has no records up to {M}")
            if r == 1:
                qs = enumerator.convergent_denominators(chain.form.alphas[0], M)
                if [rec.M for rec in chain.records] != qs:
                    res.fail("r=1 record norms differ from the convergent "
                             "denominators")
        for r, out, argv in self.verify_calls:
            data = self._read(res, out.name, out)
            try:
                report = json.loads(data)
            except ValueError:
                res.fail(f"verify output {out.name} is not JSON")
                continue
            for check in ("monotonic", "minkowski", "growth", "polytope"):
                status = report["verdicts"].get(check, {}).get("status")
                if status not in ("pass", "skipped"):
                    res.fail(f"{out.name}: theorem check {check} is {status}")
            if r == 1:
                dets = [report["determinants"][k]
                        for k in sorted(report["determinants"], key=int)]
                # the sign the alternation starts with is an open
                # convention question; only +-1 and alternation are facts
                if any(abs(d) != 1 for d in dets) or any(
                        a != -b for a, b in zip(dets, dets[1:])):
                    res.fail(f"{out.name}: r=1 determinants {dets} are not "
                             "alternating +-1")

    def op_ms(self, passes) -> float:
        return 1000 * statistics.median(
            statistics.fmean(p.times["verify"]) for p in passes)

    def summary(self, passes) -> dict:
        verify = [t for p in passes for t in p.times["verify"]]
        return {
            "enumerate_s": (statistics.median(_per_pass(passes, "enumerate")),
                            "s"),
            "verify_p50_ms": (1000 * statistics.median(verify), "ms"),
            "verify_p90_ms": (1000 * statistics.quantiles(verify, n=10)[-1],
                              f"ms (n={len(verify)})"),
        }


class Crosscheck(Workload):
    """``brute_force_oracle`` against ``enumerate_chain`` on an r=2 and an
    r=3 form; the records must be identical."""

    name = "crosscheck"
    cli_outputs = False

    def __init__(self, bc, work, seed, size):
        super().__init__(bc, work, seed, size)
        self.forms = [(r, M, pick_constants(self.rng, r))
                      for r, M in size["forms"]]

    def _form(self, alphas):
        parse = self.bc.cli.parse_expr
        return self.bc.linform.LinearForm(tuple(parse(a) for a in alphas))

    def run_pass(self) -> PassResult:
        enumerator = self.bc.enumerator
        res = PassResult()
        t0 = perf_counter()
        for r, M, alphas in self.forms:
            # fresh constant trees per side: interval caches live on them
            oracle = res.timed("oracle", enumerator.brute_force_oracle,
                               self._form(alphas), M)
            chain = res.timed("enumerate", enumerator.enumerate_chain,
                              self._form(alphas), M)
            res.results.append((r, oracle, chain))
        res.span = (t0, perf_counter())
        return res

    def check(self, res: PassResult) -> None:
        for r, oracle, chain in res.results:
            got = [(rec.index, rec.m, rec.M) for rec in chain.records]
            want = [(rec.index, rec.m, rec.M) for rec in oracle.records]
            if got != want or not got:
                res.fail(f"r={r}: enumerator records differ from the oracle")
            res.outputs[f"r{r}.chain"] = \
                self.bc.cli.serialize_chain(chain).encode()

    def op_ms(self, passes) -> float:
        return 1000 * statistics.median(_per_pass(passes, "oracle"))

    def summary(self, passes) -> dict:
        return {
            "enumerate_s": (statistics.median(_per_pass(passes, "enumerate")),
                            "s"),
            "oracle_s": (statistics.median(_per_pass(passes, "oracle")), "s"),
        }


class ExtendMC(Workload):
    """``bachain extend --samples S`` on a golden-ratio-minus-1 base chain
    built during set-up."""

    name = "extend-mc"

    def __init__(self, bc, work, seed, size):
        super().__init__(bc, work, seed, size)
        cli = bc.cli
        form = bc.linform.LinearForm((cli.parse_expr(GOLDEN_MINUS_1),))
        chain = bc.enumerator.enumerate_chain(form, size["base_norm"])
        self.base = work / "base.chain"
        self.base.write_text(cli.serialize_chain(chain))
        self.samples = size["samples"]
        self.mc_seed = self.rng.randrange(1 << 30)
        self.out = work / "extend.json"
        self.argv = ["extend", str(self.base), "--k", str(size["k"]),
                     "--max-norm", str(size["max_norm"]),
                     "--samples", str(self.samples),
                     "--seed", str(self.mc_seed),
                     "--format", "machine", "--out", str(self.out)]

    def run_pass(self) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        if res.timed("extend", self.bc.cli.main, self.argv) != 0:
            res.fail("extend exited nonzero")
        res.span = (t0, perf_counter())
        return res

    def check(self, res: PassResult) -> None:
        text = self.base.read_text()
        if self.bc.cli.serialize_chain(self.bc.cli.parse_chain(text)) != text:
            res.fail("base chain file does not round-trip")
        data = self._read(res, self.out.name, self.out)
        try:
            report = json.loads(data)
        except ValueError:
            res.fail("extend output is not JSON")
            return
        if (report.get("samples") != self.samples
                or len(report.get("match_horizons", ())) != self.samples
                or report.get("seed") != self.mc_seed
                or not report.get("omega_bounds")):
            res.fail("extend report does not describe the requested run")

    def op_ms(self, passes) -> float:
        return 1000 * statistics.median(
            sum(p.times["extend"]) / self.samples for p in passes)

    def summary(self, passes) -> dict:
        return {"sample_s": (self.op_ms(passes) / 1000, "s")}


WORKLOADS = {w.name: w for w in (Chains, Crosscheck, ExtendMC)}
