import argparse
import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bachain import analysis, cli, extension, realnum
from bachain.enumerator import BestApprox, enumerate_chain
from bachain.linform import LinearForm, record_enclosure, scaled_constants
from bachain.realnum import (
    MAX_EXPR_DEPTH,
    MAX_ROOT_INDEX,
    PRECISION_CAP,
    ExprSyntaxError,
    expr_to_text,
    parse_expr,
    root,
)
from conftest import as_fraction, dyadic_from_hex, replace


DEPTH = MAX_EXPR_DEPTH

#: What ``parse_chain`` says of a file that ``serialize_chain`` did not write.
LAYOUT = "chain file line {} is not as serialize_chain writes it"

#: Constant expressions far deeper than MAX_EXPR_DEPTH, one per shape that
#: used to overflow the interpreter stack.
DEEP_SHAPES = {
    "brackets": "(" * 300 + "root(2,2)" + ")" * 300,
    "minus-signs": "-" * 2000 + "root(2,2)",
    "sum-chain": "1+" * 1500 + "root(2,2)",
}


def refuse_to_run(monkeypatch, owner, *names):
    """Make each named attribute of ``owner`` fail the test if called, so a
    test shows that a check fires before that work starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("called before the input was refused")
    for name in names:
        monkeypatch.setattr(owner, name, refuse)


def enumerate_to(path, alphas, max_norm):
    """Write the chain of ``alphas`` to ``max_norm`` to ``path`` with
    ``bachain enumerate``; return the path."""
    argv = ["enumerate", "--max-norm", str(max_norm), "--out", str(path)]
    for alpha in alphas:
        argv += ["--alpha", alpha]
    assert cli.main(argv) == cli.EXIT_OK
    return path


class TestExprParser:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)),
        ("1/2", Fraction(1, 2)),
        ("-3/7", Fraction(-3, 7)),
        ("2*3 + 1/2", Fraction(13, 2)),
        ("(1+2)/(5-2)", Fraction(1)),
        ("2 - 3 - 4", Fraction(-5)),
        ("12/3/2", Fraction(2)),
    ])
    def test_rational_values(self, text, value):
        assert parse_expr(text).exact_fraction() == value

    def test_root_expressions(self):
        e = parse_expr("root(2,3)+root(4,3)")
        assert e.kind == "add"
        assert parse_expr("root( 2 , 2 )") == root(2)

    @pytest.mark.parametrize("bad", [
        "", "root(2)", "1 +", "(1", "root(2,x)", "1 @ 2", "2 2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)

    def test_root_index_at_the_bound_parses(self):
        e = parse_expr(f"root(2,{MAX_ROOT_INDEX})")
        assert e == root(2, MAX_ROOT_INDEX)
        assert parse_expr(expr_to_text(e)) == e

    def test_root_index_above_the_bound(self):
        with pytest.raises(ExprSyntaxError, match="root index .* is above"):
            parse_expr(f"1 + root(2,{MAX_ROOT_INDEX + 1})")

    def test_division_by_zero_literal(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/0")

    # trees exactly DEPTH high whose deepest leaf is a negative fraction
    # (expr_to_text brackets it), and the deepest bracket nesting accepted
    @pytest.mark.parametrize("text", [
        "-3/7" + "+1" * (DEPTH - 1),
        "1+(" * (DEPTH - 1) + "-3/7" + ")" * (DEPTH - 1),
        "root(" * (DEPTH - 2) + "2+-3/7" + ",2)" * (DEPTH - 2),
        "(" * (DEPTH + 1) + "1" + ")" * (DEPTH + 1),
    ], ids=["left-chain", "right-chain", "roots", "brackets"])
    def test_depth_bound_accepted_and_round_trips(self, text):
        e = parse_expr(text)
        assert parse_expr(expr_to_text(e)) == e

    @pytest.mark.parametrize("text", [
        "1" + "+1" * DEPTH,
        "-" * (DEPTH + 2) + "1",
        "(" * (DEPTH + 2) + "1" + ")" * (DEPTH + 2),
    ], ids=["chain", "minus-signs", "brackets"])
    def test_depth_bound_exceeded(self, text):
        with pytest.raises(ExprSyntaxError, match="nests deeper"):
            parse_expr(text)

    def test_round_trip_fixture_expressions(self):
        for text in ["root(2,2)", "(1+root(5,2))/2 - 1", "root(5,2)-2",
                     "root(3,2)-1", "2*root(6,2)-4"]:
            e = parse_expr(text)
            assert parse_expr(expr_to_text(e)) == e


class TestChainFile:
    def test_round_trip_exact(self, sqrt2_chain):
        text = cli.serialize_chain(sqrt2_chain)
        parsed = cli.parse_chain(text)
        assert cli.serialize_chain(parsed) == text
        assert [(r.m, r.M, r.zeta) for r in parsed.records] == \
               [(r.m, r.M, r.zeta) for r in sqrt2_chain.records]
        assert parsed.form.alphas == sqrt2_chain.form.alphas
        assert parsed.search_bound == sqrt2_chain.search_bound
        assert parsed.precision_used == sqrt2_chain.precision_used

    def test_round_trip_r2(self, cbrt_pair_form):
        chain = enumerate_chain(cbrt_pair_form, 10)
        text = cli.serialize_chain(chain)
        assert cli.serialize_chain(cli.parse_chain(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_chain("not a chain\n")

    def test_rejects_incomplete_header(self):
        with pytest.raises(ValueError):
            cli.parse_chain(cli.CHAIN_MAGIC + "\n# r 1\n")

    @pytest.mark.parametrize("old,new,count", [
        ("# r 1\n", "# r 2\n", "1 constants, r = 2"),
        ("# alpha root(2, 2)\n", "# alpha root(2, 2)\n# alpha root(3, 2)\n",
         "2 constants, r = 1")])
    def test_rejects_alpha_count_other_than_r(self, sqrt2_chain, tmp_path,
                                              capsys, old, new, count):
        rec = tmp_path / "c.rec"
        rec.write_text(cli.serialize_chain(sqrt2_chain).replace(old, new))
        assert cli.main(["verify", str(rec)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: header lists {count}\n"

    # each names a dyadic, but not in the text to_hex writes
    @pytest.mark.parametrize("text", [
        "0x-5p3", "0xap3", "0x5_0p3", "0x5p+3", "0x5p 3",
        "0x05p3", "0x5Ap3", "0X5p3", "0x5p03", "0x5p-0", "-0x0p0",
        " 0x5p3", "5p3"])
    def test_rejects_noncanonical_dyadic(self, sqrt2_chain, text):
        # the file as written reads; with the last record's lower endpoint
        # spelled otherwise it does not, at that record's line (a spelling
        # with a space in it splits into one field too many)
        lines = cli.serialize_chain(sqrt2_chain).splitlines()
        cli.parse_chain("\n".join(lines) + "\n")
        fields = lines[-1].split()
        fields[4] = text
        forged = " ".join(fields)
        with pytest.raises(ValueError) as info:
            cli.parse_chain("\n".join(lines[:-1] + [forged]) + "\n")
        assert str(info.value) == (
            f"malformed record line: {forged!r}" if len(forged.split()) != 6
            else LAYOUT.format(len(lines)))

    # the header values the scan writes: a cap in [64, 2^16] and a rung in
    # [64, working_limit(cap)]; record endpoints are never taken from the
    # file, only bounded and compared with the ones recomputed from the
    # record's vector, so an endpoint off the grid, at 1/2, on the finest
    # grid point or just below 1/2 fails at its line
    @pytest.mark.parametrize("cap,used,lo,hi,message", [
        (32, None, None, None, "precision cap 32 outside [64, 65536]"),
        (65537, None, None, None, "precision cap 65537 outside [64, 65536]"),
        (None, 63, None, None, "precision-used 63 outside [64, 32768]"),
        (4096, 2049, None, None, "precision-used 2049 outside [64, 2048]"),
        (None, None, "0x1p-{g1}", None, LAYOUT.format(11)),
        (None, None, None, "0x1p-1", LAYOUT.format(11)),
        (None, None, "0x1p-{g}", "0x7fp-8", LAYOUT.format(11)),
    ], ids=["cap-low", "cap-high", "used-low", "used-high", "off-grid",
            "half", "finest-and-below-half"])
    def test_rejects_values_the_scan_never_writes(self, sqrt2_chain, cap,
                                                  used, lo, hi, message):
        g = sqrt2_chain.precision_used + 2
        used = sqrt2_chain.precision_used if used is None else used
        lines = cli.serialize_chain(
            replace(sqrt2_chain, precision_cap=cap or 65536)).splitlines()
        assert len(lines) == 11
        lines[lines.index(f"# precision-used {sqrt2_chain.precision_used}")] \
            = f"# precision-used {used}"
        fields = lines[-1].split()
        fields[4] = fields[4] if lo is None else lo.format(g=g, g1=g + 1)
        fields[5] = fields[5] if hi is None else hi
        lines[-1] = " ".join(fields)
        with pytest.raises(ValueError) as info:
            cli.parse_chain("\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_accepts_the_bounds_themselves(self, sqrt2_chain):
        # chains enumerated at the lowest and the highest cap read back,
        # each record with the endpoints its vector gives
        for cap in (64, 65536):
            chain = enumerate_chain(sqrt2_chain.form, 30, cap=cap)
            text = cli.serialize_chain(chain)
            parsed = cli.parse_chain(text)
            assert parsed.records == chain.records
            assert cli.serialize_chain(parsed) == text

    # a chain carries its cap: it is written and read back with it
    @pytest.mark.parametrize("cap", [64, 2048, 65536])
    @pytest.mark.parametrize("alphas,max_norm", [
        (["root(2,2)"], 200), (["root(2,2)", "root(3,2)"], 20),
        (["root(2,2)", "root(3,2)", "root(5,2)"], 6)],
        ids=["r1", "r2", "r3"])
    def test_round_trip_at_every_cap(self, alphas, max_norm, cap):
        form = LinearForm(tuple(parse_expr(a, cap) for a in alphas))
        chain = enumerate_chain(form, max_norm, cap)
        text = cli.serialize_chain(chain)
        assert f"\n# precision-cap {cap}\n" in text
        assert cli.parse_chain(text) == chain
        assert cli.serialize_chain(cli.parse_chain(text)) == text

    def test_finer_rung_rejected_before_any_constant(self, tmp_path,
                                                     monkeypatch):
        # records written at the scan's rung, with a header naming the
        # finest rung the cap admits: each enclosure is far wider than
        # that rung gives, so the reader refuses at record 1's line
        # without evaluating a constant at 32768 bits
        rec = enumerate_to(tmp_path / "c.rec",
                           ["root(2,2)", "root(3,2)", "root(5,2)"], 30)
        chain = cli.parse_chain(rec.read_text())
        used = f"# precision-used {chain.precision_used}\n"
        assert used in rec.read_text() and chain.precision_used < 32768
        rec.write_text(rec.read_text().replace(used,
                                               "# precision-used 32768\n"))
        evaluated = []
        monkeypatch.setattr(cli, "scaled_constants",
                            lambda *args: evaluated.append(args))
        with pytest.raises(ValueError) as info:
            cli.parse_chain(rec.read_text())
        assert str(info.value) == LAYOUT.format(9)
        assert evaluated == []


#: Square roots of distinct primes: with 1, any set of them is linearly
#: independent over the rationals.
SQRT_PRIMES = ("root(2,2)", "root(3,2)", "root(5,2)", "root(7,2)",
               "root(11,2)", "root(13,2)")

#: Largest max-norm per r that keeps one example cheap.
PROPERTY_NORMS = {1: 400, 2: 25, 3: 8}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
           st.lists(st.sampled_from(SQRT_PRIMES), min_size=r, max_size=r,
                    unique=True),
           st.integers(1, PROPERTY_NORMS[r]))),
       st.sampled_from([64, 65536]))
def test_written_chains_pass_the_width_bound(form_and_norm, cap):
    alphas, max_norm = form_and_norm
    form = LinearForm(tuple(parse_expr(a, cap) for a in alphas))
    chain = enumerate_chain(form, max_norm, cap=cap)
    grid = chain.precision_used + 2
    for rec in chain.records:
        assert not cli._too_wide(
            rec.m[1:], rec.zeta.lo.to_hex(), rec.zeta.hi.to_hex(), grid)


class TestPsiSpecParsing:
    def test_log_family(self):
        psi = analysis.parse_psi("log:r=2,k=1,eps=1/10", 2)
        assert psi.family == "log"
        assert psi.eps == Fraction(1, 10)
        assert psi.delta_k == 1

    def test_power_family(self):
        psi = analysis.parse_psi("power:r=1,coeff=1/2,exp=1", 1)
        assert psi.coeff == Fraction(1, 2)
        assert psi.power_exp == Fraction(1)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            analysis.parse_psi("nolog", 1)
        with pytest.raises(ValueError):
            analysis.parse_psi("gauss:r=1", 1)

    def test_power_negative_exponent(self):
        # exp = -1 makes psi(y) = y / 2: pow_rational's reciprocal branch
        value = analysis.parse_psi("power:coeff=1/2,exp=-1", 1).value(7)
        assert as_fraction(value.lo) <= Fraction(7, 2) <= \
            as_fraction(value.hi)

    def test_empty_parts_are_skipped(self):
        assert analysis.parse_psi("log:", 1) == analysis.PsiSpec(
            family="log", r=1, k=1, eps=Fraction(1, 10))
        assert analysis.parse_psi("log:k=1,,eps=1/2", 1) == \
            analysis.parse_psi("log:k=1,eps=1/2", 1)
        assert len({analysis.parse_psi("log:k=1,,eps=1/2", 1),
                    analysis.parse_psi("log:k=1,eps=1/2", 1)}) == 1

    # numerators of 1 + eps, 2 + eps and exp at the bound still parse
    # (as the power of log log y, log y and y), and so do denominators
    @pytest.mark.parametrize("spec,exponent", [
        ("loglog:eps=1/30000", (2, 1, Fraction(30001, 30000))),
        ("log:k=1,eps=1/30000", (2, Fraction(60001, 30000), 0)),
        (f"power:exp=-{analysis.MAX_PSI_EXP_NUMERATOR}/7",
         (Fraction(-analysis.MAX_PSI_EXP_NUMERATOR, 7), 0, 0)),
        (f"power:exp=1/{analysis.MAX_PSI_EXP_DENOMINATOR}",
         (Fraction(1, analysis.MAX_PSI_EXP_DENOMINATOR), 0, 0)),
    ])
    def test_exponent_numerator_at_most_the_bound(self, spec, exponent):
        assert analysis.parse_psi(spec, 1).powers == exponent

    @pytest.mark.parametrize("family", ["power", "log", "loglog"])
    def test_r_defaults_to_the_chain(self, family):
        assert analysis.parse_psi(f"{family}:k=2", 3).r == 3
        assert analysis.parse_psi(f"{family}:r=1,k=2", 3).r == 1


class TestCommands:
    def test_enumerate_writes_chain(self, tmp_path, capsys):
        out = tmp_path / "c.rec"
        code = cli.main(["enumerate", "--alpha", "root(2,2)",
                         "--max-norm", "30", "--out", str(out)])
        assert code == cli.EXIT_OK
        chain = cli.parse_chain(out.read_text())
        assert [r.M for r in chain.records] == [1, 2, 5, 12, 29]

    def test_enumerate_rational_alpha_exit_code(self, capsys):
        code = cli.main(["enumerate", "--alpha", "1/2", "--max-norm", "10"])
        assert code == cli.EXIT_DEPENDENCE

    @pytest.mark.parametrize("source", ["alpha", "beta", "chain-header"])
    def test_constant_certified_at_the_given_cap(self, tmp_path, capsys,
                                                 source):
        # the divisor is exactly zero: refinement stops at the cap given
        # with the constant or carried by the chain, here 128 bits
        zero_divisor = "1/(root(2,2)-root(2,2))"
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--precision-cap", "128", "--out", str(rec)])
        capsys.readouterr()
        if source == "alpha":
            argv = ["enumerate", "--alpha", zero_divisor, "--max-norm", "5",
                    "--precision-cap", "128"]
        elif source == "beta":
            argv = ["extend", str(rec), "--k", "1", "--beta", zero_divisor]
        else:
            rec.write_text(rec.read_text().replace(
                "# alpha root(2, 2)", f"# alpha {zero_divisor}"))
            argv = ["verify", str(rec)]
        assert cli.main(argv) == cli.EXIT_PRECISION
        assert capsys.readouterr().err == (
            "precision exhausted: cannot certify denominator != 0 for "
            "(root(2, 2) - root(2, 2)) (precision cap 128 bits reached)\n")

    @pytest.mark.parametrize("cap", ["63", "65537"],
                             ids=["enumerate-63", "enumerate-65537"])
    def test_precision_cap_out_of_range(self, capsys, cap):
        assert cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm",
                         "5", "--precision-cap", cap]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: precision cap {cap} outside [64, 65536]\n"

    def test_forged_exponent_is_usage_error(self, tmp_path, capsys):
        # reading the record once cost time and memory linear in the
        # exponent's value, and verify then passed; the endpoint is
        # never taken from the file, only compared at its line
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        lines = rec.read_text().splitlines()
        fields = lines[-1].split()
        fields[4] = "0x1p-100000000"
        rec.write_text("\n".join(lines[:-1] + [" ".join(fields)]) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", str(rec)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {LAYOUT.format(len(lines))}\n"

    def test_enumerate_requires_alpha(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["enumerate", "--max-norm", "5"])
        assert info.value.code == cli.EXIT_USAGE

    def test_enumerate_bad_expression(self, capsys):
        code = cli.main(["enumerate", "--alpha", "root(", "--max-norm", "5"])
        assert code == cli.EXIT_USAGE

    def test_verify_text_and_exit(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        code = cli.main(["verify", str(rec), "--k", "1",
                         "--psi", "power:r=1,coeff=1/2,exp=1"])
        captured = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "monotonic: pass" in captured
        assert "minkowski: pass" in captured
        assert "psi-singular: fail" in captured

    def test_verify_power_negative_exponent(self, tmp_path, capsys):
        # psi(y) = y / 2 bounds every residual below 1/2
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 30)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--format", "machine", "--psi",
                         "power:coeff=1/2,exp=-1"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"]["psi-singular"]["status"] == "pass"

    def test_verify_series_on_one_record_is_a_note(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--k", "1"]) == cli.EXIT_OK
        assert "note series: need at least 2 records" in \
            capsys.readouterr().out.splitlines()

    def test_verify_psi_on_one_record_is_skipped(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--psi", "log:"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "check psi-singular: skipped (need at least 2 records)" in out
        assert "note psi-singular: need at least 2 records" in out

    # k is checked before the chain is read, on a chain of one record
    # (too short for the series) as on a longer one
    @pytest.mark.parametrize("k", ["0", "-3"])
    @pytest.mark.parametrize("max_norm", [1, 30])
    def test_verify_k_below_one_rejected(self, tmp_path, capsys, max_norm, k):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], max_norm)
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", str(rec), "--k", k])
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k must be >= 1" in captured.err

    # forming M**(r+k) for a huge k ran out of memory with a traceback and
    # exit 1; k is bounded before the chain file is read (it does not exist)
    @pytest.mark.parametrize("command", ["verify", "extend"])
    @pytest.mark.parametrize("k", [str(analysis.MAX_K + 1), "10000000000"])
    def test_k_above_the_bound_rejected(self, tmp_path, capsys, command, k):
        with pytest.raises(SystemExit) as info:
            cli.main([command, str(tmp_path / "missing.rec"), "--k", k,
                      "--format", "machine"])
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--k must be >= 1 and at most {analysis.MAX_K}" in \
            captured.err

    def test_verify_k_at_the_bound_runs(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 30)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--k", str(analysis.MAX_K),
                         "--format", "machine"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["series_k"] == analysis.MAX_K
        assert len(data["series_partial_sums"]) == 4

    def test_verify_machine_format(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "12",
                  "--out", str(rec)])
        code = cli.main(["verify", str(rec), "--format", "machine"])
        assert code == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert data["verdicts"]["monotonic"]["status"] == "pass"
        assert data["determinants"]["1"] in (-1, 1)

    # the theorem checks, determinants and tail ranks always run; the
    # psi test with --psi and the series with --k
    @pytest.mark.parametrize("extra,psi,series", [
        ([], False, False),
        (["--psi", "power:coeff=1/2,exp=1"], True, False),
        (["--k", "2"], False, True),
        (["--psi", "power:coeff=1/2,exp=1", "--k", "2"], True, True),
    ], ids=["none", "psi", "k", "psi-and-k"])
    def test_verify_runs_every_applicable_check(self, tmp_path, capsys,
                                                extra, psi, series):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 30)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--format", "machine"]
                        + extra) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data["verdicts"]) == {"monotonic", "minkowski", "growth",
                                         "polytope"} | (
            {"psi-singular"} if psi else set())
        assert list(data["determinants"]) == ["1", "2", "3", "4"]
        assert list(data["tail_ranks"]) == ["1", "2", "3", "4", "5"]
        assert ("series_k" in data) == series

    def test_verify_detects_tampering(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        lines = rec.read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        head = [ln for ln in lines if ln.startswith("#")]
        # swap two records and renumber so the file still parses
        body[1], body[2] = body[2], body[1]
        body = [f"{i + 1} " + ln.split(None, 1)[1]
                for i, ln in enumerate(body)]
        rec.write_text("\n".join(head + body) + "\n")
        code = cli.main(["verify", str(rec)])
        assert code == cli.EXIT_CHECK_FAILED

    def test_extend_explicit_beta(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--k", "1",
                         "--beta", "root(3,2)-1", "--max-norm", "30"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "criterion nu=1: fail" in out
        assert "omega bound" in out

    def test_extend_at_a_low_cap_matches_cap_128(self, tmp_path, capsys):
        # extend works at its chain's cap.  At cap 64 the criterion's
        # start sits above working_limit(64) = 64; it runs at the limit,
        # the rung the chain was enumerated at
        outputs = []
        for cap in ("64", "128"):
            rec = tmp_path / f"c{cap}.rec"
            assert cli.main(["enumerate", "--alpha", "root(2,2)",
                             "--max-norm", "30", "--precision-cap", cap,
                             "--out", str(rec)]) == cli.EXIT_OK
            assert cli.main(["extend", str(rec), "--k", "1",
                             "--beta", "root(3,2)-1"]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "criterion nu=1: fail" in outputs[0]

    def test_extend_match_horizon(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec",
                           ["1/3 + root(2,2)/1000000000000"], 20)
        capsys.readouterr()
        assert cli.main(["extend", str(rec), "--k", "1",
                         "--beta", "root(3,2)-1"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "missing base indices [1, 2]" in out
        assert "match horizon 3" in out

    def test_extend_beta_count_must_match_k(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
        capsys.readouterr()
        assert cli.main(["extend", str(rec), "--k", "2",
                         "--beta", "root(3,2)-1"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected 2 --beta expressions\n"

    def test_extend_generated_seed_reproduces(self, tmp_path, capsys):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
        capsys.readouterr()
        assert cli.main(["extend", str(rec), "--k", "1"]) == cli.EXIT_OK
        first = capsys.readouterr()
        seed = first.err.removeprefix("generated seed ").removesuffix("\n")
        assert first.err == f"generated seed {seed}\n" and seed.isdigit()
        assert cli.main(["extend", str(rec), "--k", "1", "--seed",
                         seed]) == cli.EXIT_OK
        again = capsys.readouterr()
        assert (again.out, again.err) == (first.out, "")

    def test_extend_sampled_machine(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "20",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--k", "1", "--samples", "2",
                         "--seed", "7", "--format", "machine"])
        assert code == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 2
        assert len(data["match_horizons"]) == 2

    def test_extend_k_zero_rejected(self, tmp_path):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "10",
                  "--out", str(rec)])
        with pytest.raises(SystemExit) as info:
            cli.main(["extend", str(rec), "--k", "0", "--samples", "1"])
        assert info.value.code == cli.EXIT_USAGE

    def test_extend_budget_exit(self, tmp_path):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--k", "1", "--samples", "1",
                         "--seed", "1", "--budget", "10"])
        assert code == cli.EXIT_BUDGET

    def test_extend_budget_exit_past_the_printable_digits(self, tmp_path,
                                                          capsys):
        # (2 * 1000 + 1)**2001 / 2 visits: about 6,600 digits, more than
        # Python turns into a string
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1000)
        code = cli.main(["extend", str(rec), "--k", "2000", "--seed", "1"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().err == (
            "budget exceeded: extended scan in dimension 2001 to max-norm "
            "1000 needs at least 2**21942 evaluations > budget 10000000\n")

    @pytest.mark.parametrize("budget,code", [(839, cli.EXIT_BUDGET),
                                             (840, cli.EXIT_OK)])
    def test_extend_budget_counts_visits(self, tmp_path, capsys, budget,
                                         code):
        # the extended scan of root(2,2) and one sampled constant to M = 20
        # is the 2-D scan of test_enumerate_budget: 840 tails
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 20)
        argv = ["extend", str(rec), "--k", "1", "--samples", "1",
                "--seed", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        default = capsys.readouterr().out
        assert cli.main(argv + ["--budget", str(budget)]) == code
        captured = capsys.readouterr()
        if code == cli.EXIT_OK:
            assert captured.out == default
        else:
            assert captured.out == ""
            assert "extended scan in dimension 2 to max-norm 20 needs 840 " \
                   "evaluations > budget 839" in captured.err

    @pytest.mark.parametrize("mode", [
        ["--samples", "1", "--seed", "5"],
        ["--beta", "root(3,2)-1", "--beta", "root(5,2)-2"],
    ], ids=["sampled", "explicit-beta"])
    def test_extend_over_budget_does_no_work(self, tmp_path, capsys,
                                             monkeypatch, mode):
        # the chain to 100 ends at M = 70, far beyond --max-norm 5: the
        # extended scan visits 665 vectors, the last omega row 9,940
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 100)
        calls = Counter()
        for name in ("sample_betas", "enumerate_chain",
                     "degeneracy_criterion", "lattice_inv_norm_sum"):
            def counting(*args, _name=name,
                         _real=getattr(extension, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(extension, name, counting)
        code = cli.main(["extend", str(rec), "--k", "2", "--max-norm", "5",
                         "--budget", "5000"] + mode)
        assert code == cli.EXIT_BUDGET
        assert calls == Counter()
        assert "omega row in dimension 2 to max-norm 70 needs 9940 " \
               "evaluations > budget 5000" in capsys.readouterr().err

    def test_extend_skips_a_criterion_scan_over_budget(self, tmp_path,
                                                       capsys):
        # the records at nu = 6, 7 and 8 lie beyond --max-norm 100: their
        # criterion scans, checked when each starts, exceed the budget that
        # the extended scan and the omega rows fit in
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1000)
        capsys.readouterr()
        argv = ["extend", str(rec), "--k", "1", "--beta", "root(3,2)-1",
                "--max-norm", "100", "--budget", "20200"]
        needs = {6: 57291, 7: 333336, 8: 1941435}
        why = {nu: f"criterion scan at nu={nu} needs {n} evaluations > "
                   "budget 20200" for nu, n in needs.items()}
        assert cli.main(argv) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if "skipped" in ln] == [
            f"criterion nu={nu}: skipped ({why[nu]})" for nu in needs]
        assert cli.main(argv + ["--format", "machine"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["criterion_skipped"] == {str(nu): w
                                             for nu, w in why.items()}
        assert sorted(data["criterion"]) == ["1", "2", "3", "4", "5"]

    @pytest.mark.parametrize("mode", [
        ["--samples", "1", "--seed", "5"],
        ["--beta", "root(3,2)-1"],
    ], ids=["sampled", "explicit-beta"])
    def test_extend_refused_before_the_base_is_enumerated(
            self, tmp_path, capsys, monkeypatch, mode):
        # --max-norm beyond the chain's search bound 10 re-enumerates the
        # base chain, but only after the extended scan passes the budget
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
        calls = []
        real = extension.enumerate_chain

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(extension, "enumerate_chain", counting)
        code = cli.main(["extend", str(rec), "--k", "1", "--max-norm", "20",
                         "--budget", "10"] + mode)
        assert code == cli.EXIT_BUDGET
        assert calls == []
        assert capsys.readouterr().err == (
            "budget exceeded: extended scan in dimension 2 to max-norm 20 "
            "needs 840 evaluations > budget 10\n")

    @pytest.mark.parametrize("edit,max_norm,index", [
        (lambda chain: replace(chain, search_bound=3000), 3000, 10),
        (lambda chain: replace(chain, records=chain.records[:4]), 1000, 5),
    ], ids=["raised-search-bound", "cut-records"])
    def test_extend_refuses_a_base_that_is_not_its_forms_chain(
            self, tmp_path, capsys, edit, max_norm, index):
        # the reader certifies each record of a file, not that none is
        # missing: the sqrt(2) chain to 1000 ends at M = 985, so with its
        # bound raised to 3000 it lacks record 10 at M = 2378, and cut to
        # four records it lacks records 5-9.  The budget admits the
        # extended scan to 3000, which the refusal comes before
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1000)
        rec.write_text(cli.serialize_chain(edit(cli.parse_chain(
            rec.read_text()))))
        out = tmp_path / "extend.txt"
        capsys.readouterr()
        code = cli.main(["extend", str(rec), "--k", "1", "--beta",
                         "root(3,2)-1", "--max-norm", str(max_norm),
                         "--budget", "20000000", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: chain record {index} disagrees with the form's chain "
            f"to max-norm {max_norm}\n")

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_extend_max_norm_below_one(self, tmp_path, capsys, bound):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "10",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--k", "1", "--samples", "1",
                         "--seed", "1", "--max-norm", bound])
        assert code == cli.EXIT_USAGE
        assert "M_max must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--samples", "5"],
        ["--seed", "3"],
        ["--samples", "1", "--seed", "3"],
    ], ids=["samples", "seed", "both"])
    def test_extend_beta_rejects_sampling_flags(self, tmp_path, capsys,
                                                 extra):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "10",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--k", "1",
                         "--beta", "root(3,2)-1"] + extra)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "--samples and --seed" in captured.err

    def test_extend_samples_default_one(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "10",
                  "--out", str(rec)])
        capsys.readouterr()
        code = cli.main(["extend", str(rec), "--k", "1", "--seed", "2",
                         "--format", "machine"])
        assert code == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 1
        assert len(data["match_horizons"]) == 1

    # sha256 of two JSON reports: reorganising the extension layer must
    # keep its output bytes
    @pytest.mark.parametrize("argv,digest", [
        (["--k", "1", "--beta", "root(3,2)-1"],
         "aa800f9c349023c5552e755c5e20b62c87b3050c5546d89bffc389533bf16c90"),
        (["--k", "2", "--samples", "3", "--seed", "9", "--max-norm", "12"],
         "108f1bdb472ed92b2a84e9490d35b7b68b0d4d0fe6a51b7cc27688e06da9d0ed"),
    ], ids=["explicit-beta", "sampled"])
    def test_extend_machine_report_pinned(self, tmp_path, capsys, argv,
                                          digest):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "30",
                  "--out", str(rec)])
        code = cli.main(["extend", str(rec), "--format", "machine"] + argv)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("budget,code", [(10, cli.EXIT_BUDGET),
                                             (839, cli.EXIT_BUDGET),
                                             (840, cli.EXIT_OK)])
    def test_enumerate_budget(self, tmp_path, capsys, budget, code):
        out = tmp_path / "c.rec"
        # ((2*20 + 1)**2 - 1) / 2 = 840 tails in one scan
        assert cli.main(["enumerate", "--alpha", "root(2,2)", "--alpha",
                         "root(3,2)", "--max-norm", "20",
                         "--budget", str(budget), "--out", str(out)]) == code
        assert out.exists() == (code == cli.EXIT_OK)

    @pytest.mark.parametrize("command", ["enumerate", "extend"])
    def test_negative_budget_is_usage_error(self, tmp_path, capsys, command):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {"enumerate": ["enumerate", "--alpha", "root(2,2)",
                              "--max-norm", "10"],
                "extend": ["extend", str(rec), "--k", "1", "--seed", "1"]}
        with pytest.raises(SystemExit) as info:
            cli.main(argv[command] + ["--budget", "-1", "--out", str(out)])
        assert info.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget must be >= 0" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["enumerate", "extend"])
    def test_zero_budget_refuses_every_scan(self, tmp_path, capsys, command):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {"enumerate": ["enumerate", "--alpha", "root(2,2)",
                              "--max-norm", "1"],
                "extend": ["extend", str(rec), "--k", "1", "--seed", "1",
                           "--max-norm", "1"]}
        assert cli.main(argv[command] + ["--budget", "0", "--out",
                                         str(out)]) == cli.EXIT_BUDGET
        assert "evaluations > budget 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
         "--format", "machine"],
        ["verify", "CHAIN", "--precision-cap", "1"],
        ["verify", "CHAIN", "--budget", "1"],
        ["verify", "CHAIN", "--checks", "monotonic"],
        ["extend", "CHAIN", "--k", "1", "--precision-cap", "128"],
    ])
    def test_unread_flags_rejected(self, tmp_path, capsys, extra):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        argv = [str(rec) if a == "CHAIN" else a for a in extra]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("extra", [
        ["--psi", "log:r=1,eps=1/0"],
        ["--psi", "log:r=1,zz=3"],
        ["--psi", "power:r=1,coeff=1/2,exp=1/2,exp=3"],
    ], ids=["psi-divides-by-zero", "psi-unknown-key", "psi-repeated-key"])
    def test_verify_malformed_input(self, tmp_path, capsys, extra):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        capsys.readouterr()
        assert cli.main(["verify", str(rec)] + extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # the same value as the record's lower endpoint, spelled otherwise
    @pytest.mark.parametrize("respell", [
        lambda h, e: f"0x{h}0p{e - 4}",
        lambda h, e: f"0x{h[0]}_{h[1:]}p{e}",
        lambda h, e: f"0x0{h}p{e}",
        lambda h, e: f"0x{h.upper()}p{e}",
        lambda h, e: f"0X{h}p{e}",
        lambda h, e: f"0x+{h}p{e}",
        lambda h, e: f"0x{h}p-0{-e}",
        lambda h, e: f"{h}p{e}",
    ], ids=["even-mantissa", "underscore", "leading-zero", "upper-case",
            "upper-prefix", "plus-mantissa", "exponent-leading-zero",
            "no-prefix"])
    @pytest.mark.parametrize("command", ["verify", "extend", "report"])
    def test_noncanonical_dyadic_is_usage_error(self, tmp_path, capsys,
                                                respell, command):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        lines = rec.read_text().splitlines()
        fields = lines[-1].split()
        lo = dyadic_from_hex(fields[4])
        fields[4] = respell(f"{lo.man:x}", lo.exp)
        man_hex, exp_dec = fields[4].lower().removeprefix("0x").split("p")
        assert Fraction(int(man_hex, 16)) * Fraction(2) ** int(exp_dec) \
            == as_fraction(lo)
        rec.write_text("\n".join(lines[:-1] + [" ".join(fields)]) + "\n")
        capsys.readouterr()
        extra = ["--k", "1", "--seed", "1"] if command == "extend" else []
        assert cli.main([command, str(rec)] + extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {LAYOUT.format(9)}\n"

    # record 2 (line 8) and a header integer (line 4), each spelled otherwise
    @pytest.mark.parametrize("old,new,line", [
        ("\n2 3 -2 2 ", "\n+2 3 -2 2 ", 8),
        ("\n2 3 -2 2 ", "\n2 3 -2 02 ", 8),
        ("\n2 3 -2 2 ", "\n2 3 -0_2 2 ", 8),
        ("\n# search-bound 5\n", "\n# search-bound 05\n", 4),
    ], ids=["plus-sign", "leading-zero", "underscore", "padded-header"])
    @pytest.mark.parametrize("command", ["verify", "extend", "report"])
    def test_noncanonical_integer_is_usage_error(self, tmp_path, capsys,
                                                 old, new, line, command):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        text = rec.read_text()
        assert text.count(old) == 1
        rec.write_text(text.replace(old, new))
        capsys.readouterr()
        extra = ["--k", "1", "--seed", "1"] if command == "extend" else []
        assert cli.main([command, str(rec)] + extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {LAYOUT.format(line)}\n"

    # files enumerate never writes, on the sqrt(2) chain to M=30 (records
    # at M = 1, 2, 5, 12, 29; record 5 on line 11): each record's
    # enclosure is recomputed from its vector, and the header must admit
    # the records
    @pytest.mark.parametrize("forge,message", [
        (lambda t: t.replace("\n4 17 -12 12 ", "\n4 22 -12 12 "),
         "record 4: m0 is 22, but minus the nearest integer to the tail's "
         "value is 17"),
        (lambda t: t.replace("\n3 -7 5 5 ", "\n3 7 -5 5 "),
         "record 3: form value must be certified positive"),
        (lambda t: t.rsplit(" ", 2)[0] + " 0x1p-10 0x1p-9\n",
         LAYOUT.format(11)),
        (lambda t: t.replace("\n# search-bound 30\n", "\n# search-bound 3\n"),
         "search-bound 3 is below record 5's M = 29"),
        (lambda t: "".join(ln for ln in t.splitlines(True)
                           if ln.startswith("#")),
         "chain file has no records"),
    ], ids=["forged-m0", "negated-vector", "forged-enclosure",
            "low-search-bound", "no-records"])
    @pytest.mark.parametrize("command", ["verify", "extend", "report"])
    def test_forged_record_is_usage_error(self, tmp_path, capsys, forge,
                                          message, command):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 30)
        text = rec.read_text()
        assert len(text.splitlines()) == 11
        forged = forge(text)
        assert forged != text
        rec.write_text(forged)
        capsys.readouterr()
        extra = ["--k", "1", "--seed", "1"] if command == "extend" else []
        assert cli.main([command, str(rec)] + extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["r", "search-bound", "precision-cap",
                                     "precision-used"])
    def test_repeated_header_key_is_usage_error(self, tmp_path, capsys, key):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        lines = rec.read_text().splitlines()
        line = next(ln for ln in lines if ln.split()[:2] == ["#", key])
        rec.write_text("\n".join(lines + [line]) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", str(rec)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {LAYOUT.format(10)}\n"

    # layouts serialize_chain never writes, each keeping every value
    @pytest.mark.parametrize("edit,message", [
        (lambda ls: ls[:7] + [""] + ls[7:], "malformed record line: ''"),
        (lambda ls: ls[:6] + ["# note"] + ls[6:], LAYOUT.format(7)),
        (lambda ls: ls[:7] + [ls[7].replace(" ", "\t", 1)] + ls[8:],
         LAYOUT.format(8)),
        (lambda ls: ls[:7] + [ls[7] + "  "] + ls[8:], LAYOUT.format(8)),
        (lambda ls: ls[:1] + ls[6:] + ls[1:6], LAYOUT.format(2)),
    ], ids=["blank-line", "unknown-key", "tab", "trailing-spaces",
            "header-after-records"])
    @pytest.mark.parametrize("command", ["verify", "extend", "report"])
    def test_other_layout_is_usage_error(self, tmp_path, capsys, edit,
                                         message, command):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        lines = rec.read_text().splitlines()
        assert lines[6].startswith("1 ") and len(lines) == 9
        rec.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        extra = ["--k", "1", "--seed", "1"] if command == "extend" else []
        assert cli.main([command, str(rec)] + extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_final_newline_is_usage_error(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        rec.write_text(rec.read_text().rstrip("\n"))
        capsys.readouterr()
        assert cli.main(["verify", str(rec)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {LAYOUT.format(9)}\n"

    def test_file_precision_cap_is_read_back(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        assert cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm",
                         "5", "--precision-cap", "4096", "--out",
                         str(rec)]) == cli.EXIT_OK
        text = rec.read_text()
        assert "\n# precision-cap 4096\n" in text
        assert cli.parse_chain(text).precision_cap == 4096
        assert cli.serialize_chain(cli.parse_chain(text)) == text
        capsys.readouterr()
        for argv in (["verify", str(rec)], ["report", str(rec)],
                     ["extend", str(rec), "--k", "1", "--seed", "1"]):
            assert cli.main(argv) == cli.EXIT_OK

    def test_leading_minus_constants(self, tmp_path, capsys):
        # a value starting with "-" needs the --opt=VALUE form; with a space
        # argparse takes it for an option
        rec = tmp_path / "c.rec"
        assert cli.main(["enumerate", "--alpha=-1+root(2,2)", "--max-norm",
                         "30", "--out", str(rec)]) == cli.EXIT_OK
        chain = cli.parse_chain(rec.read_text())
        assert [r.M for r in chain.records] == [1, 2, 5, 12, 29]
        capsys.readouterr()
        outs = []
        for beta in (["--beta=-1+root(3,2)"], ["--beta", "root(3,2)-1"]):
            assert cli.main(["extend", str(rec), "--k", "1"] + beta) \
                == cli.EXIT_OK
            outs.append([ln for ln in capsys.readouterr().out.splitlines()
                         if not ln.startswith("beta ")])
        assert outs[0] == outs[1]
        assert outs[0][2].startswith("criterion nu=1: fail")
        with pytest.raises(SystemExit) as info:
            cli.main(["enumerate", "--alpha", "-1+root(2,2)", "--max-norm",
                      "5"])
        assert info.value.code == cli.EXIT_USAGE

    def test_report_pretty_prints_chain(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "12",
                  "--out", str(rec)])
        code = cli.main(["report", str(rec)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "alpha[1] = root(2, 2)" in out

    @pytest.mark.parametrize("fmt,head", [("machine", "{"),
                                          ("text", cli.REPORT_MAGIC)])
    def test_report_passes_a_verify_report_through(self, tmp_path, capsys,
                                                   fmt, head):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 12)
        out = tmp_path / "v.out"
        assert cli.main(["verify", str(rec), "--format", fmt, "--out",
                         str(out)]) == cli.EXIT_OK
        text = out.read_text()
        assert text.startswith(head)
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("shape", list(DEEP_SHAPES), ids=list(DEEP_SHAPES))
    def test_enumerate_deep_expression_is_usage_error(self, capsys, shape):
        code = cli.main(["enumerate", "--alpha=" + DEEP_SHAPES[shape],
                         "--max-norm", "5"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    # an n-th root takes the integer root of an n * p bit number, so an
    # unbounded index ran for many seconds before any output; the index
    # is refused before any root is built or taken
    def test_enumerate_huge_root_index_is_usage_error(self, capsys,
                                                      monkeypatch):
        refuse_to_run(monkeypatch, realnum, "root")
        refuse_to_run(monkeypatch, realnum.DyadicInterval, "nth_root")
        code = cli.main(["enumerate", "--alpha", "root(2,99999999)",
                         "--max-norm", "5"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == (f"error: root index 99999999 is above "
                                f"{MAX_ROOT_INDEX}\n")

    def test_huge_root_index_header_is_usage_error(self, tmp_path, capsys,
                                                   monkeypatch):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 5)
        text = rec.read_text()
        assert "# alpha root(2, 2)\n" in text
        rec.write_text(text.replace("# alpha root(2, 2)\n",
                                    "# alpha root(2, 99999999)\n"))
        capsys.readouterr()
        refuse_to_run(monkeypatch, realnum, "root")
        refuse_to_run(monkeypatch, realnum.DyadicInterval, "nth_root")
        code = cli.main(["verify", str(rec)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: root index 99999999 is above")

    # the exact power pow_rational forms has numerator * p bits: a huge
    # exponent ran out of memory with a traceback and exit 1; it is now
    # refused before any psi power is formed
    @pytest.mark.parametrize("spec", [
        "power:r=1,coeff=1,exp=99999999999",
        "log:r=1,eps=99999999999",
        "loglog:r=1,eps=99999999999",
        f"power:r=1,exp={analysis.MAX_PSI_EXP_NUMERATOR + 1}/3",
    ], ids=["power", "log", "loglog", "power-above-the-bound"])
    def test_verify_huge_psi_exponent_is_usage_error(self, tmp_path, capsys,
                                                     monkeypatch, spec):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 50)
        capsys.readouterr()
        refuse_to_run(monkeypatch, analysis, "pow_rational")
        assert cli.main(["verify", str(rec), "--psi", spec]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: psi spec {spec!r}: ")
        assert "numerator above" in captured.err

    # an integer d-th root of a d * p bit number: exp=1/1000000 never
    # finished, and a spec's huge k formed y**(r+k) (in the norm gap too,
    # after a passing power psi); both are refused before any psi power
    @pytest.mark.parametrize("spec,refusal", [
        (f"power:r=1,exp=1/{analysis.MAX_PSI_EXP_DENOMINATOR + 1}",
         f"a denominator above {analysis.MAX_PSI_EXP_DENOMINATOR}"),
        ("power:r=1,exp=1/1000000", "psi exponent 1/1000000 has"),
        ("log:r=1,eps=1/1000000", "psi exponent 2000001/1000000 has"),
        ("loglog:r=1,eps=1/99999", "psi exponent 100000/99999 has"),
        ("log:k=10000000000", f"k in 1..{analysis.MAX_K}"),
        (f"loglog:k={analysis.MAX_K + 1}", f"k in 1..{analysis.MAX_K}"),
        ("power:r=1,k=10000000000,exp=1", f"k in 1..{analysis.MAX_K}"),
    ], ids=["power-above-the-bound", "power", "log", "loglog", "log-k",
            "loglog-k-above-the-bound", "power-k"])
    def test_verify_psi_denominator_and_k_bounded(self, tmp_path, capsys,
                                                  monkeypatch, spec, refusal):
        rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 50)
        capsys.readouterr()
        refuse_to_run(monkeypatch, analysis, "pow_rational", "_norm_gap")
        assert cli.main(["verify", str(rec), "--psi", spec]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: psi spec {spec!r}: ")
        assert refusal in captured.err

    @pytest.mark.parametrize("command", ["verify", "extend", "report"])
    @pytest.mark.parametrize("shape", list(DEEP_SHAPES), ids=list(DEEP_SHAPES))
    def test_deep_alpha_header_is_usage_error(self, tmp_path, capsys, shape,
                                              command):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        text = rec.read_text()
        assert "# alpha root(2, 2)\n" in text
        rec.write_text(text.replace("# alpha root(2, 2)\n",
                                    f"# alpha {DEEP_SHAPES[shape]}\n"))
        capsys.readouterr()
        extra = ["--k", "1", "--seed", "1"] if command == "extend" else []
        code = cli.main([command, str(rec)] + extra)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    # the chain's r is 1 for root(2,2) and 2 for the cube-root pair; a
    # spec that names another r is refused
    @pytest.mark.parametrize("alphas,spec,chain_r", [
        (["root(2,2)"], "log:r=3,k=1,eps=1/2", 1),
        (["root(2,2)"], "loglog:r=2,k=1,eps=1/2", 1),
        (["root(2,2)"], "power:r=2,coeff=1/2,exp=1", 1),
        (["root(2,3)", "root(4,3)"], "log:r=1,k=1,eps=1/2", 2),
    ], ids=["log-r3-on-r1", "loglog-r2-on-r1", "power-r2-on-r1",
            "log-r1-on-r2"])
    def test_verify_psi_r_must_match_chain(self, tmp_path, capsys, alphas,
                                           spec, chain_r):
        rec = enumerate_to(tmp_path / "c.rec", alphas, 12)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--psi", spec]) == cli.EXIT_USAGE
        spec_r = analysis.parse_psi(spec, chain_r).r
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: psi spec r={spec_r} does not match "
                                f"the chain's r={chain_r}\n")

    # a spec without r takes the chain's, in every family
    @pytest.mark.parametrize("alphas,spec", [
        (["root(2,2)"], "log:r=1,k=1,eps=1/2"),
        (["root(2,2)"], "loglog:r=1,k=1,eps=1/2"),
        (["root(2,2)"], "power:coeff=1/2,exp=1"),
        (["root(2,3)", "root(4,3)"], "log:r=2,k=1,eps=1/2"),
        (["root(2,3)", "root(4,3)"], "power:r=2,coeff=1/2,exp=1"),
        (["root(2,2)"], "log:k=1"),
        (["root(2,3)", "root(4,3)"], "power:coeff=1/2,exp=1"),
    ], ids=["log-r1", "loglog-r1", "power-default-r1", "log-r2", "power-r2",
            "psi-without-r", "power-default-on-r2"])
    def test_verify_psi_matching_r_runs(self, tmp_path, capsys, alphas,
                                        spec):
        rec = enumerate_to(tmp_path / "c.rec", alphas, 12)
        capsys.readouterr()
        assert cli.main(["verify", str(rec), "--psi", spec,
                         "--format", "machine"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"]["psi-singular"]["status"] in ("pass", "fail")

    def test_report_unknown_format(self, tmp_path, capsys):
        f = tmp_path / "x"
        f.write_text("mystery\n")
        assert cli.main(["report", str(f)]) == cli.EXIT_USAGE


def wide_record_chain(path, used):
    """A sqrt(2) chain to M=1000 whose records are recomputed by the
    scan's rule at ``precision-used`` ``used``: every endpoint has a
    mantissa of about ``used`` bits, which no float holds."""
    chain = cli.parse_chain(enumerate_to(path, ["root(2,2)"], 1000)
                            .read_text())
    binding = scaled_constants(chain.form.alphas, used, PRECISION_CAP)
    records = tuple(BestApprox(r.index, r.m, r.M,
                               record_enclosure(r.m, binding))
                    for r in chain.records)
    path.write_text(cli.serialize_chain(
        replace(chain, records=records, precision_used=used)))
    return path


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["report"],
    ["extend", "--k", "1", "--samples", "1", "--seed", "1",
     "--max-norm", "30"],
], ids=["verify", "report", "extend"])
def test_wide_records_print(tmp_path, capsys, argv):
    # the text output prints each enclosure as a float; a chain file the
    # reader accepts prints, whatever its mantissas' size, what the chain
    # at the scan's own precision prints
    rec = wide_record_chain(tmp_path / "c.rec", 2048)
    narrow = enumerate_to(tmp_path / "n.rec", ["root(2,2)"], 1000)
    capsys.readouterr()
    outputs = []
    for path in (rec, narrow):
        assert cli.main([argv[0], str(path)] + argv[1:]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def printed_digits(text: str, exact: Fraction) -> bool:
    """Whether ``text`` is ``exact`` to 9 significant digits as ``.9g``
    writes a float above 1e16: a mantissa in [1, 10) without trailing
    zeros, ``e+`` and the exponent, within half a unit of the last
    digit."""
    mantissa, _, exponent = text.partition("e+")
    if mantissa.endswith("0") or not 1 <= Fraction(mantissa) < 10:
        return False
    unit = Fraction(10) ** (int(exponent) - 8)
    return abs(Fraction(mantissa) * 10 ** int(exponent) - exact) <= unit / 2


# a series sum above the float range raised OverflowError in the text
# report; every endpoint prints as a float would, from its exact value
@pytest.mark.parametrize("k", [103, 200])
def test_verify_text_beyond_the_float_range(tmp_path, capsys, k):
    rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 1000)
    capsys.readouterr()
    assert cli.main(["verify", str(rec), "--k", str(k)]) == cli.EXIT_OK
    text = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  S_")]
    assert cli.main(["verify", str(rec), "--k", str(k),
                     "--format", "machine"]) == cli.EXIT_OK
    sums = json.loads(capsys.readouterr().out)["series_partial_sums"]
    assert len(text) == len(sums) >= 2
    beyond = 0
    for i, (line, ends) in enumerate(zip(text, sums), start=1):
        got = line.removeprefix(f"  S_{i} = [").removesuffix("]").split(", ")
        for printed, hex_end in zip(got, ends):
            exact = as_fraction(dyadic_from_hex(hex_end))
            try:
                as_float = f"{float(exact):.9g}"
            except OverflowError:
                beyond += 1
                assert printed_digits(printed, exact), (printed, hex_end)
            else:
                assert printed == as_float
    assert beyond >= 2


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch):
    rec = enumerate_to(tmp_path / "c.rec", ["root(2,2)"], 10)
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "bachain":
            built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert cli.main(["report", str(rec)]) == cli.EXIT_OK
    assert len(built) <= 1
    assert cli.main(["verify", str(rec)]) == cli.EXIT_OK
    assert len(built) <= 1


class TestReproducibility:
    def test_enumerate_bit_identical(self, tmp_path):
        outs = []
        for name in ("a.rec", "b.rec"):
            path = tmp_path / name
            cli.main(["enumerate", "--alpha", "root(2,3)", "--alpha",
                      "root(4,3)", "--max-norm", "15", "--out", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_extend_bit_identical(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "20",
                  "--out", str(rec)])
        texts = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            cli.main(["extend", str(rec), "--k", "1", "--samples", "2",
                      "--seed", "5", "--format", "machine",
                      "--out", str(path)])
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


#: The chains the report pins are measured on: (alphas, max-norm) by r.
PIN_CHAINS = {1: (["root(2,2)"], 1000), 2: (["root(2,3)", "root(4,3)"], 40)}

#: sha256 of ``verify --psi SPEC --k K --format machine`` by (r, SPEC, K).
#: The psi margins and the k=1 partial sums carry logarithm digits.
REPORT_PINS = {
    (1, "log:r=1,k=1,eps=1/10", 1):
        "386a81a0303c013914f6bb4cd34cc456d2462d8d2705690b28eed3e8e60e239a",
    (1, "loglog:r=1,k=1,eps=1/10", 1):
        "f581f416a810e6dddab6102d81ed631c24d8fcf2d8506c90a4b405b936ea27e7",
    (1, "power:r=1,k=2,coeff=1/2,exp=1", 2):
        "cf4c8eba683990e5460d965c6cff2badd2336eec7a6130c9a888b540c51c185c",
    (2, "log:r=2,k=1,eps=1/10", 1):
        "3f81e2f36058caedf6d73873ea144bf8e2c6f44399ea073ab91606278693d2bf",
    (2, "loglog:r=2,k=1,eps=1/10", 1):
        "7de116bbea944db1769766fffc7474260269bf8b04e2a7adcadb7706bdc121ed",
    (2, "power:r=2,k=2,coeff=1/2,exp=1", 2):
        "ffe18b8da9853bc8db89f99c1af3c45e3e79c44b0dab1ab9ed220d08292597b8",
}


def test_verify_machine_report_pinned(tmp_path):
    chains = {r: enumerate_to(tmp_path / f"r{r}.rec", alphas, max_norm)
              for r, (alphas, max_norm) in PIN_CHAINS.items()}
    got = {}
    for r, spec, k in REPORT_PINS:
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(chains[r]), "--psi", spec,
                         "--k", str(k), "--format", "machine",
                         "--out", str(out)]) == cli.EXIT_OK
        got[r, spec, k] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == REPORT_PINS


#: sha256 of ``verify --psi SPEC --format machine`` on the r=1 pin chain.
#: An exponent 1 + eps takes an exact power and a 1/eps-th root of the
#: psi value's logarithms: the digests pin both to the last bit.
EXACT_POWER_PINS = {
    "loglog:r=1,eps=1/1000":
        "8e4bd993c55b500b32ed4f071cb1b5f84c109a9b207e5b96597a9de82e9f0bfb",
    "log:r=1,k=2,eps=1/300":
        "9d57f8ff456f5bbddfb025b29b58a5f9a9f0ee4a3347773d59f610985e558472",
}


def test_verify_exact_power_report_pinned(tmp_path):
    rec = enumerate_to(tmp_path / "r1.rec", *PIN_CHAINS[1])
    got = {}
    for spec in EXACT_POWER_PINS:
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(rec), "--psi", spec,
                         "--format", "machine",
                         "--out", str(out)]) == cli.EXIT_OK
        got[spec] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == EXACT_POWER_PINS
