import hashlib
import json
from fractions import Fraction

import pytest

from bachain import cli
from bachain.enumerator import enumerate_chain
from bachain.realnum import expr_to_text, root


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
        assert cli.parse_expr(text).exact_fraction() == value

    def test_root_expressions(self):
        e = cli.parse_expr("root(2,3)+root(4,3)")
        assert e.kind == "add"
        assert cli.parse_expr("root( 2 , 2 )") == root(2)

    @pytest.mark.parametrize("bad", [
        "", "root(2)", "1 +", "(1", "root(2,x)", "1 @ 2", "2 2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(cli.ExprSyntaxError):
            cli.parse_expr(bad)

    def test_division_by_zero_literal(self):
        with pytest.raises(cli.ExprSyntaxError):
            cli.parse_expr("1/0")

    def test_round_trip_fixture_expressions(self):
        for text in ["root(2,2)", "(1+root(5,2))/2 - 1", "root(5,2)-2",
                     "root(3,2)-1", "2*root(6,2)-4"]:
            e = cli.parse_expr(text)
            assert cli.parse_expr(expr_to_text(e)) == e


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


class TestPsiSpecParsing:
    def test_log_family(self):
        psi = cli.parse_psi("log:r=2,k=1,eps=1/10")
        assert psi.family == "log"
        assert psi.eps == Fraction(1, 10)
        assert psi.delta_k == 1

    def test_power_family(self):
        psi = cli.parse_psi("power:r=1,coeff=1/2,exp=1")
        assert psi.coeff == Fraction(1, 2)
        assert psi.power_exp == Fraction(1)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            cli.parse_psi("nolog")
        with pytest.raises(ValueError):
            cli.parse_psi("gauss:r=1")


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

    @pytest.mark.parametrize("extra", [
        ["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
         "--format", "machine"],
        ["verify", "CHAIN", "--precision-cap", "1"],
        ["verify", "CHAIN", "--budget", "1"],
    ])
    def test_unread_flags_rejected(self, tmp_path, capsys, extra):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "5",
                  "--out", str(rec)])
        argv = [str(rec) if a == "CHAIN" else a for a in extra]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EXIT_USAGE

    def test_report_pretty_prints_chain(self, tmp_path, capsys):
        rec = tmp_path / "c.rec"
        cli.main(["enumerate", "--alpha", "root(2,2)", "--max-norm", "12",
                  "--out", str(rec)])
        code = cli.main(["report", str(rec)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "alpha[1] = root(2, 2)" in out

    def test_report_unknown_format(self, tmp_path, capsys):
        f = tmp_path / "x"
        f.write_text("mystery\n")
        assert cli.main(["report", str(f)]) == cli.EXIT_USAGE


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
