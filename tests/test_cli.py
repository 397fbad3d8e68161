"""The msglen command line: fit, eval, sample, check."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msglen
from msglen import cli, models
from msglen import functions as fn
from msglen.checks import SUITES, CheckResult
from msglen.cli import main, parse_model_expr
from msglen.errors import DomainError, InvalidDatumError, ModelExprError
from msglen.estimation import data_costs
from msglen.models import (
    IndependentProductFamily,
    Model,
    NormalModel,
    TransformedContinuousFamily,
    UPModel,
)
from msglen.values import ColumnSpec, DataSet, dataset_from_csv


def run(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestModelExpr:
    def test_families(self):
        assert isinstance(parse_model_expr("normal"), UPModel)
        assert parse_model_expr("uniform:0:3").name == "uniform:0:3"
        assert parse_model_expr("multistate:0:1").name == "multistate:0:1"
        assert isinstance(parse_model_expr("rd:normal^2"), IndependentProductFamily)

    def test_parameterised(self):
        m = parse_model_expr("normal(0,1)")
        assert isinstance(m, NormalModel)
        m = parse_model_expr("multistate:0:1(0.5,0.5)")
        assert isinstance(m, Model)
        m = parse_model_expr("rd:normal^2(0,1;2,0.5)")
        assert m.components[1].mean == 2.0

    def test_transform_chain(self):
        fam = parse_model_expr("normal.transform(log)")
        assert isinstance(fam, TransformedContinuousFamily)
        fam = parse_model_expr("normal.transform(linear(2,1)).transform(exp)")
        assert fam.name == "normal.transform(linear(2,1)).transform(exp)"

    def test_fit_prints_the_linear_map_it_fitted(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n1.5\n2.5\n4.0\n")
        argv = ["fit", "normal.transform(linear(1.23456789,0))", path, "--format", "kv"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        name = kv(out)["model"]
        assert name == "normal.transform(linear(1.23456789,0))"
        assert parse_model_expr(name).f.a == 1.23456789

    def test_parameterised_transform(self):
        m = parse_model_expr("normal(0,1).transform(log)")
        assert m.pdf(1.0) == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_discrete_transform_uses_bounds(self):
        fam = parse_model_expr("uniform:0:3.transform(reverse)")
        m = fam.parameterise(())
        assert [m.pdf(k) for k in m.space()] == pytest.approx([0.25] * 4)
        parse_model_expr("multistate:0:5.transform(rotate(2))")

    @pytest.mark.parametrize(
        "expr",
        [
            "uniform:0:3.transform(rotate(1e400))",
            "uniform:0:3.transform(rotate(1.5))",
            "rd:normal^2.transform(permute(1e400,0))",
            "rd:normal^2.transform(permute(1.5,0))",
        ],
    )
    def test_function_arguments_must_be_integers(self, expr, capsys):
        with pytest.raises(ModelExprError):
            parse_model_expr(expr)
        code, _, err = run(["fit", expr, "-"], capsys)
        assert code == 1 and "integer" in err

    def test_rotate_takes_one_argument(self):
        with pytest.raises(ModelExprError, match=r"rotate takes \(k\)"):
            parse_model_expr("multistate:0:3.transform(rotate(1,2))")

    @pytest.mark.parametrize(
        "template, column",
        [
            ("multistate:0:3(0.1,0.2,0.3,0.4).transform(rotate({}))", 49),
            ("rd:normal^2(0,1;0,1).transform(permute({},0))", 39),
            ("multistate:0:{}", 13),
        ],
        ids=["rotate", "permute", "multistate"],
    )
    def test_an_integer_past_the_digit_limit_is_a_usage_error(self, template, column, capsys):
        # int() refuses a string of more digits than sys.get_int_max_str_digits().
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["sample", template.format("9" * (limit + 700)), "1"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: an integer has at most {limit} digits (at column {column})\n"

    def test_integer_arguments_are_not_rounded(self, tmp_path, capsys):
        # 2^53 + 1 is the first integer a float cannot hold.
        shift = 2**53 + 1
        rotated = f"multistate:0:3(0.1,0.2,0.3,0.4).transform(rotate({shift}))"
        assert parse_model_expr(rotated).f.shift == shift
        path = write_csv(tmp_path, "k.csv", "k\n1\n2\n3\n")
        assert run(["eval", rotated, path], capsys) == run(
            ["eval", "multistate:0:3(0.1,0.2,0.3,0.4).transform(rotate(1))", path], capsys
        )
        code, out, _ = run(["fit", f"multistate:0:3.transform(rotate({shift}))", path], capsys)
        assert code == 0 and f"rotate({shift})" in out
        code, _, err = run(["sample", f"rd:normal^2(0,1;0,1).transform(permute({shift},0))", "1"], capsys)
        assert code == 1 and f"({shift}, 0) is not a permutation" in err

    def test_errors_carry_position(self):
        with pytest.raises(ModelExprError):
            parse_model_expr("gamma")
        with pytest.raises(ModelExprError):
            parse_model_expr("normal.transform(polar2cartesian)")
        with pytest.raises(ModelExprError):
            parse_model_expr("normal.transform(frobnicate)")
        with pytest.raises(ModelExprError):
            parse_model_expr("normal(0,1)x")
        with pytest.raises(ModelExprError):
            parse_model_expr("uniform:3:0")


class TestFit:
    def test_fit_normal_kv(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        rows = "\n".join(repr(float(x)) for x in rng.normal(5, 2, 200))
        path = write_csv(tmp_path, "d.csv", "x\n" + rows + "\n")
        code, out, _ = run(["fit", "normal", path, "--aom-const", "0.01", "--format", "kv"], capsys)
        assert code == 0
        got = kv(out)
        assert got["model"] == "normal"
        assert abs(float(got["param.mean"]) - 5.0) < 0.6
        assert float(got["msg"]) == pytest.approx(
            float(got["msg1"]) + float(got["msg2"]), abs=1e-9
        )
        assert got["units"] == "nits"

    def test_fit_log_normal_matches_external_log_mapping(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        xs = [math.exp(float(v)) for v in rng.normal(0.3, 0.9, 300)]
        raw = "x,aom\n" + "\n".join(f"{x!r},0.001" for x in xs) + "\n"
        mapped = "x,aom\n" + "\n".join(
            f"{math.log(x)!r},{0.001 / x!r}" for x in xs
        ) + "\n"
        p1 = write_csv(tmp_path, "raw.csv", raw)
        p2 = write_csv(tmp_path, "mapped.csv", mapped)
        code1, out1, _ = run(
            ["fit", "normal.transform(log)", p1, "--aom-col", "aom", "--format", "kv"], capsys
        )
        code2, out2, _ = run(["fit", "normal", p2, "--aom-col", "aom", "--format", "kv"], capsys)
        assert code1 == 0 and code2 == 0
        assert float(kv(out1)["msg"]) == pytest.approx(float(kv(out2)["msg"]), abs=1e-9)

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path, capsys, monkeypatch):
        # Spreadsheets export UTF-8 with a byte-order mark before the header.
        text = "x,err\n1.5,0.1\n2.5,0.1\n4.0,0.1\n"
        flags = ["--col", "x", "--aom-col", "err", "--format", "kv"]
        plain = run(["fit", "normal", write_csv(tmp_path, "plain.csv", text)] + flags, capsys)
        assert plain[0] == 0
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run(["fit", "normal", str(path)] + flags, capsys) == plain
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(["fit", "normal", "-"] + flags, capsys) == plain

    def test_fit_uniform_rejects_out_of_bounds(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "k\n1\n7\n")
        code, _, err = run(["fit", "uniform:0:3", path], capsys)
        assert code == 2
        assert "7" in err

    def test_fit_rd_two_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = "\n".join(
            f"{float(a)!r},{float(b)!r}" for a, b in zip(rng.normal(0, 1, 100), rng.normal(3, 2, 100))
        )
        path = write_csv(tmp_path, "d.csv", "a,b\n" + rows + "\n")
        code, out, _ = run(["fit", "rd:normal^2", path, "--aom-const", "0.01", "--format", "kv"], capsys)
        assert code == 0
        got = kv(out)
        assert abs(float(got["param.0.mean"])) < 0.5
        assert abs(float(got["param.1.mean"]) - 3.0) < 1.0

    def test_fit_multistate(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "k\n0\n0\n1\n1\n")
        code, out, _ = run(["fit", "multistate:0:1", path, "--format", "kv"], capsys)
        assert code == 0
        got = kv(out)
        assert float(got["param.p0"]) == pytest.approx(0.5, rel=1e-12)

    def test_quoted_header(self, tmp_path, capsys):
        path = write_csv(tmp_path, "q.csv", '"x",aom\n1.5,0.1\n2.5,0.1\n')
        code, out, _ = run(["fit", "normal", path, "--aom-col", "aom", "--format", "kv"], capsys)
        assert code == 0
        assert float(kv(out)["param.mean"]) == pytest.approx(2.0, rel=1e-12)

    def test_extreme_data_is_data_error(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x,aom\n1e308,1e300\n-1e308,1e300\n")
        code, out, err = run(["fit", "normal", path, "--aom-col", "aom"], capsys)
        assert code == 2
        assert out == "" and len(err.strip().splitlines()) == 1

    def test_squares_past_the_float_range_fit_when_the_sd_is_a_float(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x,aom\n1e300,1e300\n-1e300,1e300\n")
        code, out, _ = run(["fit", "normal", path, "--aom-col", "aom", "--format", "kv"], capsys)
        assert code == 0
        assert float(kv(out)["param.sd"]) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)

    @pytest.mark.parametrize(
        "rows,fitted",
        [
            ("9e307,1\n9.1e307,1\n", "mean: 9.05e+307\nsd: 7.07106781187e+305\n"),
            # The sd is the floor, the mean AoM 1e307 over sqrt(12).
            ("".join(f"{x},1e307\n" for x in range(20)), "mean: 9.5\nsd: 2.88675134595e+306\n"),
        ],
        ids=["values", "aoms"],
    )
    def test_columns_that_sum_past_the_float_range_fit_when_their_mean_is_a_float(
        self, tmp_path, capsys, rows, fitted
    ):
        path = write_csv(tmp_path, "big.csv", "x,aom\n" + rows)
        code, out, _ = run(["fit", "normal", path, "--aom-col", "aom"], capsys)
        assert code == 0
        assert fitted in out

    def test_product_overflow_names_the_product(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x1,x2\n1e308,1\n-1e308,2\n")
        code, out, err = run(["fit", "rd:normal^2", path, "--aom-const", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: rd:normal^2 cannot fit these data: the fit overflows a float\n"

    def test_transformed_overflow_names_the_transformed_family(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x1,x2\n1e308,1\n-1e308,2\n")
        family = "rd:normal^2.transform(permute(1,0))"
        code, out, err = run(["fit", family, path, "--aom-const", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {family} cannot fit these data: the fit overflows a float\n"

    def test_overflowing_map_is_data_error(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x\n1000\n1001\n")
        code, out, err = run(["fit", "normal.transform(exp)", path], capsys)
        assert code == 2
        assert out == "" and len(err.strip().splitlines()) == 1

    def test_fit_text_lines(self, tmp_path, capsys):
        # mean 7/3, sd sqrt(7/3) (the n-1 form), each to 12 significant digits
        path = write_csv(tmp_path, "d.csv", "x\n1.0\n2.0\n4.0\n")
        code, out, err = run(["fit", "normal", path, "--aom-const", "0.1"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "model: normal",
            "mean: 2.33333333333",
            "sd: 1.52752523165",
            "msg1: 2.77230941791 nits",
            "msg2: 11.9355176692 nits",
            "msg: 14.7078270871 nits",
        ]

    @pytest.mark.parametrize("hi", [171, 999])
    def test_fit_multistate_past_171_states(self, tmp_path, capsys, hi):
        # (k-1)! overflows a float past k = 171; the statement cost does not
        path = write_csv(tmp_path, "d.csv", "k\n0\n1\n")
        code, out, err = run(["fit", f"multistate:0:{hi}", path, "--format", "kv"], capsys)
        assert code == 0 and err == ""
        got = kv(out)
        assert float(got["msg1"]) == 0.0 and math.isfinite(float(got["msg"]))

    @pytest.mark.parametrize("expr", ["uniform:0:3", "uniform:0:3.transform(reverse)"])
    def test_fit_bounded_uniform_has_no_parameters(self, expr, tmp_path, capsys):
        # Nothing is estimated: no parameter lines, msg1 0 and msg2 n ln 4.
        path = write_csv(tmp_path, "d.csv", "k\n0\n3\n1\n1\n2\n")
        name = parse_model_expr(expr).parameterise(()).name
        msg2 = 5 * math.log(4.0)
        code, out, err = run(["fit", expr, path], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"model: {name}", "msg1: 0 nits", f"msg2: {msg2:.12g} nits", f"msg: {msg2:.12g} nits"
        ]
        code, out, err = run(["fit", expr, path, "--format", "kv"], capsys)
        assert (code, err) == (0, "")
        assert kv(out) == {
            "model": name, "msg1": "0.0", "msg2": repr(msg2), "msg": repr(msg2), "units": "nits"
        }

    def test_fit_rejects_parameterised_model(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n1\n2\n")
        code, _, err = run(["fit", "normal(0,1)", path], capsys)
        assert code == 1

    def test_fit_bits_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = "\n".join(repr(float(x)) for x in rng.normal(0, 1, 50))
        path = write_csv(tmp_path, "d.csv", "x\n" + rows + "\n")
        _, nits_out, _ = run(["fit", "normal", path, "--aom-const", "0.01", "--format", "kv"], capsys)
        _, bits_out, _ = run(
            ["fit", "normal", path, "--aom-const", "0.01", "--format", "kv", "--bits"], capsys
        )
        assert float(kv(bits_out)["msg"]) == pytest.approx(
            float(kv(nits_out)["msg"]) / math.log(2.0), rel=1e-12
        )
        assert kv(bits_out)["units"] == "bits"


    @pytest.mark.parametrize(
        "rows, message",
        [
            # The range overflows a float, but the smallest gap does not.
            (["1e308", "0", "-1e308"], None),
            (["1e308", "-1e308"], "column 'x': its values are too far apart to infer an AoM"),
        ],
        ids=["wide-range", "wide-gap"],
    )
    def test_inferred_aom_over_the_float_range(self, rows, message, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["fit", "normal", path], capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        if message is None:
            # The AoM is inferred (1e308, the smallest gap); the fit then overflows.
            assert "cannot fit these data" in err
        else:
            assert err.startswith(f"error: {message}") and "--aom-col" in err


class TestEval:
    def test_standard_normal_single_row(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "normal(0,1)", "-", "--aom-col", "aom", "--format", "kv"],
            capsys,
            stdin_text="x,aom\n0,1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert float(kv(out)["total"]) == pytest.approx(0.9189385332046727, rel=1e-9)

    def test_readme_example_prints_what_it_says(self, capsys, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r'echo "([^"]*)" \| msglen (eval [^#\n]*?) *# (\S+) nits\n', readme)
        assert example, "README has no eval example"
        csv_text, command, shown = example.groups()
        code, out, _ = run(shlex.split(command), capsys, csv_text + "\n", monkeypatch)
        assert code == 0
        total = re.search(r"^total: (\S+)$", out, re.MULTILINE).group(1)
        assert f"{float(total):.6f}" == shown

    def test_empty_csv_totals_zero(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "normal(0,1)", "-", "--format", "kv"],
            capsys,
            stdin_text="x\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert float(kv(out)["total"]) == 0.0
        assert kv(out)["count"] == "0"

    def test_fair_coin(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "multistate:0:1(0.5,0.5)", "-", "--format", "kv"],
            capsys,
            stdin_text="k\n0\n1\n1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert float(kv(out)["total"]) == pytest.approx(3 * math.log(2.0), rel=1e-12)

    def test_eval_requires_parameters(self, capsys, monkeypatch):
        code, _, err = run(
            ["eval", "normal", "-"], capsys, stdin_text="x\n0\n", monkeypatch=monkeypatch
        )
        assert code == 1
        assert "parameters" in err

    def test_uniform_has_trivial_parameters(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "uniform:0:3", "-", "--format", "kv"],
            capsys,
            stdin_text="k\n2\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert float(kv(out)["total"]) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_domain_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run(
            ["eval", "normal(0,1).transform(log)", "-", "--aom-const", "0.1"],
            capsys,
            stdin_text="x\n-1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "expr, stdin, flags, message",
        [
            # Two finite costs of about 1.1e308 each, whose sum overflows.
            (
                "normal(0,1)", "x,aom\n1.5e154,1\n1.5e154,1\n", ["--aom-col", "aom"],
                "normal scored rows whose costs sum past the float range",
            ),
            # A finite datum whose z*z overflows in nl_pdf.
            (
                "normal(0,1)", "x,aom\n1e308,1\n", ["--aom-col", "aom"],
                "index 0: normal scored a row that costs inf nits",
            ),
            # A state of probability 0.
            (
                "multistate:0:1(0,1)", "k\n1\n0\n", [],
                "index 1: multistate:0:1 scored a row that costs inf nits",
            ),
            # A cost of about 1.4e308 nits, finite, is past the float range
            # in bits: the check runs on the numbers eval prints.
            (
                "normal(0,1)", "x,aom\n1.7e154,1\n", ["--aom-col", "aom", "--bits"],
                "index 0: normal scored a row that costs inf bits",
            ),
            # Two costs of about 7.2e307 nits each sum to a finite total in
            # nits, but to one past the float range in bits.
            (
                "normal(0,1)", "x,aom\n1.2e154,1\n1.2e154,1\n", ["--aom-col", "aom", "--bits"],
                "normal scored rows whose costs sum past the float range",
            ),
            (
                "multistate:0:1(0,1)", "k\n1\n0\n", ["--bits"],
                "index 1: multistate:0:1 scored a row that costs inf bits",
            ),
        ],
        ids=[
            "total-overflows", "row-overflows", "probability-0",
            "row-overflows-in-bits", "total-overflows-in-bits", "probability-0-in-bits",
        ],
    )
    def test_cost_that_is_not_a_code_length_is_an_error(
        self, expr, stdin, flags, message, capsys, monkeypatch
    ):
        code, out, err = run(
            ["eval", expr, "-", *flags], capsys, stdin_text=stdin, monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "stdin, expected",
        [
            (
                "x,aom\n1.7e154,1\n",
                "nlpr.0=1.4449999999999998e+308\ncount=1\n"
                "total=1.4449999999999998e+308\nunits=nits\n",
            ),
            (
                "x,aom\n1.2e154,1\n1.2e154,1\n",
                "nlpr.0=7.200000000000001e+307\nnlpr.1=7.200000000000001e+307\ncount=2\n"
                "total=1.4400000000000002e+308\nunits=nits\n",
            ),
        ],
        ids=["row", "total"],
    )
    def test_cost_past_the_float_range_only_in_bits_is_printed_in_nits(
        self, stdin, expected, capsys, monkeypatch
    ):
        code, out, err = run(
            ["eval", "normal(0,1)", "-", "--aom-col", "aom", "--format", "kv"],
            capsys,
            stdin_text=stdin,
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (0, expected, "")

    def test_certain_state_costs_plus_zero(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "multistate:0:0(1)", "-", "--format", "kv"],
            capsys,
            stdin_text="k\n0\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.splitlines()[0] == "nlpr.0=0.0"

    def test_total_matches_fit_msg2(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        rows = "".join(f"{float(x)!r},0.001\n" for x in rng.normal(3.0, 2.0, 5000))
        path = write_csv(tmp_path, "d.csv", "x,err\n" + rows)
        _, out, _ = run(["fit", "normal", path, "--aom-col", "err", "--format", "kv"], capsys)
        fit = kv(out)
        model = f"normal({fit['param.mean']},{fit['param.sd']})"
        code, out, _ = run(["eval", model, path, "--aom-col", "err", "--format", "kv"], capsys)
        assert code == 0
        assert kv(out)["total"] == fit["msg2"]

    def test_polar_total_matches_fit_msg2(self, tmp_path, capsys):
        # Rows where adding the columns' rounded totals, rather than the row
        # costs, comes out one ulp above eval's total.
        path = write_csv(tmp_path, "d.csv", "x1,x2\n2.67,3.35\n3.05,3.14\n3.60,3.69\n2.49,2.98\n")
        polar = "rd:normal^2{}.transform(cartesian2polar)"
        argv = [path, "--aom-const", "0.01", "--format", "kv"]
        _, out, _ = run(["fit", polar.format("")] + argv, capsys)
        fit = kv(out)
        params = ";".join(f"{fit[f'param.{j}.mean']},{fit[f'param.{j}.sd']}" for j in (0, 1))
        code, out, _ = run(["eval", polar.format(f"({params})")] + argv, capsys)
        assert code == 0
        assert kv(out)["total"] == fit["msg2"] == "38.72196133818089"


class TestSample:
    def test_deterministic_under_seed(self, capsys):
        code1, out1, _ = run(["sample", "normal(0,1).transform(log)", "5", "--seed", "42"], capsys)
        code2, out2, _ = run(["sample", "normal(0,1).transform(log)", "5", "--seed", "42"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        _, out3, _ = run(["sample", "normal(0,1).transform(log)", "5", "--seed", "43"], capsys)
        assert out3 != out1

    def test_zero_rows_gives_header_only(self, capsys):
        code, out, _ = run(["sample", "normal(0,1)", "0"], capsys)
        assert code == 0
        assert out == "x,aom\n"

    def test_log_normal_draws_positive(self, capsys):
        _, out, _ = run(["sample", "normal(0,1).transform(log)", "200", "--seed", "1"], capsys)
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 200
        assert all(float(r.split(",")[0]) > 0 for r in rows)

    def test_sample_then_fit_recovers(self, tmp_path, capsys):
        code, out, _ = run(["sample", "normal(3,0.5)", "100000", "--seed", "9"], capsys)
        assert code == 0
        path = tmp_path / "s.csv"
        path.write_text(out)
        code, out, _ = run(
            ["fit", "normal", str(path), "--aom-col", "aom", "--format", "kv"], capsys
        )
        assert code == 0
        got = kv(out)
        n = 100000
        assert abs(float(got["param.mean"]) - 3.0) < 3 * 0.5 / math.sqrt(n)
        assert abs(float(got["param.sd"]) - 0.5) < 3 * 0.5 / math.sqrt(2 * n)

    @pytest.mark.parametrize(
        "expr, header",
        [
            ("rd:normal^2(0,1;0,1)", "x1,x2,aom1,aom2"),
            ("multistate:0:1(0.5,0.5)", "x"),
        ],
        ids=["vec", "discrete"],
    )
    def test_zero_rows_of_every_kind_give_header_only(self, expr, header, capsys):
        code, out, err = run(["sample", expr, "0"], capsys)
        assert (code, out, err) == (0, header + "\n", "")

    def test_discrete_and_vector_headers(self, capsys):
        _, out, _ = run(["sample", "uniform:0:3", "2", "--seed", "0"], capsys)
        assert out.splitlines()[0] == "x"
        _, out, _ = run(["sample", "rd:normal^2(0,1;1,1)", "2", "--seed", "0"], capsys)
        assert out.splitlines()[0] == "x1,x2,aom1,aom2"

    def test_sample_aom_flag(self, capsys):
        _, out, _ = run(
            ["sample", "normal(0,1)", "1", "--seed", "0", "--sample-aom", "0.25"], capsys
        )
        assert out.strip().splitlines()[1].split(",")[1] == "0.25"

    def test_draw_without_preimage_is_data_error(self, capsys):
        # about half the normal draws are <= 0, which log (exp's inverse) rejects
        code, _, err = run(["sample", "normal(0,1).transform(exp)", "10", "--seed", "0"], capsys)
        assert code == 2
        assert "normal.transform(exp)" in err and len(err.strip().splitlines()) == 1

    def test_failed_draw_writes_no_rows(self, capsys):
        code, out, _ = run(["sample", "normal(0,1).transform(exp)", "10", "--seed", "0"], capsys)
        assert code == 2
        assert out == ""

    def test_negative_count(self, capsys):
        code, _, _ = run(["sample", "normal(0,1)", "-3"], capsys)
        assert code == 1

    def test_failed_draw_reports_the_per_draw_error(self, capsys):
        model = cli._require_model(parse_model_expr("normal(0,1).transform(exp)"))
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError) as want:
            for _ in range(10):
                model.random(rng)
        code, out, err = run(["sample", "normal(0,1).transform(exp)", "10", "--seed", "0"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {want.value}\n"
        assert "np.float64" not in err and "drew -0.13" in err

    @pytest.mark.parametrize(
        "expr, aom, count",
        [
            ("normal(0,1)", 0.0, 10),
            ("rd:normal^2(0,1;0,1)", math.nan, 10),
            ("normal(1e308,1e308)", 0.5, 10),
            # Draw 1 has no preimage, but the bad AoM fails on draw 0.
            ("normal(0,1).transform(exp)", 0.0, 10),
            # Draw 6 is infinite, and a later draw has no preimage.
            ("normal(1e308,1e308).transform(exp)", 0.5, 20),
        ],
        ids=["zero-aom", "nan-aom", "infinite-draw", "zero-aom-failing-draws", "infinite-then-failed"],
    )
    def test_invalid_datum_reports_the_per_draw_error(self, expr, aom, count, capsys):
        model = cli._require_model(parse_model_expr(expr))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDatumError) as want:
            for _ in range(count):
                model.random(rng, aom)
        code, out, err = run(["sample", expr, str(count), "--sample-aom", repr(aom)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {want.value}\n"

    def test_bad_aom_fails_before_the_column_is_drawn(self, monkeypatch, capsys):
        def no_column(self, rng, n):
            raise AssertionError("drew a column")

        monkeypatch.setattr(models.NormalModel, "random_col", no_column)
        code, out, err = run(["sample", "normal(0,1)", "1000000", "--sample-aom", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: aom must be positive, got 0.0\n"

    @pytest.mark.parametrize("count", ["0", "2"])
    def test_a_bad_aom_fails_at_every_count(self, count, capsys):
        code, out, err = run(["sample", "normal(0,1)", count, "--sample-aom", "-5"], capsys)
        assert (code, out, err) == (2, "", "error: aom must be positive, got -5.0\n")

    def test_overflowing_inverse_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["sample", "normal(800,1).transform(log)", "3"], capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "cannot draw" in err

    def test_polar_draws_outside_the_support_are_kept(self, capsys):
        # The base normal puts mass at r <= 0 and at angles outside [0, 2*pi),
        # where polar2cartesian (the inverse) is not defined; such draws are
        # mapped by its formula, as the per-draw path maps them.
        expr = "rd:normal^2(0,1;0,1).transform(cartesian2polar)"
        code, out, _ = run(["sample", expr, "5", "--seed", "0"], capsys)
        assert code == 0
        model = parse_model_expr(expr)
        base = model.base.random_col(np.random.default_rng(0), 5)
        assert not all(fn.polar2cartesian.contains(v) for v in base.tolist())
        rng = np.random.default_rng(0)
        want = [model.random(rng) for _ in range(5)]
        got = [[float(c) for c in line.split(",")] for line in out.splitlines()[1:]]
        np.testing.assert_array_max_ulp(
            np.array(got), np.array([d.components + d.aoms for d in want]), maxulp=1
        )

    @pytest.mark.parametrize(
        "expr, message",
        [
            # The preimage 1e-300 is where inv's slope overflows.
            ("normal(1e300,1).transform(inv)", "inv has derivative inf at 1e-300"),
            # Polar round-off moves r by an ulp of 1e300, whose z*z overflows.
            (
                "rd:normal^2(1e300,1;0,0.5).transform(cartesian2polar)",
                "index 0: rd:normal^2.transform(cartesian2polar) drew a row that costs inf nits",
            ),
        ],
        ids=["unscorable-row", "infinite-cost"],
    )
    def test_rows_eval_cannot_score_are_an_error(self, expr, message, capsys):
        code, out, err = run(["sample", expr, "1", "--seed", "0"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: index 0: ")
        assert message in err

    def test_rows_are_written_in_blocks(self, monkeypatch):
        writes = []

        class Stdout(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["sample", "normal(0,1)", "3000", "--seed", "0"]) == 0
        lines = [text.count("\n") for text in writes]
        assert lines == [1] + [cli._EMIT_BLOCK] * 2 + [3000 - 2 * cli._EMIT_BLOCK]


class TestCheck:
    @pytest.mark.parametrize("suite", ["commute-sp", "commute-est", "info", "jacobian", "normalize", "aom"])
    def test_suites_pass(self, suite, capsys):
        code, out, _ = run(["check", suite], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "ok" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(["check", "bogus"], capsys)
        assert code == 1

    def test_a_failed_result_is_counted_and_exits_3(self, capsys, monkeypatch):
        results = [CheckResult(name, name != "b", "d") for name in "abc"]
        monkeypatch.setitem(SUITES, "info", lambda: results)
        code, out, _ = run(["check", "info"], capsys)
        assert code == cli.CHECK_FAILED == 3
        assert out.splitlines() == ["ok   a: d", "FAIL b: d", "ok   c: d", "info: 2/3 passed"]


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_parse_error_goes_to_stderr(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n1\n")
        code, out, err = run(["fit", "gamma", path], capsys)
        assert code == 1
        assert out == "" and "gamma" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit"], "the following arguments are required: model"),
            (["sample", "normal(0,1)", "x"], "argument count: invalid int value: 'x'"),
            (
                ["sample", "normal(0,1)", "0", "--seed", "-1"],
                "--seed takes a non-negative integer, got -1",
            ),
            (
                ["eval", "uniform:0:3", "-", "--aom-const", "-5"],
                "uniform:0:3 models discrete data; --aom-const is for continuous data",
            ),
            (
                ["fit", "multistate:0:3", "-", "--aom-col", "k"],
                "multistate:0:3 models discrete data; --aom-col is for continuous data",
            ),
            (
                ["sample", "uniform:0:3", "3", "--sample-aom", "1e-6"],
                "uniform:0:3 models discrete data; --sample-aom is for continuous data",
            ),
        ],
        ids=[
            "no-model", "bad-count", "negative-seed", "discrete-aom-const", "discrete-aom-col",
            "discrete-sample-aom",
        ],
    )
    def test_argument_error_is_one_usage_error_line(self, argv, message, capsys, monkeypatch):
        code, out, err = run(argv, capsys, "k\n1\n2\n", monkeypatch)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n1\n2\n")
        code, _, err = run(["fit", "normal", path, "--col", "nope"], capsys)
        assert code == 2


class TestEvalOutput:
    """eval writes its lines in blocks; the bytes are one line per datum,
    in order, then the summary."""

    N_ROWS = 2 * cli._EMIT_BLOCK + 5

    def _data(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = "".join(f"{float(x)!r}\n" for x in rng.normal(1.0, 2.0, self.N_ROWS))
        return write_csv(tmp_path, "d.csv", "x\n" + rows)

    def test_kv_lines_in_order(self, tmp_path, capsys):
        path = self._data(tmp_path)
        model = parse_model_expr("normal(1,2)")
        schema = [ColumnSpec("x", kind="cts", aom_const=0.01)]
        with open(path) as handle:
            costs, total = data_costs(model, dataset_from_csv(handle.read(), schema))
        code, out, _ = run(["eval", "normal(1,2)", path, "--aom-const", "0.01", "--format", "kv"], capsys)
        assert code == 0
        expected = "".join(f"nlpr.{i}={c!r}\n" for i, c in enumerate(costs))
        expected += f"count={self.N_ROWS}\ntotal={total!r}\nunits=nits\n"
        assert out == expected

    def test_text_lines_in_order(self, tmp_path, capsys):
        path = self._data(tmp_path)
        code, out, _ = run(["eval", "normal(1,2)", path, "--aom-const", "0.01", "--bits"], capsys)
        assert code == 0
        lines = out.splitlines()
        keys = [line.partition(": ")[0] for line in lines]
        assert keys == [f"nlpr.{i}" for i in range(self.N_ROWS)] + ["count", "total", "units"]
        assert lines[-3] == f"count: {self.N_ROWS}" and lines[-1] == "units: bits"
        assert out.endswith("\n")


class TestUnreadableInput:
    """An input that cannot be read is a data error with one line naming it."""

    def _assert_one_line(self, code, out, err, name):
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "nonexistent.csv")
        self._assert_one_line(*run(["fit", "normal", path], capsys), path)

    def test_directory(self, tmp_path, capsys):
        self._assert_one_line(*run(["fit", "normal", str(tmp_path)], capsys), str(tmp_path))

    def test_not_utf8(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        self._assert_one_line(*run(["fit", "normal", str(path)], capsys), str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
        self._assert_one_line(*run(["fit", "normal", "-"], capsys), "stdin")

    def test_not_utf8_on_stdin_with_surrogateescape(self, capsys, monkeypatch):
        # Under a C or C.UTF-8 locale the interpreter decodes stdin this way,
        # so the bad bytes arrive as lone surrogates, not a decode error.
        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        self._assert_one_line(*run(["fit", "normal", "-"], capsys), "stdin")


    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,err\r1.5,0.1\r", "header row: cannot split into cells: new-line character seen in unquoted field"),
            ("x,err\n1.5,0.1\r2.5,0.1\r", "row 1: cannot split into cells: new-line character seen in unquoted field"),
            ("x,err,u\n1.5,0.1," + "9" * 131073 + "\n", "row 1: cannot split into cells: field larger than field limit (131072)"),
        ],
        ids=["bare-cr", "bare-cr-after-the-header", "long-field"],
    )
    def test_text_csv_cannot_split(self, text, message, tmp_path, capsys, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert run(["fit", "normal", str(path), "--aom-col", "err"], capsys) == (2, "", f"error: {message}\n")
        # As the interpreter's stdin reads a pipe: no newline translation.
        stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(["fit", "normal", "-", "--aom-col", "err"], capsys) == (2, "", f"error: {message}\n")


class TestMapErrors:
    def test_degenerate_map_names_the_row(self, tmp_path, capsys):
        path = write_csv(tmp_path, "big.csv", "x\n1\n1000\n")
        code, out, err = run(["fit", "normal.transform(exp)", path], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: index 1: exp has derivative inf")

    @pytest.mark.parametrize(
        "command", [["fit", "normal.transform(inv)"], ["eval", "normal(0,1).transform(inv)"]]
    )
    def test_vanishing_input_to_inv_names_the_row(self, tmp_path, capsys, command):
        # inv's slope -1/x^2 divides by zero once x*x underflows
        path = write_csv(tmp_path, "tiny.csv", "x\n2\n1e-200\n")
        code, out, err = run(command + [path, "--aom-const", "1e-3"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: index 1: inv has derivative inf at 1e-200; the AoM cannot scale by it"
        ]


# Run in a fresh interpreter, so that no other test's import of scipy counts.
_COLD_SCRIPT = r"""
import contextlib, io, json, sys
import msglen, msglen.cli as cli

csv_path = sys.argv[1]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["fit", "normal.transform(log)", csv_path]))
    codes.append(cli.main(["eval", "normal(0,1).transform(log)", csv_path]))
    codes.append(cli.main(["sample", "normal(0,1).transform(log)", "5", "--seed", "1"]))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
check = io.StringIO()
with contextlib.redirect_stdout(check):
    codes.append(cli.main(["check", "normalize"]))
print(json.dumps({"codes": codes, "scipy": scipy, "check": check.getvalue().splitlines()[-1]}))
"""


# Run in a fresh interpreter in which any import of scipy fails.
_NO_SCIPY_SCRIPT = r"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
import msglen.cli as cli
from msglen.checks import SUITES

csv_path = sys.argv[1]
codes, checks = [], []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["fit", "normal.transform(log)", csv_path]))
    codes.append(cli.main(["eval", "normal(0,1).transform(log)", csv_path]))
    codes.append(cli.main(["sample", "normal(0,1).transform(log)", "5", "--seed", "1"]))
for suite in SUITES:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(["check", suite]))
    checks.append(out.getvalue().splitlines()[-1])
print(json.dumps({"codes": codes, "checks": checks}))
"""


# Run in a fresh interpreter, so that no other test's import of numpy.ma counts.
_INFERRED_AOM_SCRIPT = r"""
import contextlib, io, json, sys
import msglen.cli as cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["fit", "normal.transform(log)", sys.argv[1]])
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


class TestColdPath:
    def test_a_fit_that_infers_its_aom_does_not_import_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma, about 10 ms of a cold fit.
        path = write_csv(tmp_path, "d.csv", "x\n0.5\n1.5\n2.5\n4\n")
        src = str(Path(msglen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _INFERRED_AOM_SCRIPT, path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "numpy.ma": False}

    def test_fit_eval_sample_do_not_import_scipy(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "x,aom\n0.5,0.01\n1.5,0.01\n2.5,0.01\n")
        src = str(Path(msglen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_SCRIPT, path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["scipy"] == []
        assert got["codes"] == [0, 0, 0, 0]
        assert got["check"] == "normalize: 4/4 passed"

    def test_no_command_imports_scipy(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "x,aom\n0.5,0.01\n1.5,0.01\n2.5,0.01\n")
        src = str(Path(msglen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", _NO_SCIPY_SCRIPT, path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [0] * (3 + len(SUITES))
        assert len(got["checks"]) == len(SUITES)
        for suite, line in zip(SUITES, got["checks"]):
            assert re.fullmatch(rf"{suite}: ([1-9]\d*)/\1 passed", line), line


class TestBrokenPipe:
    """A reader that closes the pipe after one line ends the run with exit 1
    and nothing on stderr."""

    @staticmethod
    def _close_after_one_line(*argv) -> tuple:
        src = str(Path(msglen.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "msglen.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return line, proc.wait(timeout=120), err

    def test_closed_stdout_prints_no_traceback(self, tmp_path):
        rows = "\n".join(f"{0.001 * i:.3f}" for i in range(5000))
        path = write_csv(tmp_path, "n5k.csv", "x\n" + rows + "\n")
        line, code, err = self._close_after_one_line("eval", "normal(0,1)", path, "--aom-const", "0.1")
        assert line.startswith(b"nlpr.0: ")
        assert code == 1 and err == b""

    def test_closed_stdout_ends_a_large_sample(self):
        line, code, err = self._close_after_one_line("sample", "normal(0,1)", "1000000", "--seed", "1")
        assert line == b"x,aom\n"
        assert code == 1 and err == b""


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


class TestConstructorErrors:
    """The constructors check model expressions; the parser reports what
    they reject as a usage error at the position it had reached."""

    @pytest.mark.parametrize(
        "expr",
        [
            "uniform:-1:9223372036854775808",
            "uniform:-9223372036854775809:0",
            "normal(0,-1)",
            "normal(0,1,2)",
            "uniform:3:0(0.5)",
            "multistate:0:1(0.7,0.7)",
            "rd:normal^0(0,1)",
            "rd:normal^2(0,1;0,0)",
            "normal(0,1).transform(linear(0,1))",
            "rd:normal^2(0,1;0,1).transform(permute(0,0))",
            "multistate:0:1000000(0.5,0.5)",
        ],
    )
    def test_sample_exits_1_with_one_line(self, expr, capsys):
        code, out, err = run(["sample", expr, "1"], capsys)
        assert code == 1 and out == "" and _one_error_line(err)
        assert "(at column " in err

    def test_full_int64_space_samples(self, capsys):
        lo, hi = -(2**63), 2**63 - 1
        code, out, _ = run(["sample", f"uniform:{lo}:{hi}", "5", "--seed", "0"], capsys)
        assert code == 0
        assert all(lo <= int(k) <= hi for k in out.splitlines()[1:])

    def test_bounds_beyond_int64_do_not_fit(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "k\n1\n2\n")
        code, _, err = run(["fit", "uniform:0:100000000000000000000", path], capsys)
        assert code == 1 and _one_error_line(err) and "64-bit" in err

    def test_state_limit(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "k\n0\n1\n")
        code, out, err = run(["fit", "multistate:0:1000000", path], capsys)
        assert code == 1 and out == "" and _one_error_line(err) and "1000001 states" in err

    def test_sample_count_limit(self, capsys):
        code, out, err = run(["sample", "normal(0,1)", str(cli.MAX_SAMPLE_COUNT + 1)], capsys)
        assert code == 1 and out == "" and _one_error_line(err)


class TestOverflowingMapNamesTheRow:
    """A map whose image or AoM overflows a float names the row."""

    def test_image_overflows(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x\n1\n1e300\n")
        code, out, err = run(
            ["fit", "normal.transform(linear(1e10,0))", path, "--aom-const", "1"], capsys
        )
        assert code == 2 and out == "" and _one_error_line(err)
        assert err.startswith("error: index 1: x must be finite")

    def test_aom_overflows(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x,aom\n1,1\n2,1e300\n")
        code, out, err = run(
            ["fit", "normal.transform(linear(1e10,0))", path, "--aom-col", "aom"], capsys
        )
        assert code == 2 and out == "" and _one_error_line(err)
        assert err.startswith("error: index 1: aom must be finite")


class TestSubnormalAom:
    """log of log maps the AoM 0.01 at x = 1e308 to 1.4e-313, below the
    normal floats.  No mapped AoM enters a cost, so eval scores the row as
    nl_pr does; fit maps its data, and refuses it."""

    ARGS = ["-", "--aom-const", "0.01"]

    def test_eval_gives_the_per_datum_cost(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "normal(0,1).transform(log).transform(log)", *self.ARGS, "--format", "kv"],
            capsys, "x\n1e308\n", monkeypatch,
        )
        assert code == 0 and kv(out)["nlpr.0"] == "742.8283655443686"

    def test_fit_refuses_the_row(self, capsys, monkeypatch):
        code, out, err = run(
            ["fit", "normal.transform(log).transform(log)", *self.ARGS],
            capsys, "x\n1e308\n", monkeypatch,
        )
        assert code == 2 and out == ""
        assert err == (
            "error: index 0: log shrinks the AoM at 1e+308 to 1e-310, below the normal floats\n"
        )


class TestEvalAndFitRefuseTheSameRows:
    """A map's Jacobian term refuses wherever its Jacobian does, so eval of a
    model and fit of its family refuse the same edge rows.  The one
    exception is a row whose mapped AoM leaves the normal floats: no mapped
    AoM enters a cost, so eval scores it, and fit refuses it."""

    ARGS = ["-", "--aom-const", "0.1"]

    # (family, parameters, transform, CSV text)
    @pytest.mark.parametrize(
        "family, params, transform, text",
        [
            ("normal", "(0,1)", ".transform(exp)", "x\n1000\n"),
            ("normal", "(0,1)", ".transform(exp)", "x\n-800\n"),
            ("normal", "(0,1)", ".transform(inv)", "x\n1e-200\n"),
            ("normal", "(0,1)", ".transform(inv)", "x\n0\n"),
            ("normal", "(0,1)", ".transform(log)", "x\n-1\n"),
            ("rd:normal^2", "(0,1;0,1)", ".transform(cartesian2polar)", "x1,x2\n0,0\n"),
            ("rd:normal^2", "(0,1;0,1)", ".transform(cartesian2polar)", "x1,x2\n1e-200,0\n"),
            ("rd:normal^2", "(0,1;0,1)", ".transform(polar2cartesian)", "x1,x2\n-1,1\n"),
        ],
    )
    def test_both_exit_2(self, family, params, transform, text, capsys, monkeypatch):
        for argv in (["eval", family + params + transform], ["fit", family + transform]):
            code, out, err = run([*argv, *self.ARGS], capsys, text, monkeypatch)
            assert (code, out) == (2, ""), argv
            assert _one_error_line(err) and err.startswith("error: index 0: ")

    def test_an_aom_past_the_normal_floats_is_the_exception(self, capsys, monkeypatch):
        text, model = "x\n1e308\n", "normal(0,1).transform(log)"
        code, out, _ = run(["eval", model, *self.ARGS], capsys, text, monkeypatch)
        assert code == 0 and out
        code, _, err = run(["fit", "normal.transform(log)", *self.ARGS], capsys, text, monkeypatch)
        assert code == 2 and "below the normal floats" in err


class TestAomDoors:
    """Each CSV door refuses an AoM by the dataset's own rule, as a one-line
    error that names the column, never a dataset index."""

    @pytest.mark.parametrize(
        "stdin, flags, message",
        [
            (
                "x,err\n1,0.1\n2,1e-310\n",
                ["--aom-col", "err"],
                "row 2: AoM in column 'err' must be at least 2.2250738585072014e-308",
            ),
            (
                "x\n1\n2\n",
                ["--aom-const", "1e-310"],
                "column 'x': constant AoM must be at least 2.2250738585072014e-308",
            ),
            ("x\n1\n2\n", ["--aom-const", "inf"], "column 'x': constant AoM must be finite"),
            (
                "x\n5e-324\n1e-323\n",
                [],
                "column 'x': its values are too close together to infer an AoM; "
                "give one with --aom-col or --aom-const",
            ),
        ],
        ids=["cell", "constant", "infinite-constant", "inferred"],
    )
    def test_fit_exits_2_with_one_line(self, stdin, flags, message, capsys, monkeypatch):
        code, out, err = run(["fit", "normal", "-", *flags], capsys, stdin, monkeypatch)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_vector_column_is_named(self, capsys, monkeypatch):
        code, out, err = run(
            ["fit", "rd:normal^2", "-"], capsys, "x1,x2\n1,5e-324\n2,1e-323\n", monkeypatch
        )
        assert code == 2 and out == "" and _one_error_line(err)
        assert err.startswith("error: column 'x2': its values are too close together")


class TestRowErrorsCarryTheirIndex:
    def test_a_row_that_costs_inf_is_named_by_index(self):
        model = cli._require_model(parse_model_expr("multistate:0:2(0.5,0.5,0)"))
        with pytest.raises(DomainError) as err:
            cli._real_costs(model, DataSet.discrete((0, 2, 1)), "scored")
        assert err.value.index == 1
        assert str(err.value) == "index 1: multistate:0:2 scored a row that costs inf nits"

    def test_a_failed_column_draw_is_reported_when_no_single_draw_fails(
        self, capsys, monkeypatch
    ):
        def failing(self, rng, n):
            raise DomainError("the column draw failed")

        monkeypatch.setattr(models.NormalModel, "random_col", failing)
        code, out, err = run(["sample", "normal(0,1)", "5", "--seed", "0"], capsys)
        assert (code, out, err) == (2, "", "error: the column draw failed\n")


class TestBranches:
    def test_permuted_sample_swaps_the_base_columns(self, capsys):
        code, base, _ = run(["sample", "rd:normal^2(0,1;5,1)", "3", "--seed", "0"], capsys)
        assert code == 0
        code, permuted, _ = run(
            ["sample", "rd:normal^2(0,1;5,1).transform(permute(1,0))", "3", "--seed", "0"],
            capsys,
        )
        assert code == 0
        swapped = []
        for line in base.splitlines()[1:]:
            x1, x2, a1, a2 = line.split(",")
            swapped.append(",".join([x2, x1, a2, a1]))
        assert permuted == "x1,x2,aom1,aom2\n" + "\n".join(swapped) + "\n"

    def test_image_overflow_is_outside_the_support(self, capsys, monkeypatch):
        code, out, err = run(
            ["eval", "normal(0,1).transform(exp)", "-", "--aom-const", "0.1"],
            capsys,
            stdin_text="x\n1000\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == "" and _one_error_line(err)
        assert err.startswith("error: index 0: ") and "outside the support" in err

    def test_vector_domain_error_shows_plain_floats(self, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "x1,x2\n0,0\n")
        code, out, err = run(["fit", "rd:normal^2.transform(cartesian2polar)", path], capsys)
        assert code == 2 and out == ""
        assert err == "error: index 0: (0.0, 0.0) is outside the domain of cartesian2polar\n"

    def test_polar_jacobian_overflow_names_the_row(self, tmp_path, capsys):
        # r = 1e-200 squares to 0.0, so 1/r^2 would divide by zero
        path = write_csv(tmp_path, "d.csv", "x1,x2\n1,1\n1e-200,0\n")
        code, out, err = run(["fit", "rd:normal^2.transform(cartesian2polar)", path], capsys)
        assert code == 2 and out == "" and _one_error_line(err)
        assert err.startswith("error: index 1: the Jacobian of cartesian2polar overflows")


class TestOneDimensionalProduct:
    """rd:normal^1 reads one continuous column as 1-vectors."""

    def test_sample_fit_round_trip_matches_normal(self, tmp_path, capsys):
        code, out, _ = run(["sample", "rd:normal^1(2,0.5)", "5", "--seed", "1"], capsys)
        assert code == 0 and out.splitlines()[0] == "x1,aom1"
        path = write_csv(tmp_path, "one.csv", out)
        code, out, _ = run(["fit", "rd:normal^1", path, "--aom-col", "aom1", "--format", "kv"], capsys)
        product = kv(out)
        code2, out, _ = run(["fit", "normal", path, "--aom-col", "aom1", "--format", "kv"], capsys)
        scalar = kv(out)
        assert code == code2 == 0 and product["model"] == "rd:normal^1"
        assert product["param.0.mean"] == scalar["param.mean"]
        assert product["param.0.sd"] == scalar["param.sd"]
        for key in ("msg1", "msg2"):
            assert product[key] == scalar[key]

    def test_eval_matches_normal(self, capsys, monkeypatch):
        rows = "x\n0.5\n-1.25\n"
        argv = ["-", "--aom-const", "0.1", "--format", "kv"]
        code, product, _ = run(["eval", "rd:normal^1(0,1)"] + argv, capsys, rows, monkeypatch)
        code2, scalar, _ = run(["eval", "normal(0,1)"] + argv, capsys, rows, monkeypatch)
        assert code == code2 == 0 and product == scalar


class TestTransformLimit:
    """A model expression takes at most cli.MAX_TRANSFORMS transforms, a
    bound well inside the recursion limit of every command."""

    @pytest.mark.parametrize(
        "family, params, f, csv_text",
        [
            ("normal", "(1,1)", "identity", "x\n1\n2\n3\n"),
            ("rd:normal^2", "(1,1;2,1)", "permute(1,0)", "x1,x2\n1,2\n2,3\n3,1\n"),
        ],
    )
    def test_every_command_takes_the_most_transforms(self, family, params, f, csv_text, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", csv_text)
        chain = f".transform({f})" * cli.MAX_TRANSFORMS
        for argv in (
            ["fit", family + chain, path, "--aom-const", "0.1"],
            ["eval", family + params + chain, path, "--aom-const", "0.1"],
            ["sample", family + params + chain, "5", "--seed", "1"],
        ):
            code, out, err = run(argv, capsys)
            assert code == 0 and out and err == "", argv

    @pytest.mark.parametrize("command", ["fit", "eval", "sample"])
    def test_a_longer_chain_is_a_usage_error(self, command, tmp_path, capsys):
        # A chain of 2000 would overflow the stack of every command if it were built.
        path = write_csv(tmp_path, "d.csv", "x\n1\n2\n")
        for count in (cli.MAX_TRANSFORMS + 1, 2000):
            expr = "normal" + "(1,1)" * (command != "fit") + ".transform(identity)" * count
            code, out, err = run([command, expr, "3" if command == "sample" else path], capsys)
            assert code == 1 and out == "" and _one_error_line(err)
            assert f"at most {cli.MAX_TRANSFORMS} transforms" in err


class TestDimensionLimit:
    """A product family has at most models.MAX_DIM components, and sample
    counts values (rows times the dimension) against MAX_SAMPLE_COUNT."""

    @pytest.mark.parametrize("dim", [10**6 + 1, 10**9, 10**18, 10**20])
    def test_huge_dimension_is_usage_error(self, dim, tmp_path, capsys):
        path = write_csv(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        code, out, err = run(["fit", f"rd:normal^{dim}", path], capsys)
        assert code == 1 and out == "" and _one_error_line(err)
        assert f"at most {models.MAX_DIM} components" in err

    def test_sample_counts_values(self, capsys):
        limit = cli.MAX_SAMPLE_COUNT
        code, out, err = run(["sample", "rd:normal^2(0,1;0,1)", str(limit // 2 + 1)], capsys)
        assert code == 1 and out == "" and _one_error_line(err)


class TestExpressionErrors:
    """Each malformed expression is a usage error with one line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "normal.transform()"], "expected a name"),
            (["fit", "uniform:a:3"], "expected an integer"),
            (["fit", "rd:uniform^2"], "unknown component family"),
            (["eval", "normal(0,1).transform(log(2))"], "log takes no arguments"),
            (["eval", "normal(0,1).transform(linear(1))"], "linear takes (a,b)"),
            (["fit", "uniform:0:3.transform(reverse(1))"], "reverse takes no arguments"),
            (["fit", "normal", "--aom-col", "e1", "--aom-col", "e2"], "once per data column"),
            (["fit", "normal", "--aom-col", "e1", "--aom-const", "1"], "not both"),
            (
                ["fit", "normal.transform(compose(log,exp))"],
                "unknown function 'compose' (normal needs a Cts2Cts)",
            ),
            (["fit", "normal.transform(foo(bar))"], "unknown function 'foo'"),
        ],
    )
    def test_exits_1_with_one_line(self, argv, message, capsys, monkeypatch):
        csv_text = "x,e1,e2\n1,0.1,0.1\n2,0.1,0.1\n"
        argv = argv[:2] + ["-"] + argv[2:]
        code, out, err = run(argv, capsys, csv_text, monkeypatch)
        assert code == 1 and out == "" and _one_error_line(err) and message in err

    def test_a_flag_conflict_is_refused_before_the_csv_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        argv = ["fit", "normal", missing, "--aom-col", "e1", "--aom-const", "1"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "" and _one_error_line(err) and "not both" in err
