import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from punctual import cli
from punctual.cli import main, parse_theory_string
from punctual.hopf import HopfElement, element_from_obj, element_to_obj
from punctual.rational import parse_rational
from punctual.series import MultiSeries

import oracles
from test_cli_golden import GOLDEN, _run


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


Q22 = json.dumps(element_to_obj(HopfElement.generator(1, 2, (2,))))


def test_parse_theory_string():
    assert parse_theory_string("builtin:ck,k=2") == {"builtin": "ck", "k": 2}
    assert parse_theory_string("builtin:dt") == {"builtin": "dt"}
    assert parse_theory_string("mult_class:1,1,1/2") == \
        {"mult_class": ["1", "1", "1/2"]}
    assert parse_theory_string('{"builtin": "ek", "k": 1}') == \
        {"builtin": "ek", "k": 1}
    with pytest.raises(ValueError):
        parse_theory_string("builtin:")
    with pytest.raises(ValueError):
        parse_theory_string("wat:1")
    # int() reads the option, underscores included
    assert parse_theory_string("builtin:ck,k=1_0") == {"builtin": "ck",
                                                       "k": 10}


@pytest.mark.parametrize("theory, message", (
    ("builtin:ck,k=x",
     "builtin theory 'ck': option 'k' must be an integer, got 'x'"),
    ("builtin:ck,k= x ",
     "builtin theory 'ck': option 'k' must be an integer, got 'x'"),
    ("builtin:coarse-ck,k=2.5",
     "builtin theory 'coarse-ck': option 'k' must be an integer, got '2.5'"),
    # an option the theory does not take is named before its value is read
    ("builtin:dt,k=x", "builtin theory 'dt' does not take option 'k'"),
    ("builtin:ck,j=x", "builtin theory 'ck' does not take option 'j'"),
), ids=("ck-k-x", "ck-k-spaced-x", "coarse-ck-k-2.5", "dt-k-x", "ck-j-x"))
def test_builtin_option_refusals(capsys, theory, message):
    status, out, err = run(capsys, "table", "--theory", theory, "--d", "1",
                           "--max-n", "1", "--max-m", "1")
    assert (status, out, err) == (2, "", "error: %s\n" % message)


def test_verify_curve_vertical_text(capsys):
    status, out, err = run(capsys, "verify", "--name", "curve-vertical",
                           "--theory", "builtin:coarse-ek,k=1",
                           "--chi", "3", "--order", "5")
    assert status == 0
    assert out == ("identity: curve-vertical\n"
                   "passed: true\n"
                   "lhs: 1/1 + 3/1*T + 6/1*T^2 + 10/1*T^3 + 15/1*T^4 + 21/1*T^5\n"
                   "rhs: 1/1 + 3/1*T + 6/1*T^2 + 10/1*T^3 + 15/1*T^4 + 21/1*T^5\n"
                   "residual: 0\n")


def test_verify_failing_exits_1(capsys):
    status, out, err = run(capsys, "verify", "--name", "curve-vertical",
                           "--theory", "builtin:ck,k=2",
                           "--chi", "2", "--order", "4")
    assert status == 1
    assert "passed: false" in out
    assert "residual" in out


def test_verify_missing_flag(capsys):
    status, out, err = run(capsys, "verify", "--name", "curve-vertical",
                           "--order", "4")
    assert status == 2
    assert "--theory" in err


def test_vertical_dt(capsys):
    status, out, err = run(capsys, "vertical", "--d", "3",
                           "--theory", "builtin:dt",
                           "--chern", "c3=4,c1c2=24", "--order", "2")
    assert status == 0
    assert out == "1/1 + 20/1*T + 150/1*T^2\n"


def test_vertical_dt_rational_chern_numbers(capsys):
    # both paths, with the lcm of the Chern denominators D = 12 > 1
    status, out, err = run(capsys, "vertical", "--d", "3",
                           "--theory", "builtin:dt", "--chern",
                           "c3=1/2,c1c2=7/3,c1^3=5/4", "--order", "10",
                           "--format", "json")
    assert (status, err) == (0, "")
    coeffs = {t["exponents"][0]: parse_rational(t["coeff"])
              for t in json.loads(out)["terms"]}
    expected = oracles.macmahon_neg_power(F(1, 2) - F(7, 3), 10)
    assert [coeffs.get(n, 0) for n in range(11)] == expected


def test_vertical_json_and_determinism(capsys):
    args = ("vertical", "--d", "1", "--theory", "builtin:coarse-ek,k=1",
            "--chern", "m1=2", "--order", "3", "--format", "json")
    status, out1, _ = run(capsys, *args)
    assert status == 0
    obj = json.loads(out1)
    assert obj["variables"] == ["T"]
    assert {tuple(t["exponents"]): t["coeff"] for t in obj["terms"]} == \
        {(0,): "1/1", (1,): "2/1", (2,): "3/1", (3,): "4/1"}
    status, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_table_text(capsys):
    status, out, err = run(capsys, "table", "--theory", "builtin:ck,k=2",
                           "--d", "1", "--max-n", "2", "--max-m", "2")
    assert status == 0
    assert out.splitlines() == [
        "q_{1,(0)}: 1/1",
        "q_{1,(1)}: 2/1",
        "q_{1,(2)}: 1/1",
        "q_{2,(0)}: 1/2",
        "q_{2,(1)}: 2/1",
        "q_{2,(2)}: 3/1",
    ]


def test_table_ck_large_k(capsys):
    # (1+x)^k is read only to x^max_m, so a huge k costs nothing
    status, out, err = run(capsys, "table", "--theory",
                           "builtin:ck,k=1000000", "--d", "1",
                           "--max-n", "2", "--max-m", "2")
    assert (status, err) == (0, "")
    assert "q_{1,(2)}: 499999500000/1" in out.splitlines()


def test_table_nonsep(capsys):
    status, out, err = run(capsys, "table", "--theory", "builtin:ck,k=1",
                           "--d", "2", "--max-n", "1", "--max-m", "1",
                           "--variant", "nonsep")
    assert status == 0
    assert out.splitlines() == [
        "q_{(0,0)}: 1/1",
        "q_{(1,0)}: 1/1",
        "q_{(1,1)}: 1/1",
    ]


def test_eval(capsys):
    status, out, err = run(capsys, "eval", "--theory", "builtin:coarse-ek,k=1",
                           "--element", Q22)
    assert status == 0
    assert out == "1/1\n"


def test_eval_d_mismatch(capsys):
    status, out, err = run(capsys, "eval", "--theory", "builtin:ck,k=1",
                           "--d", "2", "--element", Q22)
    assert status == 2
    assert "does not match" in err


def test_to_p_to_q_roundtrip(capsys):
    status, out, err = run(capsys, "to-p", "--element", Q22,
                           "--format", "json")
    assert status == 0
    p_obj = json.loads(out)
    assert p_obj["basis"] == "p"
    status, out, err = run(capsys, "to-q", "--element", json.dumps(p_obj),
                           "--format", "json")
    assert status == 0
    assert element_from_obj(json.loads(out)) == \
        HopfElement.generator(1, 2, (2,))


def test_antipode(capsys):
    status, out, err = run(capsys, "antipode", "--element", Q22)
    assert status == 0
    assert out == "2/1*q_{1,(0)}*q_{1,(2)} + 1/1*q_{1,(1)}^2 + -1/1*q_{2,(2)}\n"


def test_coproduct(capsys):
    status, out, err = run(capsys, "coproduct", "--element", Q22)
    assert status == 0
    assert out.count("(x)") == 5
    # p basis input is rejected
    p_obj = element_to_obj(HopfElement.generator(1, 2, (2,), basis="p"))
    status, out, err = run(capsys, "coproduct", "--element",
                           json.dumps(p_obj))
    assert status == 2
    assert "q basis" in err
    # nonsep generators are primitive: to-p only relabels, and coproduct
    # takes its output
    x = json.dumps(element_to_obj(
        HopfElement.nonsep_generator(2, (1, 1)) *
        HopfElement.nonsep_generator(2, (2,))))
    status, p_out, err = run(capsys, "to-p", "--element", x, "--format",
                             "json")
    assert (status, json.loads(p_out)["basis"]) == (0, "p")
    outs = {}
    for basis, element in (("q", x), ("p", p_out)):
        status, out, err = run(capsys, "coproduct", "--element", element,
                               "--format", "json")
        assert (status, err) == (0, "")
        outs[basis] = json.loads(out)
        assert outs[basis]["basis"] == basis
        assert len(outs[basis]["terms"]) == 4
    assert outs["q"]["terms"] == outs["p"]["terms"]


def test_curve(capsys):
    status, out, err = run(capsys, "curve", "--theory", "builtin:ek,k=1",
                           "--chi", "1", "--order", "4")
    assert status == 0
    assert out == "1/1 + 1/1*T + 1/2*T^2 + 1/6*T^3 + 1/24*T^4\n"


def test_gamma_integral(capsys):
    status, out, err = run(capsys, "gamma-integral", "--d", "1",
                           "--theory", "builtin:coarse-ek,k=1",
                           "--chern", "m1=1", "--order", "3")
    assert status == 0
    assert out.splitlines()[0] == "1/1*T + 1/2*T^2 + 1/3*T^3"
    assert "no poles" in out


def test_gamma_pole_exit_2(capsys):
    spec = json.dumps({"table": [{"n": 1, "m": [0], "value": "1/1"}]})
    status, out, err = run(capsys, "gamma-integral", "--d", "1",
                           "--theory", spec, "--chern", "m1=1",
                           "--order", "3")
    assert status == 2
    assert "uncancelled poles" in err


def test_axioms(capsys):
    status, out, err = run(capsys, "axioms", "--d", "1",
                           "--max-cycle-degree", "3", "--count", "5")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "passed: true"
    assert "antipode: 10" in lines    # 5 each for sep and nonsep


def test_bad_inputs(capsys):
    status, out, err = run(capsys, "curve", "--theory", "builtin:ek,k=1",
                           "--chi", "1/0", "--order", "3")
    assert status == 2
    status, out, err = run(capsys, "eval", "--theory", "builtin:ck,k=1",
                           "--element", "{not json")
    assert status == 2
    for max_n in ("-1", "0"):
        status, out, err = run(capsys, "table", "--theory", "builtin:ck,k=2",
                               "--d", "1", "--max-n", max_n, "--max-m", "3")
        assert (status, out) == (2, "")
        assert "--max-n must be >= 1" in err
    status, out, err = run(capsys, "table", "--theory", "builtin:ek,k=1",
                           "--d", "1", "--max-n", "2", "--max-m", "-1")
    assert (status, out) == (2, "")
    assert "--max-m must be >= 0" in err
    for argv, message in (
            (("vertical", "--theory", "builtin:ek,k=1", "--d", "1",
              "--chern", "m1=2", "--order", "-1"), "--order must be >= 0"),
            (("vertical", "--theory", "builtin:ck,k=1", "--d", "1",
              "--chern", "m1=2", "--order", "-1"), "--order must be >= 0"),
            (("vertical", "--theory", "builtin:ck,k=1", "--d", "0",
              "--chern", "", "--order", "3"), "--d must be >= 1, got 0"),
            (("gamma-integral", "--theory", "builtin:ck,k=1", "--d", "1",
              "--chern", "m1=2", "--order", "-1"), "--order must be >= 0"),
            (("gamma-integral", "--theory", "builtin:ck,k=1", "--d", "0",
              "--chern", "", "--order", "3"), "--d must be >= 1, got 0"),
            (("curve", "--theory", "builtin:ck,k=1", "--chi", "1",
              "--order", "-1"), "--order must be >= 0, got -1"),
            (("verify", "--name", "dt-degree-zero", "--chern", "c3=1",
              "--order", "-1"), "--order must be >= 0, got -1"),
            (("verify", "--name", "inertial-power", "--d", "0", "--class",
              "1,1", "--chern", "", "--order", "2"), "--d must be >= 1"),
            (("verify", "--name", "gamma-vertical", "--d", "0", "--theory",
              "builtin:ck,k=1", "--chern", "", "--order", "2"),
             "--d must be >= 1, got 0"),
            (("verify", "--name", "ck-bivariate", "--k", "1", "--m-max",
              "-1", "--order", "2"), "--m-max must be >= 0, got -1"),
            (("axioms", "--d", "-1", "--count", "1"),
             "--d must be >= 0, got -1")):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert message in err
    for flag, value in (("--count", "-1"), ("--count", "0"),
                        ("--max-cycle-degree", "-3")):
        status, out, err = run(capsys, "axioms", "--d", "1", flag, value)
        assert (status, out) == (2, "")
        assert flag in err
    for row, message in (
            ({"n": 1, "m": [1]}, "table row 1 has no 'value' key"),
            ({"n": 1, "m": [1, 0], "value": "3"}, "length 2, expected 1"),
            ({"n": 1, "m": [-1], "value": "3"}, "negative"),
            ({"n": 0, "m": [1], "value": "3"}, "multiplicity n must be >= 1"),
            ({"n": 1, "m": 5, "value": "3"},
             "table row 1: 'm' must be a list of integers, got 5"),
            ({"n": "x", "m": [1], "value": "3"},
             "table row 1: 'n' must be an integer, got 'x'"),
            ({"n": 1, "m": [1], "value": 0.1},
             "table row 1: 'value': rational 0.1 is not a num/den string")):
        status, out, err = run(capsys, "table", "--theory",
                               json.dumps({"table": [row]}), "--d", "1",
                               "--max-n", "2", "--max-m", "2")
        assert (status, out) == (2, "")
        assert message in err
    for theory, message in (
            ('{"mult_class": [1, 0.5]}',
             "mult_class coefficient 2: rational 0.5 is not a num/den string"),
            ("builtin:ck,k=1.5",
             "builtin theory 'ck': option 'k' must be an integer, got '1.5'"),
            ('{"builtin": "ck", "k": 1.5}',
             "builtin theory 'ck': option 'k' must be an integer, got 1.5"),
            ("builtin:ck,j=2",
             "builtin theory 'ck' does not take option 'j'"),
            ('{"builtin": "ck", "kk": 3}',
             "builtin theory 'ck' does not take option 'kk'"),
            ('{"table": [{"n": 1, "m": [1], "value": "2"}], "builtin": "ck"}',
             "builtin theory 'ck' does not take option 'table'"),
            ('{"mult_class": ["1", "1"], "table": []}',
             "mult_class theory does not take option 'table'"),
            ("builtin:ek,k=-1", "k must be >= 0"),
            ("builtin:coarse-ek,k=-2", "k must be >= 0"),
            ('{"mult_class": "11"}',
             "mult_class theory: 'mult_class' must be a list, got '11'"),
            ('{"mult_class": {"1": 2}}',
             "mult_class theory: 'mult_class' must be a list, got {'1': 2}"),
            ('{"mult_class": 5}',
             "mult_class theory: 'mult_class' must be a list, got 5"),
            ('{"table": ""}', "table theory: 'table' must be a list, got ''")):
        status, out, err = run(capsys, "table", "--theory", theory, "--d", "1",
                               "--max-n", "1", "--max-m", "1")
        assert (status, out) == (2, "")
        assert message in err
    # only ck and mult_class have a nonsep variant; every verb says so
    nonsep = json.dumps({"d": 1, "variant": "nonsep", "basis": "q", "terms": [
        {"monomial": [[1, [1]]], "coeff": "1"}]})
    for theory, message in (
            ("builtin:ek,k=1", "builtin theory 'ek' has no nonsep variant"),
            ("builtin:coarse-ck", "builtin theory 'coarse-ck' has no nonsep"),
            ("builtin:coarse-ek", "builtin theory 'coarse-ek' has no nonsep"),
            ("builtin:dt", "builtin theory 'dt' has no nonsep variant"),
            ('{"table": []}', "table theory has no nonsep variant"),
            ("builtin:nope", "unknown builtin theory 'nope'")):
        for argv in (("table", "--theory", theory, "--d", "1", "--max-n", "1",
                      "--max-m", "1", "--variant", "nonsep"),
                     ("eval", "--theory", theory, "--element", nonsep),
                     ("vertical", "--theory", theory, "--d", "1", "--chern",
                      "m1=2", "--order", "2", "--variant", "nonsep")):
            status, out, err = run(capsys, *argv)
            assert (status, out, err) == (2, "", "error: %s%s\n" % (
                message, " variant" * message.endswith("nonsep"))), argv
    status, out, err = run(capsys, "table", "--theory", '{"builtin": "dt", '
                           '"k": 3}', "--d", "3", "--max-n", "1", "--max-m",
                           "1")
    assert (status, out) == (2, "")
    assert "builtin theory 'dt' does not take option 'k'" in err
    status, out, err = run(capsys, "table", "--theory", "builtin:ck,k=1",
                           "--d", "-1", "--max-n", "1", "--max-m", "1")
    assert (status, out) == (2, "")
    assert "--d must be >= 0, got -1" in err
    good = json.loads(Q22)
    no_variant = {k: v for k, v in good.items() if k != "variant"}
    no_coeff = dict(good, terms=[{"monomial": [[2, [2]]]}])
    flat_monomial = dict(good, terms=[{"monomial": [2, [2]], "coeff": "1"}])
    number_coeff = dict(good, terms=[{"monomial": [[2, [2]]], "coeff": 1}])
    for element, message in (
            (json.dumps(no_variant), "element has no 'variant' key"),
            (json.dumps(no_coeff), "element term 1 has no 'coeff' key"),
            ("[1,2]", "element must be a JSON object, got list"),
            (json.dumps(flat_monomial), "monomial [2, [2]] is not a list"),
            (json.dumps(number_coeff), "rational 1 is not a num/den string"),
            (json.dumps(dict(good, d=1.5)),
             "element: 'd' must be an integer, got 1.5"),
            (json.dumps(dict(good, d=True)),
             "element: 'd' must be an integer, got True"),
            (json.dumps(dict(good, terms={})),
             "element: 'terms' must be a list, got {}"),
            (json.dumps(dict(good, terms=[{"monomial": [[1.9, [1]]],
                                           "coeff": "1"}])),
             "element term 1: monomial 'n' must be an integer, got 1.9"),
            (json.dumps(dict(good, terms=[{"monomial": [[True, [2.7]]],
                                           "coeff": "1"}])),
             "element term 1: monomial 'n' must be an integer, got True"),
            (json.dumps(dict(good, terms=[{"monomial": [[1, [2.7]]],
                                           "coeff": "1"}])),
             "element term 1: monomial 'm' must be a list of integers, "
             "got [2.7]")):
        status, out, err = run(capsys, "eval", "--theory", "builtin:ck,k=1",
                               "--element", element)
        assert (status, out) == (2, "")
        assert message in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_vertical_paths_disagree_exits_1(capsys, monkeypatch):
    import punctual.genfun as genfun
    exact = genfun.paired_primitive_series

    def off_by_t(e, chern, n_max):
        s = exact(e, chern, n_max)
        return s + MultiSeries.var(s.variables, s.caps, "T")
    monkeypatch.setattr(genfun, "paired_primitive_series", off_by_t)
    argv = ("vertical", "--theory", "builtin:ck,k=1", "--d", "1",
            "--chern", "m1=2", "--order", "3")
    status, out, err = run(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.startswith("error: vertical series paths disagree for c^1")
    assert len(err.splitlines()) == 1
    status, out, err = run(capsys, *argv, "--path", "pair")
    assert (status, out, err) == (0, "1/1 + 2/1*T + 2/1*T^2 + 4/3*T^3\n", "")


def test_vertical_dt_past_the_old_pair_route_limit(capsys):
    # the pair route works in O(n^2) integers, so order 60 runs on both
    # routes and agrees with the exp route and M(-T)^-20
    argv = ("vertical", "--theory", "builtin:dt", "--d", "3", "--chern",
            "c3=4,c1c2=24,c1^3=64", "--order", "60")
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    assert run(capsys, *argv, "--path", "exp") == (0, out, "")
    want = MultiSeries(("T",), (60,), dict(
        ((n,), c) for n, c in enumerate(oracles.macmahon_neg_power(-20, 60))))
    assert out == want.pretty() + "\n"


NONSEP_TERM = '{"d": %d, "variant": "nonsep", "basis": "q", "terms": ' \
    '[{"monomial": [[%d, %s]], "coeff": "1"}]}'


@pytest.mark.parametrize("argv, message", (
    (("curve", "--theory", "builtin:ek,k=1", "--chi", "1.5", "--order", "3"),
     "malformed rational '1.5', expected num/den"),
    (("vertical", "--theory", "builtin:ek,k=1", "--d", "1", "--chern", "c=3",
      "--order", "3"), "malformed Chern key 'c'"),
    (("eval", "--theory", "builtin:ck,k=1", "--element",
      NONSEP_TERM % (1, 2, "[1]")),
     "nonsep factors must carry multiplicity 1"),
    (("eval", "--theory", "builtin:ck,k=1", "--element",
      NONSEP_TERM % (2, 1, "[0, 1]")), "bad nonsep factor (0, 1) for d=2"),
), ids=("chi", "chern-key", "nonsep-multiplicity", "nonsep-unsorted"))
def test_refusals_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    status, out, err = run(capsys, "curve", "--theory", "builtin:ek,k=1",
                           "--chi", "0", "--order", "3",
                           "--output", str(target))
    assert status == 0
    assert out == ""
    assert target.read_text() == "1/1\n"


@pytest.mark.parametrize("argv, target", [
    (("axioms", "--d", "1", "--count", "1"), "missing/x"),
    (("table", "--theory", "builtin:ck,k=1", "--d", "1", "--max-n", "1",
      "--max-m", "1"), "."),
], ids=["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, target):
    # a missing parent directory, and a directory in place of a file
    status, out, err = run(capsys, *argv, "--output", str(tmp_path / target))
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("method", ["write", "flush"])
def test_unwritable_stdout_exits_2(capsys, monkeypatch, method):
    # a stdout on a full device, failing on write or on flush
    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")
    stdout = io.StringIO()
    monkeypatch.setattr(stdout, method, full)
    monkeypatch.setattr("sys.stdout", stdout)
    status = main(["table", "--theory", "builtin:ck,k=1", "--d", "1",
                   "--max-n", "1", "--max-m", "1"])
    err = capsys.readouterr().err
    assert (status, err) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("fmt, builders", [
    ("text", ("cli.element_to_obj", "cli.tensor_to_obj",
              "hopf._monomial_to_obj")),
    ("json", ("cli.element_pretty", "cli.tensor_pretty",
              "hopf._factor_pretty")),
], ids=["text", "json"])
def test_only_the_requested_format_is_built(capsys, monkeypatch, fmt,
                                            builders):
    # the builders of the other format, and the helper they share, raise
    jobs = [(verb, "--element", Q22, "--format", fmt)
            for verb in ("to-p", "coproduct")]
    expected = [run(capsys, *argv) for argv in jobs]
    assert [status for status, _, _ in expected] == [0, 0]

    def refuse(*args):
        raise AssertionError("built the format --format did not ask for")
    for name in builders:
        monkeypatch.setattr("punctual." + name, refuse)
    assert [run(capsys, *argv) for argv in jobs] == expected


# one passing job per verb, small enough to run twice
VERB_JOBS = {
    "table": ("--theory", "builtin:ck,k=2", "--d", "1", "--max-n", "1",
              "--max-m", "1"),
    "eval": ("--theory", "builtin:ck,k=1", "--element", Q22),
    "to-p": ("--element", Q22),
    "to-q": ("--element", Q22),
    "antipode": ("--element", Q22),
    "coproduct": ("--element", Q22),
    "vertical": ("--theory", "builtin:ck,k=1", "--d", "1", "--chern", "m1=2",
                 "--order", "2"),
    "curve": ("--theory", "builtin:ck,k=1", "--chi", "1", "--order", "2"),
    "gamma-integral": ("--theory", "builtin:ck,k=1", "--d", "1", "--chern",
                       "m1=2", "--order", "2"),
    "verify": ("--name", "ck-bivariate", "--k", "1", "--order", "2"),
    "axioms": ("--d", "1", "--count", "1", "--max-cycle-degree", "1"),
}


def test_well_formed_jobs_never_import_argparse(capsys):
    # in process, each verb's job runs without the full parser, and runs
    # alike again after a usage error, a refused input and a JSON run; in a
    # fresh interpreter, one job of each verb leaves argparse and the
    # gettext and locale modules it pulls in unimported
    assert list(VERB_JOBS) == list(cli._VERBS)
    cli._build_parser.cache_clear()
    first = {verb: run(capsys, verb, *flags)
             for verb, flags in VERB_JOBS.items()}
    for verb, (status, out, err) in first.items():
        assert status == 0 and out and err == "", verb
    assert cli._build_parser.cache_info().currsize == 0
    assert _outcome(capsys, lambda: main(["to-p", "--element", Q22,
                                          "--format", "xml"]))[0] == 2
    assert run(capsys, "table", "--theory", "builtin:ck,k=2", "--d", "1",
               "--max-n", "0", "--max-m", "3")[0] == 2
    assert run(capsys, "to-p", "--element", Q22, "--format", "json")[0] == 0
    for verb, flags in VERB_JOBS.items():
        assert run(capsys, verb, *flags) == first[verb]

    script = (
        "import contextlib, io, json, sys\n"
        "from punctual.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([status, [m for m in ('argparse', 'gettext', "
        "'locale') if m in sys.modules]]))\n")
    jobs = [[verb, *flags] for verb, flags in VERB_JOBS.items()]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(jobs)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[0] * len(jobs), []]


def test_text_jobs_never_import_json():
    # in a fresh interpreter, neither importing the CLI nor a job that
    # reads and writes no JSON imports json
    script = ("import sys\n"
              "import punctual.cli\n"
              "imported = 'json' in sys.modules\n"
              "punctual.cli.main(sys.argv[1:])\n"
              "print(imported, 'json' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["table", *VERB_JOBS["table"]]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False False"


@pytest.mark.parametrize("pick", [
    lambda argv: argv == ["--help"],
    lambda argv: argv == [],
    lambda argv: "--ord" in argv,
    lambda argv: argv[-2:] == ["--format", "xml"],
    lambda argv: "--bogus" in argv,
], ids=["help", "empty", "abbreviated", "bad-choice", "stray-flag"])
def test_help_and_usage_errors_build_the_full_parser_once(pick):
    entry, = [e for e in json.loads(GOLDEN.read_text()) if pick(e["argv"])]
    cli._build_parser.cache_clear()
    assert _run(entry["argv"]) == entry
    info = cli._build_parser.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def _outcome(capsys, call):
    """Exit status, stdout and stderr of call(), which may raise
    SystemExit."""
    try:
        status = call()
    except SystemExit as exc:
        status = exc.code
    out = capsys.readouterr()
    return status, out.out, out.err


# -- the flag table against argparse ----------------------------------------

def _parsed(parse, argv):
    """vars of parse(argv), or the exit status, stdout and stderr with which
    parse refuses it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _agree(argv):
    """_parse reads argv as the full argparse parser does, or refuses it with
    the same status and output; True when it reads it."""
    got = _parsed(cli._parse, argv)
    assert got == _parsed(cli._build_parser().parse_args, argv), argv
    return isinstance(got, dict)


def test_parse_agrees_with_argparse_on_the_golden_argv():
    accepted = [_agree(entry["argv"])
                for entry in json.loads(GOLDEN.read_text())]
    assert len(accepted) == 643 and accepted.count(True) >= 600


# values argparse reads apart from a plain token, or that a type refuses
ODD_VALUES = ("-", "--", "-1", "-1/2", "", " 3", "1_0", "0x1", "xml")
SHARED_FLAGS = (("--format", dict(choices=("text", "json"))), ("--output", {}))


def _good_values(kw):
    if "choices" in kw:
        return tuple(kw["choices"])
    if kw.get("type") is int:
        return ("0", "2", "12")
    return ("builtin:ck,k=1", "m1=2", "a=b")


@st.composite
def argvs(draw):
    """A verb, then flags drawn from its table (each required one most of
    the time, any one maybe repeated, a few abbreviated), each as --flag
    value or --flag=value.  Half the draws also take odd values, unknown
    flags, bare flags or values, and another head for the verb."""
    odd = draw(st.booleans())
    verb = draw(st.sampled_from(list(cli._VERBS)))
    flags = dict(SHARED_FLAGS + cli._VERBS[verb][2])
    pairs = [(flag, draw(st.sampled_from(_good_values(kw))))
             for flag, kw in flags.items()
             if kw.get("required") and draw(st.integers(0, 9))]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(list(flags) + ["--bogus", "-h"] * odd))
        value = draw(st.sampled_from(
            _good_values(flags.get(flag, {})) + ODD_VALUES * odd))
        if not draw(st.integers(0, 5)):
            flag = flag[:draw(st.integers(3, max(len(flag) - 1, 3)))]
        pairs.append((flag, value))
    head = draw(st.sampled_from(
        [verb] + [verb, verb, "no-such-verb", "-h", None] * odd))
    argv = [] if head is None else [head]
    for flag, value in draw(st.permutations(pairs)):
        form = draw(st.sampled_from(("pair", "eq") + ("flag", "value") * odd))
        argv += {"pair": [flag, value], "eq": [flag + "=" + value],
                 "flag": [flag], "value": [value]}[form]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_parse_agrees_with_argparse_on_drawn_argv(argv):
    _agree(argv)


@pytest.mark.parametrize("argv", [
    ("to-p", "--element=--"), ("to-p", "--element", "--"),
    ("to-p", "--element", "-"), ("to-p", "--element=-"),
    ("to-p", "--element=", "--format=json"),
    ("curve", "--theory", "x", "--chi", "-1/2", "--order", "3"),
    ("curve", "--theory", "x", "--chi=-1/2", "--order", "3"),
    ("table", "--theory", "x", "--d", "-1", "--max-n", "1", "--max-m", "1"),
    ("table", "--theory", "x", "--d", " 3", "--max-n", "1_0",
     "--max-m", "0x1"),
    ("axioms", "--seed", "1", "--seed", "2", "--variant=sep"),
    ("verify", "--name", "ck-bivariate", "--order", "2", "--class", "1,2"),
    ("table", "--theory", "x", "--d", "1", "--max", "1", "--max-m", "1"),
])
def test_parse_agrees_with_argparse(argv):
    _agree(argv)


@pytest.mark.parametrize("argv", [
    ("to-p", "--element", Q22),
    ("table", "--theory", "builtin:ck,k=1", "--d", "1", "--max-n", "0",
     "--max-m", "1"),
    ("table", "--theory", "builtin:ck,k=1", "--d", "1"),
    ("to-p", "--element", Q22, "--bogus"),
    ("--help",),
    (),
], ids=["verb", "refused", "missing-flag", "stray-flag", "help", "empty"])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(capsys, lambda: main(list(argv)))
    monkeypatch.setattr(sys, "argv", ["punctual", *argv])
    assert _outcome(capsys, main) == expected


@pytest.mark.parametrize("argv", [("to-p", "--element", Q22), ("--help",)],
                         ids=["to-p", "help"])
def test_python_m_punctual_cli(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = _outcome(capsys, lambda: main(list(argv)))
    assert (status, err) == (0, "") and out
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "punctual.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_axioms_failure_output(capsys, monkeypatch):
    detail = "antipode: S(x) * x != counit for q_{1,(1)}"

    def fail(rng, **kw):
        raise AssertionError(detail)
    monkeypatch.setattr("punctual.cli.run_axiom_suite", fail)
    assert run(capsys, "axioms", "--d", "1") == \
        (1, "passed: false\n" + detail + "\n", "")
    status, out, err = run(capsys, "axioms", "--d", "1", "--format", "json")
    assert (status, err) == (1, "")
    assert out == json.dumps({"passed": False, "detail": detail},
                             indent=2) + "\n"


def test_element_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "elt.json"
    path.write_text(Q22)
    status, out, err = run(capsys, "eval", "--theory",
                           "builtin:coarse-ek,k=1", "--element",
                           "@" + str(path))
    assert status == 0
    assert out == "1/1\n"

    monkeypatch.setattr("sys.stdin", io.StringIO(Q22))
    status, out, err = run(capsys, "eval", "--theory",
                           "builtin:coarse-ek,k=1", "--element", "-")
    assert status == 0
    assert out == "1/1\n"


def test_verify_all_names(capsys):
    cases = [
        ("verify", "--name", "inertial-power", "--d", "2", "--class", "1,1",
         "--chern", "m2=1,m11=2", "--order", "4"),
        ("verify", "--name", "dt-degree-zero", "--chern", "c3=4,c1c2=24",
         "--order", "4"),
        ("verify", "--name", "ck-bivariate", "--k", "2", "--order", "4"),
        ("verify", "--name", "gamma-vertical", "--d", "1", "--theory",
         "builtin:ck,k=2", "--chern", "m1=1", "--order", "4"),
    ]
    for argv in cases:
        status, out, err = run(capsys, *argv)
        assert status == 0, (argv, err)
        assert "passed: true" in out
