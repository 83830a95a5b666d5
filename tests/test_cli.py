import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from punctual import cli
from punctual.cli import main, parse_theory_string
from punctual.hopf import HopfElement, element_from_obj, element_to_obj
from punctual.rational import parse_rational
from punctual.series import MultiSeries

import oracles


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


def test_each_verb_builds_only_its_own_parser_once(capsys):
    # a verb's first call builds its parser, never the full one, and later
    # calls reuse it; a failed parse, a refused input and a JSON run leave
    # nothing behind for the next call
    cli._verb_parser.cache_clear()
    cli._build_parser.cache_clear()
    assert list(VERB_JOBS) == list(cli._VERBS)
    for verb, flags in VERB_JOBS.items():
        first = run(capsys, verb, *flags)
        assert first[0] == 0 and first[1] and first[2] == "", (verb, first)
        assert run(capsys, verb, *flags) == first
    info = cli._verb_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (11, 11, 11)
    assert cli._build_parser.cache_info().currsize == 0

    verb = ("to-p", "--element", Q22)
    first = run(capsys, *verb)
    with pytest.raises(SystemExit) as exc:
        main(["to-p", "--element", Q22, "--format", "xml"])
    assert exc.value.code == 2
    assert "punctual to-p: error: argument --format: invalid choice: 'xml'" \
        in capsys.readouterr().err
    status, out, err = run(capsys, "table", "--theory", "builtin:ck,k=2",
                           "--d", "1", "--max-n", "0", "--max-m", "3")
    assert (status, out) == (2, "") and err.startswith("error: ")
    assert run(capsys, *verb) == first
    status, out, err = run(capsys, *verb, "--format", "json")
    assert json.loads(out)["basis"] == "p"
    assert run(capsys, *verb) == first
    assert cli._verb_parser.cache_info().misses == 11
    assert cli._build_parser.cache_info().currsize == 0

    # a stray argument goes to the full parser, for its top-level usage
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: punctual [-h]")
    assert err.endswith("\npunctual: error: unrecognized arguments: --bogus\n")
    assert cli._build_parser.cache_info().currsize == 1
    assert run(capsys, *verb) == first


def _outcome(capsys, call):
    """Exit status, stdout and stderr of call(), which may raise
    SystemExit."""
    try:
        status = call()
    except SystemExit as exc:
        status = exc.code
    out = capsys.readouterr()
    return status, out.out, out.err


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
