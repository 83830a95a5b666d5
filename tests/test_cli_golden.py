"""Byte-exact command-line outputs.

cli_golden.json holds, for each invocation of a fixed corpus, its argv, the
sha256 digests of what it wrote to stdout and to stderr, and its exit
status.  The corpus covers every verb, in text and JSON, for sep and nonsep
theories and elements, and the error paths: bad flags and malformed JSON, a
context mismatch between a sep theory and a nonsep request, uncancelled
poles, a failing identity, and argparse's own output: top-level and
per-verb help, usage errors for a missing, malformed or unknown flag.  Each
invocation runs in-process through ``punctual.cli.main``, with
``COLUMNS=80`` so that help and usage wrap the same on every terminal; an
argparse exit records its ``SystemExit`` code as the status.

The file is written by running this module as a script from the repository
root::

    PYTHONPATH=src python tests/test_cli_golden.py

which also prints, by argv, each invocation that the file it overwrites
lacks (``added:``), holds with another entry (``changed:``) or holds but
the corpus no longer runs (``removed:``).  Regenerate it only when an
output is meant to change, and say which invocations changed and why in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path
from unittest import mock

from punctual.axioms import random_element
from punctual.cli import main
from punctual.hopf import element_to_obj

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

CHERN = {1: "m1=2", 2: "c2=3,c1^2=9", 3: "c3=4,c1c2=24,c1^3=64"}


def _theories(d):
    """Theory strings that build a sep theory in dimension d."""
    table = json.dumps({"table": [
        {"n": 1, "m": [1] * d, "value": "2"},
        {"n": 2, "m": [2] + [1] * (d - 1), "value": "-1/3"},
        {"n": 2, "m": [0] * d, "value": "5/2"}]})
    out = ["builtin:ck,k=%d" % k for k in range(4)]
    out += ["builtin:ek,k=%d" % k for k in range(3)]
    out += ["mult_class:1,2,1/3", "mult_class:1,-1", table]
    if d == 1:
        out += ["builtin:coarse-ck,k=%d" % k for k in range(3)]
        out += ["builtin:coarse-ek,k=%d" % k for k in range(3)]
    if d == 3:
        out.append("builtin:dt")
    return out


def _elements():
    """Small sep elements in the q and p bases and nonsep elements, drawn
    from one seeded stream."""
    rng = random.Random(20261018)
    out = []
    for d in (1, 2, 3):
        for _ in range(2):
            x = random_element(rng, d, "sep", 4, max_m=2)
            out += [x, x.to_p()]
        out += [random_element(rng, d, "nonsep", 3, max_m=2)
                for _ in range(2)]
    return out


def _corpus():
    runs = []

    def add(*argv, json_too=True):
        runs.append(list(argv))
        if json_too:
            runs.append(list(argv) + ["--format", "json"])

    # table: every sep theory at caps (3, 3), the first two also at (1, 0);
    # nonsep classes
    for d in (0, 1, 2, 3):
        theories = (["builtin:ck,k=1", "builtin:ek,k=0"] if d == 0
                    else _theories(d))
        for i, theory in enumerate(theories):
            for max_n, max_m in ((1, 0), (3, 3)) if i < 2 else ((3, 3),):
                add("table", "--theory", theory, "--d", str(d),
                    "--max-n", str(max_n), "--max-m", str(max_m),
                    json_too=max_n == 3)
    for d in (1, 2, 3):
        for theory in ("builtin:ck,k=0", "builtin:ck,k=1", "builtin:ck,k=2",
                       "mult_class:1,2,1/3", "builtin:ek,k=1"):
            add("table", "--theory", theory, "--d", str(d), "--max-n", "1",
                "--max-m", "2", "--variant", "nonsep")
    # element verbs and pairings
    for i, x in enumerate(_elements()):
        element, d = json.dumps(element_to_obj(x)), x.d
        verbs = ("to-p", "to-q", "antipode")
        if x.basis == "q":
            verbs += ("coproduct",)
        for verb in verbs:
            add(verb, "--element", element, json_too=i % 4 == 0)
        theories = ["builtin:ck,k=2", "mult_class:1,2,1/3", "builtin:ek,k=1"]
        if x.variant == "sep":
            # the table spec, then the d = 1 coarse or d = 3 vertex theories
            theories += _theories(d)[9:]
        for theory in theories:
            add("eval", "--theory", theory, "--element", element,
                json_too=False)
        add("eval", "--theory", "builtin:ck,k=1", "--element", element,
            "--d", str(d))
    # vertical series, every path
    for d in (1, 2, 3):
        for i, theory in enumerate(_theories(d)):
            if theory.startswith("{"):
                continue
            order = "4" if d < 3 else "3"
            for path in ("both", "pair", "exp") if i % 4 == 1 else ("both",):
                add("vertical", "--theory", theory, "--d", str(d),
                    "--chern", CHERN[d], "--order", order, "--path", path,
                    json_too=i % 4 == 1 and path == "both")
        for theory in ("builtin:ck,k=1", "mult_class:1,2,1/3",
                       "builtin:ek,k=1"):
            add("vertical", "--theory", theory, "--d", str(d), "--chern",
                CHERN[d], "--order", "4", "--variant", "nonsep")
    for order in ("0", "1", "-1"):
        for theory in ("builtin:ck,k=1", "builtin:ek,k=1"):
            add("vertical", "--theory", theory, "--d", "1", "--chern",
                "m1=2", "--order", order, json_too=False)
    add("vertical", "--theory", "builtin:dt", "--d", "3", "--chern",
        "m21=12,m111=4", "--order", "6")
    # the vertex at an m_cap below n_cap - 1: a table at caps (4, 1), and
    # q- and p-basis elements whose caps are (4, 1)
    add("table", "--theory", "builtin:dt", "--d", "3", "--max-n", "4",
        "--max-m", "1")
    for basis in ("q", "p"):
        element = json.dumps({"d": 3, "variant": "sep", "basis": basis,
                              "terms": [
            {"monomial": [[1, [1, 1, 1]], [1, [1, 1, 1]]], "coeff": "3"},
            {"monomial": [[1, [1, 1, 0]], [2, [1, 1, 1]]], "coeff": "-1/2"},
            {"monomial": [[1, [1, 1, 1]]], "coeff": "-1"},
            {"monomial": [[4, [1, 1, 0]]], "coeff": "5"}]})
        add("eval", "--theory", "builtin:dt", "--element", element,
            json_too=False)
    # curve series
    for theory in _theories(1):
        for chi in ("1", "2", "-1/2"):
            add("curve", "--theory", theory, "--chi=" + chi, "--order", "5",
                json_too=chi == "2")
    # gamma integral, including uncancelled poles
    for d in (1, 2, 3):
        for theory in _theories(d):
            add("gamma-integral", "--theory", theory, "--d", str(d),
                "--chern", CHERN[d], "--order", "4" if d < 3 else "3",
                json_too=theory.startswith("builtin:ck"))
    # verify: every identity, passing and failing
    for theory in _theories(1):
        add("verify", "--name", "curve-vertical", "--theory", theory,
            "--chi", "3", "--order", "4", json_too=False)
    add("verify", "--name", "curve-vertical", "--theory", "builtin:ck,k=2",
        "--chi", "2", "--order", "4")
    for d, cls in ((1, "1,1"), (2, "1,2,1/3"), (3, "1,-1")):
        add("verify", "--name", "inertial-power", "--d", str(d), "--class",
            cls, "--chern", CHERN[d], "--order", "4")
    add("verify", "--name", "dt-degree-zero", "--chern",
        "c3=4,c1c2=24,c1^3=64", "--order", "5")
    for k in ("0", "1", "3"):
        add("verify", "--name", "ck-bivariate", "--k", k, "--order", "4")
    add("verify", "--name", "ck-bivariate", "--k", "2", "--order", "3",
        "--m-max", "5")
    for d in (1, 2, 3):
        for theory in ("builtin:ck,k=1", "builtin:ek,k=1",
                       "mult_class:1,2,1/3"):
            add("verify", "--name", "gamma-vertical", "--d", str(d),
                "--theory", theory, "--chern", CHERN[d], "--order", "3")
    # axioms
    for d, variant, seed in ((1, "both", "0"), (2, "sep", "1"),
                             (3, "nonsep", "2")):
        add("axioms", "--d", str(d), "--variant", variant, "--seed", seed,
            "--count", "3", "--max-cycle-degree", "3")
    # errors: malformed input, context mismatch, missing flags
    q22 = json.dumps({"d": 1, "variant": "sep", "basis": "q", "terms": [
        {"monomial": [[2, [2]]], "coeff": "1"}]})
    p22 = q22.replace('"q"', '"p"')
    for argv in (
            ("table", "--theory", "builtin:ck,k=-1", "--d", "1",
             "--max-n", "2", "--max-m", "2"),
            ("table", "--theory", "builtin:coarse-ck,k=-1", "--d", "1",
             "--max-n", "2", "--max-m", "2"),
            ("table", "--theory", "builtin:coarse-ck", "--d", "2",
             "--max-n", "2", "--max-m", "2"),
            ("table", "--theory", "builtin:dt", "--d", "2", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", "builtin:nope", "--d", "1", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", "builtin:", "--d", "1", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", "wat:1", "--d", "1", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", "builtin:ck,k", "--d", "1", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", "builtin:ck,k=x", "--d", "1", "--max-n",
             "2", "--max-m", "2"),
            ("table", "--theory", "mult_class:0,1", "--d", "1", "--max-n",
             "2", "--max-m", "2"),
            ("table", "--theory", "mult_class:1,1/0", "--d", "1", "--max-n",
             "2", "--max-m", "2"),
            ("table", "--theory", "{not json", "--d", "1", "--max-n", "2",
             "--max-m", "2"),
            ("table", "--theory", '{"table": [{"n": 1, "m": [1, 0], '
             '"value": "3"}]}', "--d", "1", "--max-n", "2", "--max-m", "2"),
            ("table", "--theory", '{"table": [{"n": 0, "m": [1], '
             '"value": "3"}]}', "--d", "1", "--max-n", "2", "--max-m", "2"),
            ("table", "--theory", "builtin:ck,k=1", "--d", "1", "--max-n",
             "0", "--max-m", "2"),
            ("table", "--theory", "builtin:ck,k=1", "--d", "1", "--max-n",
             "2", "--max-m", "-1"),
            ("table", "--theory", "builtin:ck,k=1", "--d", "2", "--max-n",
             "0", "--max-m", "1", "--variant", "nonsep"),
            ("eval", "--theory", "builtin:ck,k=1", "--element", q22,
             "--d", "2"),
            ("eval", "--theory", "builtin:ck,k=1", "--element", "{not json"),
            ("eval", "--theory", "builtin:ck,k=1", "--element", "[1,2]"),
            ("coproduct", "--element", p22),
            ("to-p", "--element", q22.replace('"1"', '"1/0"')),
            ("curve", "--theory", "builtin:ck,k=1", "--chi", "1/0",
             "--order", "3"),
            ("curve", "--theory", "builtin:ck,k=1", "--chi", "1", "--order",
             "-1"),
            ("curve", "--theory", "builtin:dt", "--chi", "1", "--order",
             "3"),
            ("vertical", "--theory", "builtin:ck,k=1", "--d", "2",
             "--chern", "m1=2", "--order", "3"),
            ("vertical", "--theory", "builtin:ck,k=1", "--d", "2",
             "--chern", "m2=1,c2=3", "--order", "3"),
            ("vertical", "--theory", "builtin:ek,k=1", "--d", "2",
             "--chern", "c2=3", "--order", "3", "--variant", "nonsep"),
            ("gamma-integral", "--theory", "builtin:ck,k=1", "--d", "0",
             "--chern", "", "--order", "3"),
            ("verify", "--name", "curve-vertical", "--order", "4"),
            ("verify", "--name", "gamma-vertical", "--d", "1", "--theory",
             "builtin:ck,k=1", "--order", "4"),
            ("verify", "--name", "dt-degree-zero", "--chern", "c2=1",
             "--order", "4"),
            ("axioms", "--d", "1", "--count", "0"),
            ("axioms", "--d", "1", "--max-cycle-degree", "-1")):
        add(*argv, json_too=False)
    # argparse's own output: help, and usage errors before any verb runs
    verbs = ("table", "eval", "to-p", "to-q", "antipode", "coproduct",
             "vertical", "curve", "gamma-integral", "verify", "axioms")
    for argv in ((), ("--help",), ("-h",), ("no-such-verb",)) + tuple(
            (verb, "-h") for verb in verbs) + (
            ("table", "--theory", "builtin:ck,k=1", "--d", "1"),
            ("to-p", "--element", q22, "--format", "xml"),
            ("vertical", "--theory", "builtin:ck,k=1", "--d", "1", "--chern",
             "m1=2", "--order", "3", "--path", "bad"),
            ("table", "--theory", "builtin:ck,k=1", "--d", "x", "--max-n",
             "2", "--max-m", "2"),
            ("curve", "--theory", "builtin:ck,k=1", "--chi", "1", "--ord",
             "3"),
            ("to-p", "--element", q22, "--bogus")):
        add(*argv, json_too=False)
    return runs


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return {"argv": list(argv), "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue()), "status": status}


def test_cli_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 400
    changed = [entry["argv"] for entry in golden
               if _run(entry["argv"]) != entry]
    assert not changed, "%d invocations changed, first: %r" % (len(changed),
                                                               changed[0])


if __name__ == "__main__":
    old = {json.dumps(e["argv"]): e for e in
           json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    entries = [_run(argv) for argv in _corpus()]
    new = {json.dumps(e["argv"]): e for e in entries}
    for argv, entry in new.items():
        if argv not in old:
            print("added: %s" % argv)
        elif old[argv] != entry:
            print("changed: %s" % argv)
    for argv in old:
        if argv not in new:
            print("removed: %s" % argv)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries)
                      + "\n]\n")
    print("%d invocations written to %s" % (len(entries), GOLDEN))
