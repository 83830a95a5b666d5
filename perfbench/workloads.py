"""Seeded job lists for the benchmark workloads, and the oracles that check
their outputs exactly for any seed.

A job is a dict ``{"argv": [...], "oracle": [...]}``.  ``argv`` is what the
``punctual`` CLI receives; the program never sees the seed.  ``oracle``
says how the job's stdout is checked, independently of the program:

* ``["exact", text]``: stdout is exactly ``text``.
* ``["linear", [[coeff, basis_argv], ...]]``: the job's output is linear
  in the seeded numbers, so its first line equals the combination of the
  first lines of the committed outputs of the basis jobs (``expected.json``,
  ``basis``), term by term, and its other lines equal those of the first
  basis output.
* ``["macmahon", a, order]``: stdout is the series M(-T)^a to T^order, M
  the MacMahon function (the degree-zero DT identity for d = 3).

The seed changes numbers (Chern numbers, coefficients, axiom-corpus
seeds), never the shape of the work, so that run-to-run cost stays steady
across seeds.
"""

import json
import random
from fractions import Fraction

DEFAULT_SEED = 0

P3 = {"c3": 4, "c1c2": 24, "c1^3": 64}   # the projective 3-space

# One-line reasons, copied into BENCHMARK.json.
WHY = {
    "gamma-d3": "MultiSeries log/exp on 3- and 4-variable generator tables "
                "via the log-only (ck) and exp-then-log (DT) routes; where "
                "a series-kernel change must show",
    "vertical-p3": "DT vertical series at orders 10-12: HopfElement "
                   "products building [Z_n] in the p basis and Theory.pair "
                   "lookups; series work under 1%",
    "hopf-ops": "axioms, coproduct, to-p and antipode: coproducts, cached "
                "basis-change constants and large tensor printing; no "
                "series or theory work",
}

_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
           Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 2),
           Fraction(7, 3), Fraction(-9, 4))


def _fmt(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _chern_arg(values):
    return ",".join("%s=%s" % (k, v) for k, v in values.items())


def _seeded_chern(rng, d):
    """Chern class numbers whose monomial numbers <m_lam> are all nonzero,
    so every lam adds generators and the work per job does not depend on
    the seed.  Drawn in the monomial basis, with P^2 and P^3 sized values,
    and written as class numbers through c1^2 = m2 + 2 m11, c2 = m11 and
    c1^3 = m3 + 3 m21 + 6 m111, c1c2 = m21 + 3 m111, c3 = m111."""
    if d == 2:
        m2, m11 = rng.randint(2, 9), rng.randint(2, 9)
        return {"c2": m11, "c1^2": m2 + 2 * m11}
    m3, m21, m111 = rng.randint(2, 9), rng.randint(6, 18), rng.randint(2, 9)
    return {"c3": m111, "c1c2": m21 + 3 * m111,
            "c1^3": m3 + 3 * m21 + 6 * m111}


def basis_key(argv):
    return " ".join(argv)


# -- gamma-d3 ---------------------------------------------------------------

def _gamma_job(theory, d, order, chern):
    def argv_for(values):
        return ["gamma-integral", "--theory", theory, "--d", str(d),
                "--chern", _chern_arg(values), "--order", str(order)]
    terms = [[_fmt(v), argv_for({k: 1})] for k, v in chern.items()]
    return {"argv": argv_for(chern), "oracle": ["linear", terms]}


def _gamma_d3(rng):
    return [_gamma_job("builtin:ck,k=2", 3, 6, _seeded_chern(rng, 3)),
            _gamma_job("builtin:ck,k=2", 3, 7, _seeded_chern(rng, 3)),
            _gamma_job("builtin:dt", 3, 9, _seeded_chern(rng, 3)),
            _gamma_job("builtin:ck,k=1", 2, 9, _seeded_chern(rng, 2))]


# -- vertical-p3 ------------------------------------------------------------

def _vertical_job(order, chern):
    argv = ["vertical", "--theory", "builtin:dt", "--d", "3",
            "--chern", _chern_arg(chern), "--order", str(order)]
    return {"argv": argv,
            "oracle": ["macmahon", chern["c3"] - chern["c1c2"], order]}


def _vertical_p3(rng):
    return [_vertical_job(12, P3),
            _vertical_job(10, _seeded_chern(rng, 3)),
            _vertical_job(11, _seeded_chern(rng, 3))]


# -- hopf-ops ---------------------------------------------------------------

# Sep q-basis monomials (lists of (n, m) factors) per element job.  The seed
# picks only the coefficients, so the terms and the cache traffic are fixed.
_ELEMENT_JOBS = (
    ("to-p", 2, ([(6, (3, 3))], [(4, (3, 2)), (2, (1, 1))],
                 [(3, (2, 1)), (3, (1, 0))])),
    ("antipode", 2, ([(6, (3, 3))], [(5, (3, 2))])),
    ("coproduct", 2, ([(3, (3, 2)), (3, (2, 1))],
                      [(2, (2, 2)), (2, (1, 1)), (2, (1, 0))])),
    ("to-p", 3, ([(6, (2, 1, 1))], [(3, (1, 1, 1)), (3, (1, 0, 0))])),
    ("antipode", 3, ([(6, (2, 2, 1))], [(4, (2, 1, 0)), (2, (1, 1, 0))])),
    ("coproduct", 3, ([(3, (2, 1, 1)), (3, (1, 1, 0))],
                      [(2, (1, 1, 0))] * 3, [(6, (2, 1, 1))])),
)

_AXIOM_JOBS = (("2", "sep"), ("3", "nonsep"))
_AXIOM_COUNT = 20
_AXIOM_CHECKS = ("coassociativity", "counit", "cocommutativity",
                 "commutativity", "bialgebra", "antipode")


def _element_argv(verb, d, terms):
    obj = {"d": d, "variant": "sep", "basis": "q",
           "terms": [{"monomial": [[n, list(m)] for n, m in mon],
                      "coeff": _fmt(c)} for mon, c in terms]}
    return [verb, "--element", json.dumps(obj, separators=(",", ":"))]


def _hopf_ops(rng):
    jobs = []
    for d, variant in _AXIOM_JOBS:
        argv = ["axioms", "--d", d, "--variant", variant,
                "--count", str(_AXIOM_COUNT), "--max-cycle-degree", "3",
                "--seed", str(rng.randrange(10 ** 6))]
        text = "passed: true\n" + "".join(
            "%s: %d\n" % (name, _AXIOM_COUNT) for name in _AXIOM_CHECKS)
        jobs.append({"argv": argv, "oracle": ["exact", text]})
    for verb, d, monomials in _ELEMENT_JOBS:
        coeffs = [rng.choice(_COEFFS) for _ in monomials]
        terms = [[_fmt(c), _element_argv(verb, d, [(mon, 1)])]
                 for mon, c in zip(monomials, coeffs)]
        jobs.append({"argv": _element_argv(verb, d, zip(monomials, coeffs)),
                     "oracle": ["linear", terms]})
    return jobs


WORKLOADS = {"gamma-d3": _gamma_d3, "vertical-p3": _vertical_p3,
             "hopf-ops": _hopf_ops}


def make_jobs(workload, seed):
    """The job list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))


def basis_argvs(jobs):
    """The argv of every basis job the jobs' linear oracles refer to."""
    out = {}
    for job in jobs:
        if job["oracle"][0] == "linear":
            for _, argv in job["oracle"][1]:
                out[basis_key(argv)] = argv
    return list(out.values())


# -- oracles ----------------------------------------------------------------

def parse_terms(line):
    """A printed sum "c1*key1 + c2*key2 ..." as {key: Fraction}.

    Covers MultiSeries, HopfElement and TensorElement text: terms are
    joined by " + " and each starts with its "num/den" coefficient.
    """
    out = {}
    if line == "0":
        return out
    for term in line.split(" + "):
        coeff, _, key = term.partition("*")
        if key in out:
            raise ValueError("repeated term %r" % key)
        out[key] = Fraction(coeff)
    return out


def _combine(terms, basis):
    total = {}
    for coeff, argv in terms:
        c = Fraction(coeff)
        line = basis[basis_key(argv)].split("\n")[0]
        for k, v in parse_terms(line).items():
            total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v}


def macmahon_power(a, order):
    """Coefficients of M(-T)^a to T^order, M(T) = prod_n (1 - T^n)^(-n).

    Independent of the program: sigma_2 gives the log derivative of M, and
    J. C. P. Miller's recurrence raises M(-T) to the power a.
    """
    # T M'(T)/M(T) = sum_k sigma_2(k) T^k; under T -> -T the sign is (-1)^k
    s = [0] + [(-1) ** k * sum(j * j for j in range(1, k + 1) if k % j == 0)
               for k in range(1, order + 1)]
    # g = M(-T)^a satisfies n g_n = a sum_{k=1..n} s_k g_{n-k}
    g = [Fraction(1)]
    for n in range(1, order + 1):
        g.append(Fraction(a) * sum(s[k] * g[n - k] for k in range(1, n + 1))
                 / n)
    return g


def _series_dict(coeffs):
    out = {}
    for k, c in enumerate(coeffs):
        if c:
            out["" if k == 0 else "T" if k == 1 else "T^%d" % k] = c
    return out


def check_output(job, text, basis):
    """True when ``text`` (a job's stdout) passes the job's oracle."""
    kind = job["oracle"][0]
    if kind == "exact":
        return text == job["oracle"][1]
    if not text.endswith("\n"):
        return False
    lines = text[:-1].split("\n")
    try:
        got = parse_terms(lines[0])
    except ValueError:
        return False
    if kind == "macmahon":
        _, a, order = job["oracle"]
        want = _series_dict(macmahon_power(a, order))
        return len(lines) == 1 and got == want
    if kind == "linear":
        terms = job["oracle"][1]
        first = basis[basis_key(terms[0][1])][:-1].split("\n")
        return lines[1:] == first[1:] and got == _combine(terms, basis)
    raise ValueError("unknown oracle %r" % kind)
