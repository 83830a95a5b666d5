"""Checks against sympy, an implementation written outside this
repository: MultiSeries exp, log and rational powers against its
ring_series, as Hypothesis properties over sparse series in 1-3 variables
with per-variable caps, an optional total cap and rational coefficients;
symfunc.monomial_to_elementary against its symmetrize for d = 1..5; the
coarse c^1 curve theory against its Stirling numbers; and the sep Hopf
structure maps against log, exp and inversion of the generating series of
the generators, row by row over boxes of rows for d = 1..3, and on elements
drawn through those rows.

ring_series truncates in one variable.  Substituting t*x_i for each x_i
makes the t-degree of a term its total degree, so truncating at
t^(bound + 1), bound the largest total degree within the caps, is exact
on every term within them.  The caps and the total cap bound a monomial
ideal, so dropping the terms outside them afterwards is exact too."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy.polys.ring_series import (rs_exp, rs_log, rs_nth_root, rs_pow,
                                     rs_series_inversion)
from sympy.polys.rings import ring

from punctual import hopf
from punctual.combinat import partitions_of
from punctual.hopf import HopfElement, sep_to_nonsep
from punctual.series import MultiSeries
from punctual.symfunc import monomial_to_elementary
from punctual.theories import coarse_curve_theory

import oracles

examples = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)

coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                   st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9)))


@st.composite
def sparse_series(draw, constant):
    """A series with the given constant term and up to four other terms."""
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    total_cap = draw(st.none() | st.integers(0, sum(caps)))
    exponents = st.tuples(*(st.integers(0, c) for c in caps))
    terms = draw(st.dictionaries(exponents, coeffs, max_size=4))
    terms[(0,) * len(caps)] = constant
    return MultiSeries("xyz"[:len(caps)], caps, terms, total_cap)


def _through_sympy(f, op):
    """op(p, t, prec) applied to f(t x) in a sympy ring over QQ, read back
    as the terms within f's caps and total cap."""
    R, t, *_ = ring(("t",) + f.variables, sympy.QQ)
    bound = sum(f.caps) if f.total_cap is None else f.total_cap
    p = R({(sum(e),) + e: sympy.QQ(c.numerator, c.denominator)
           for e, c in f.terms.items()})
    out = {}
    for (k, *e), c in op(p, t, bound + 1).items():
        assert k == sum(e)
        if all(x <= cap for x, cap in zip(e, f.caps)):
            out[tuple(e)] = Fraction(int(c.numerator), int(c.denominator))
    return out


@examples
@given(f=sparse_series(0))
def test_exp_matches_sympy(f):
    assert f.exp().terms == _through_sympy(f, rs_exp)


@examples
@given(f=sparse_series(1))
def test_log_matches_sympy(f):
    assert f.log().terms == _through_sympy(f, rs_log)


@examples
@given(f=sparse_series(1), a=st.integers(-3, 3), b=st.integers(1, 3))
def test_rational_pow_matches_sympy(f, a, b):
    # rs_pow takes only an integer exponent, so f^(a/b) = (f^(1/b))^a
    assert f.pow(Fraction(a, b)).terms == _through_sympy(
        f, lambda p, t, prec: rs_pow(rs_nth_root(p, b, t, prec), a, t, prec))


@pytest.mark.parametrize("d", range(1, 6))
def test_monomial_to_elementary_matches_sympy(d):
    from sympy.polys.polyfuncs import symmetrize
    xs = sympy.symbols("x1:%d" % (d + 1))
    for lam in partitions_of(d, d):
        row = tuple(lam) + (0,) * (d - len(lam))
        m = sum(sympy.prod(x ** a for x, a in zip(xs, perm))
                for perm in set(permutations(row)))
        sym, rem, defs = symmetrize(m, *xs, formal=True)
        assert rem == 0
        es = [s for s, _ in defs]
        want = {}
        for powers, c in sympy.Poly(sym, *es).terms():
            key = tuple(i for i in range(d, 0, -1)
                        for _ in range(powers[i - 1]))
            want[key] = Fraction(int(c.p), int(c.q))
        assert monomial_to_elementary(lam, d) == want


def test_coarse_chern_values_are_stirling_numbers():
    # prod_{i=1..n} (1 + iT) = sum_j c(n+1, n+1-j) T^j, with c the unsigned
    # Stirling numbers of the first kind
    from sympy.functions.combinatorial.numbers import stirling
    e = coarse_curve_theory(1, "chern", 7, 9)
    for n in range(1, 8):
        for j in range(10):
            want = stirling(n + 1, n + 1 - j, kind=1, signed=False) \
                if j <= n else 0
            assert e.value(n, (j,)) * factorial(n) == want


# -- the sep Hopf structure maps -----------------------------------------
#
# Q = 1 + sum q_{n, sort v} T^n U^v over n >= 1 and every vector v is
# group-like, so p_{n,m} = [T^n U^m] log Q, S(q_{n,m}) = [T^n U^m] Q^-1 and,
# with P the same sum over the p_{n,m}, q_{n,m} = [T^n U^m] exp P; the
# sep-to-nonsep image of Q is exp(T sum_v q_(sort v) U^v).  Every term of
# Q - 1 has T-degree >= 1, so truncating in T past n_max is exact, and no
# term outside the box {0..m_max}^d in U can reach a term inside it.

HOPF_BOXES = [(1, 4, 4), (2, 3, 2), (3, 3, 1), (3, 2, 2)]


def _desc(v):
    return tuple(sorted(v, reverse=True))


def _hopf_rows(d, n_max, m_max, nonsep, op):
    """{(n, m): {monomial: Fraction}}: [T^n U^v] of op(S), S the sum of
    g T^n U^v over the rows of the box (n = 1 only for nonsep), g the
    generator of the row, read for every v and checked to depend only on
    m = sort v."""
    rows = [(n, v) for n in range(1, 2 if nonsep else n_max + 1)
            for v in product(range(m_max + 1), repeat=d)]
    gen = (lambda n, v: _desc(v)) if nonsep else (lambda n, v: (n, _desc(v)))
    gens = sorted({gen(n, v) for n, v in rows})
    R, T, *rest = ring(["T"] + ["U%d" % i for i in range(d)] +
                       ["g%d" % i for i in range(len(gens))], sympy.QQ)
    us, index = rest[:d], dict(zip(gens, rest[d:]))
    s = R.zero
    for n, v in rows:
        term = index[gen(n, v)] * T ** n
        for u, x in zip(us, v):
            term *= u ** x
        s += term
    out = {}
    for (n, *e), c in op(s, T, n_max + 1).items():
        v = tuple(e[:d])
        if 1 <= n <= n_max and max(v, default=0) <= m_max:
            mon = tuple(g for g, k in zip(gens, e[d:]) for _ in range(k))
            out.setdefault((n, v), {})[mon] = Fraction(int(c.numerator),
                                                       int(c.denominator))
    by_row = {}
    for (n, v), row in out.items():
        assert by_row.setdefault((n, _desc(v)), row) == row, (n, v)
    return by_row


_HOPF_MAPS = {
    # name: (nonsep generators, series op, hopf row expansion, element map,
    #        basis of the elements it takes)
    "p_in_q": (False, lambda s, T, prec: rs_log(1 + s, T, prec),
               hopf._p_in_q, HopfElement.to_q, "p"),
    "q_in_p": (False, rs_exp, hopf._q_in_p, HopfElement.to_p, "q"),
    "antipode_in_q": (False, lambda s, T, prec: rs_series_inversion(
        1 + s, T, prec), hopf._antipode_in_q, HopfElement.antipode, "q"),
    "sep_gen_image": (True, rs_exp, hopf._sep_gen_image, sep_to_nonsep,
                      "q"),
}


@pytest.mark.parametrize("name", _HOPF_MAPS)
@pytest.mark.parametrize("d, n_max, m_max", HOPF_BOXES)
def test_hopf_structure_maps_match_sympy(name, d, n_max, m_max):
    nonsep, op, expansion, apply, basis = _HOPF_MAPS[name]
    want = _hopf_rows(d, n_max, m_max, nonsep, op)
    rows = sorted({(n, _desc(v)) for n in range(1, n_max + 1)
                   for v in product(range(m_max + 1), repeat=d)})
    for n, m in rows:
        den, nums = expansion(n, m)  # id monomials, read decoded
        decoded = {hopf._decode(mon): Fraction(c, den)
                   for mon, c in nums.items()}
        if nonsep:  # a nonsep q_lam is interned as its row (1, lam)
            decoded = {tuple(lam for _, lam in mon): c
                       for mon, c in decoded.items()}
        assert decoded == want.get((n, m), {}), (n, m)
    # elements of up to three terms, each a product of one to three rows
    rng = random.Random("%s/%d" % (name, d))
    for _ in range(4):
        terms = {tuple(sorted(rng.choice(rows)
                              for _ in range(rng.randint(1, 3)))):
                 Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))}
        got = apply(HopfElement(d, "sep", basis, terms))
        assert got.terms == oracles.linear(terms, lambda mon: (
            oracles.substitute(mon, lambda n, m: want.get((n, m), {})))), terms
