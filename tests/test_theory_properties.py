"""Every lookup of a Theory against naive oracles, as Hypothesis properties.

For random generator tables of both kinds and for the class (ck,
multiplicative class and Euler power), inertial and vertex theories at
small caps, value and primitive_value are checked at every key within the
caps, with m in every order.  The expected values come
from a table the test builds from the entries itself, and from
oracles.poly_log / poly_exp of that table.  The n = 0 rows read 1 on the
unit of a multiplicative theory and 0 everywhere else, and one step past
each cap raises CapError.  A nonsep table's nonsep_value is checked at
every lam within m_cap, in every order, against a dict of its entries in
canonical form.

A class theory of P is checked against the table 1/n! prod_i [x^(m_i)] P^n,
with P^n multiplied out naively, and against the log of that table.

Theory.pair is checked against the naive loop of oracles.pairing, with the
generator values read through those lookups: sep elements in both bases
and nonsep elements, multiplicative and primitive theories.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from punctual.hopf import HopfElement
from punctual.series import MultiSeries
from punctual.theories import (CapError, ck_theory, dt_vertex_theory,
                               ek_theory, eval_theory, inertial_theory,
                               mult_class_theory, table_theory, theory_log)

import oracles

# few small examples, the same ones every run
examples = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

coeffs = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                   st.integers(1, 3))


def _caps(e):
    return (e.n_cap,) + (e.m_cap,) * e.d


def _cells(caps):
    """Every exponent (n,) + m with n >= 1 within caps, m in every order."""
    return [e for e in itertools.product(*(range(c + 1) for c in caps))
            if e[0]]


def _exp(prim, caps):
    gen = oracles.poly_exp(prim, caps)
    del gen[(0,) * len(caps)]
    return gen


def _log(gen, caps):
    table = dict(gen)
    table[(0,) * len(caps)] = Fraction(1)
    return oracles.poly_log(table, caps)


def check_lookups(e, gen, prim):
    """gen and prim map (n,) + m, n >= 1, to the expected value and
    primitive value; absent cells are zero."""
    caps = _caps(e)
    for cell in _cells(caps):
        n, m = cell[0], cell[1:]
        assert e.value(n, m) == gen.get(cell, 0), cell
        assert e.primitive_value(n, m) == prim.get(cell, 0), cell
    unit = 1 if e.kind == "multiplicative" else 0
    for m in itertools.product(range(e.m_cap + 1), repeat=e.d):
        assert e.value(0, m) == (0 if any(m) else unit)
        assert e.primitive_value(0, m) == 0
    zeros = (0,) * e.d
    past = [(e.n_cap + 1, zeros)] + [
        (n, zeros[:i] + (e.m_cap + 1,) + zeros[i + 1:])
        for n in (0, 1) for i in range(e.d)]
    for n, m in past:
        with pytest.raises(CapError):
            e.value(n, m)
        with pytest.raises(CapError):
            e.primitive_value(n, m)


@st.composite
def tables(draw):
    """A random generator table with some entries beyond the caps, its
    kind, variant, d and caps.  A nonsep table lists its partitions
    unsorted and unpadded, repeats its first one in another order, and
    draws an n_cap, which no nonsep lookup reads, from -1 up."""
    variant = draw(st.sampled_from(("sep", "nonsep")))
    d, m_cap = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    part = st.integers(0, m_cap + 1)
    if variant == "sep":
        n_cap = draw(st.integers(1, 3))
        keys = st.tuples(st.integers(1, n_cap + 1), st.lists(
            part, min_size=d, max_size=d).map(tuple))
        entries = list(draw(st.dictionaries(keys, coeffs, min_size=1,
                                            max_size=6)).items())
    else:
        n_cap = draw(st.integers(-1, 3))
        entries = draw(st.lists(st.tuples(st.lists(part, max_size=d),
                                          coeffs), min_size=1, max_size=5))
        entries.append((entries[0][0][::-1], draw(coeffs)))
    kind = draw(st.sampled_from(("multiplicative", "primitive")))
    return entries, kind, variant, d, n_cap, m_cap


@examples
@given(table=tables())
def test_table_theory_lookups(table):
    entries, kind, variant, d, n_cap, m_cap = table
    e = table_theory(entries, d, n_cap, m_cap, kind=kind, variant=variant)
    # the last entry for an index wins, in any order of m
    canonical = {}
    if variant == "nonsep":
        for lam, v in entries:
            canonical[tuple(sorted(lam + [0] * (d - len(lam)),
                                   reverse=True))] = v
        for lam in itertools.product(range(m_cap + 1), repeat=d):
            assert e.nonsep_value(lam) == canonical.get(
                tuple(sorted(lam, reverse=True)), 0), lam
        with pytest.raises(CapError):
            e.nonsep_value((m_cap + 1,) + (0,) * (d - 1))
        return
    for (n, m), v in entries:
        canonical[n, tuple(sorted(m))] = v
    caps = _caps(e)
    gen = {cell: canonical[cell[0], tuple(sorted(cell[1:]))]
           for cell in _cells(caps)
           if (cell[0], tuple(sorted(cell[1:]))) in canonical}
    prim = gen if kind == "primitive" else _log(gen, caps)
    check_lookups(e, gen, prim)


@examples
@given(form=st.sampled_from(("ck", "mult_class", "ek")),
       t=st.lists(coeffs, max_size=3), k=st.integers(0, 3),
       d=st.integers(1, 2), n_cap=st.integers(0, 3), m_cap=st.integers(-1, 3))
def test_ck_theory_lookups(form, t, k, d, n_cap, m_cap):
    # a class theory of P has the table 1/n! prod_i [x^(m_i)] P^n, with P^n
    # multiplied out here, and the log of that table as its primitive side
    if form == "ck":
        P = {(j,): Fraction(comb(k, j)) for j in range(k + 1)}
        e = ck_theory(k, d, n_cap, m_cap)
    elif form == "ek":
        P = {(k,): Fraction(1)}
        e = ek_theory(k, d, n_cap, m_cap)
    else:
        P = dict(((j,), c) for j, c in enumerate([Fraction(1)] + t))
        e = mult_class_theory(MultiSeries(("x",), (len(t),), P), d, n_cap,
                              m_cap)
    powers = [{(0,): Fraction(1)}]
    for _ in range(n_cap):
        powers.append(oracles.poly_mul(powers[-1], P, (m_cap,)))
    caps = _caps(e)
    gen = {}
    for cell in _cells(caps):
        v = Fraction(1, factorial(cell[0]))
        for x in cell[1:]:
            v *= powers[cell[0]].get((x,), 0)
        if v:
            gen[cell] = v
    check_lookups(e, gen, _log(gen, caps))


@examples
@given(t=st.lists(coeffs, min_size=0, max_size=2), d=st.integers(1, 2),
       n_cap=st.integers(1, 3), m_cap=st.integers(0, 3))
def test_inertial_theory_lookups(t, d, n_cap, m_cap):
    t = [Fraction(1)] + t
    P = MultiSeries(("U",), (len(t),), {(j,): c for j, c in enumerate(t)})
    e = inertial_theory(P, d, n_cap, m_cap)
    caps = _caps(e)
    prim = {}
    for cell in _cells(caps):
        n, v = cell[0], Fraction(1, cell[0])
        for x in cell[1:]:
            j = x - (n - 1)
            v *= t[j] if 0 <= j < len(t) else 0
        if v:
            prim[cell] = v
    check_lookups(e, _exp(prim, caps), prim)


@settings(examples, max_examples=8)
@given(n_cap=st.integers(1, 3), extra=st.integers(0, 2))
def test_dt_vertex_theory_lookups(n_cap, extra):
    e = dt_vertex_theory(n_cap, n_cap - 1 + extra)
    caps = _caps(e)
    # -E(U) log M(-U1 U2 U3 T) / (U1 U2 U3): 2 a_n at (n, n, n) and a_n at
    # each ordering of (n + 1, n, n - 1)
    prim = {}
    for n in range(1, n_cap + 1):
        a = oracles.vertex_log_coeff(n)
        prim[n, n, n, n] = -2 * a
        for m in itertools.permutations((n + 1, n, n - 1)):
            prim[(n,) + m] = -a
    prim = {cell: v for cell, v in prim.items()
            if all(x <= c for x, c in zip(cell, caps))}
    check_lookups(e, _exp(prim, caps), prim)


@settings(examples, max_examples=120)
@given(form=st.sampled_from(("mult_class", "ck", "ek", "inertial")),
       t=st.lists(coeffs, max_size=3), k=st.integers(0, 3),
       d=st.integers(0, 3), n_cap=st.integers(-1, 3), m_cap=st.integers(-1, 4),
       nonsep=st.booleans())
def test_class_sides_match_the_series_products(form, t, k, d, n_cap, m_cap,
                                               nonsep):
    # the closed-form primitive side first * P(U1)...P(Ud), against one
    # schoolbook product per factor; m_cap falls below and above deg P
    variant = "nonsep" if nonsep and form in ("mult_class", "ck") else "sep"
    caps = ((max(n_cap, 0) if variant == "sep" else 1,) +
            (max(m_cap, 0),) * d)
    first = {(1,) + (0,) * d: 1}
    if form == "ck":
        P = {(j,): comb(k, j) for j in range(k + 1)}
        e = ck_theory(k, d, n_cap, m_cap, variant=variant)
    elif form == "ek":
        P = {(k,): 1}
        e = ek_theory(k, d, n_cap, m_cap)
    else:
        P = dict(((j,), c) for j, c in enumerate([Fraction(1)] + t))
        unit = MultiSeries(("x",), (len(t),), P)
        if form == "inertial":
            first = {(n,) + (n - 1,) * d: Fraction(1, n)
                     for n in range(1, n_cap + 1)}
            e = inertial_theory(unit, d, n_cap, m_cap)
        else:
            e = mult_class_theory(unit, d, n_cap, m_cap, variant=variant)
    side = e._series(True)
    assert (side.variables, side.caps) == (e._series(False).variables, caps)
    assert side.terms == oracles.class_side(P, d, caps, first)
    assert all(type(c) is Fraction for c in side.terms.values())
    if variant == "nonsep":
        assert e._series(False) is side


@st.composite
def paired_theories(draw):
    """A table (either kind), ck, DT vertex, logarithm or nonsep theory."""
    form = draw(st.sampled_from(("table", "ck", "dt", "log", "nonsep")))
    if form == "dt":
        n_cap = draw(st.integers(1, 2))
        return dt_vertex_theory(n_cap, n_cap + draw(st.integers(0, 1)))
    d, n_cap, m_cap = draw(st.integers(1, 2)), draw(st.integers(1, 3)), \
        draw(st.integers(0, 2))
    variant = "nonsep" if form == "nonsep" else "sep"
    if draw(st.booleans()):
        e = ck_theory(draw(st.integers(0, 2)), d, n_cap, m_cap,
                      variant=variant)
    else:
        # sparse, so that many generators have value 0
        row = st.lists(st.integers(0, m_cap), min_size=d, max_size=d).map(
            tuple)
        key = row if variant == "nonsep" else st.tuples(
            st.integers(1, n_cap), row)
        kind = "multiplicative" if form == "log" else draw(
            st.sampled_from(("multiplicative", "primitive")))
        e = table_theory(draw(st.dictionaries(key, coeffs, max_size=4))
                         .items(), d, n_cap, m_cap, kind=kind,
                         variant=variant)
    return theory_log(e) if form == "log" else e


@examples
@given(data=st.data())
def test_pair_matches_the_naive_loop(data):
    e = data.draw(paired_theories())
    basis = "q" if e.variant == "nonsep" else data.draw(
        st.sampled_from(("q", "p")))
    row = st.lists(st.integers(0, e.m_cap), min_size=e.d,
                   max_size=e.d).map(lambda m: tuple(sorted(m, reverse=True)))
    factor = row if e.variant == "nonsep" else st.tuples(
        st.integers(1, e.n_cap), row)
    mixed = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12))
    terms = data.draw(st.dictionaries(
        st.lists(factor, max_size=3).map(lambda mon: tuple(sorted(mon))),
        mixed, max_size=6))
    if e.variant == "nonsep":
        value = e.nonsep_value
    elif basis == "p":
        value = lambda g: e.primitive_value(*g)
    else:
        value = lambda g: e.value(*g)
    primitive = e.kind == "primitive"
    for x in (HopfElement(e.d, e.variant, basis, terms),
              HopfElement.unit(e.d, e.variant, basis),
              HopfElement.zero(e.d, e.variant, basis)):
        expected = oracles.pairing(x.terms, value, primitive)
        assert e.pair(x) == eval_theory(e, x) == expected
