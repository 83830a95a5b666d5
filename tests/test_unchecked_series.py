"""Every series that src builds through the unchecked series._built, as
Hypothesis properties: it must be exactly what the validating constructor
makes of the same frame and terms, with tuples of ints within the caps as
keys and nonzero Fractions as values.

Covered: the closed-form primitive sides of the ck, Euler power,
multiplicative class and inertial theories (d = 0-3, m_cap below and above
deg P, nonsep included) and of the DT vertex (caps below its cells
included), ck's P, _macmahon_log of either sign, the gamma integral's
series, and vertical_series by the pair and the exp route, with Chern
data drawn from fractional class numbers and with c3 = c1c2, where the DT
vertical series is 1 and every b_n of the pair route is 0.
"""

from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from punctual import theories
from punctual.combinat import partitions_of
from punctual.genfun import gamma_integral_series, vertical_series
from punctual.series import MultiSeries, _macmahon_log
from punctual.symfunc import chern_data_from_classes, parse_chern_arg
from punctual.theories import (ck_theory, dt_vertex_theory, ek_theory,
                               inertial_theory, mult_class_theory)

examples = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

coeffs = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                   st.integers(1, 3))


def assert_as_validated(s):
    """s has a well-formed frame and equals its rebuild by the validating
    constructor, so no term is past a cap, zero or under a key that the
    constructor would spell otherwise."""
    assert type(s.variables) is tuple
    assert all(type(v) is str for v in s.variables)
    assert type(s.caps) is tuple
    assert all(type(c) is int and c >= 0 for c in s.caps)
    for e, c in s.terms.items():
        assert type(e) is tuple and len(e) == len(s.caps), e
        assert all(type(x) is int and 0 <= x <= cap
                   for x, cap in zip(e, s.caps)), (e, s.caps)
        assert s.total_cap is None or sum(e) <= s.total_cap, e
        assert type(c) is Fraction and c, (e, c)
    assert s == MultiSeries(s.variables, s.caps, s.terms, s.total_cap)


def _unit(t):
    return MultiSeries(("x",), (len(t),), {(j,): c for j, c in
                                           enumerate([Fraction(1)] + t)})


@st.composite
def closed_forms(draw, d=None, n_cap=None, m_cap=None):
    """A ck, Euler power, multiplicative class, inertial or (for d = 3)
    DT vertex theory, at drawn caps unless given."""
    forms = ["ck", "ek", "mult_class", "inertial"]
    if d is None:
        d = draw(st.integers(0, 3))
    if d == 3:
        forms.append("dt")
    form = draw(st.sampled_from(forms))
    if n_cap is None:
        n_cap, m_cap = draw(st.integers(-1, 4)), draw(st.integers(-1, 6))
    variant = "nonsep" if form in ("ck", "mult_class") and draw(
        st.booleans()) else "sep"
    if form == "ck":
        return ck_theory(draw(st.integers(0, 4)), d, n_cap, m_cap,
                         variant=variant)
    if form == "ek":
        return ek_theory(draw(st.integers(0, 3)), d, n_cap, m_cap)
    if form == "dt":
        return dt_vertex_theory(n_cap, m_cap)
    unit = _unit(draw(st.lists(coeffs, max_size=3)))
    if form == "inertial":
        return inertial_theory(unit, d, n_cap, m_cap)
    return mult_class_theory(unit, d, n_cap, m_cap, variant=variant)


@examples
@given(e=closed_forms())
@example(e=dt_vertex_theory(4, 2))
@example(e=dt_vertex_theory(3, 0))
@example(e=dt_vertex_theory(2, 9))
def test_closed_form_sides_are_built_as_validated(e):
    assert_as_validated(e._series(True))


def test_ck_class_is_built_as_validated(monkeypatch):
    # P = (1+x)^k to x^m_cap, caught on its way to the class side
    seen = []
    real = theories._class_theory
    monkeypatch.setattr(theories, "_class_theory", lambda P, *args, **kw: (
        seen.append(P), real(P, *args, **kw))[1])
    for k in range(7):
        for m_cap in range(-1, 9):
            ck_theory(k, 1, 1, m_cap)
            P = seen.pop()
            assert_as_validated(P)
            assert P.caps == (max(m_cap, 0),)
            assert P.terms == {(j,): comb(k, j)
                               for j in range(min(k, max(m_cap, 0)) + 1)}


@examples
@given(cap=st.integers(0, 12), sign=st.sampled_from((1, -1)))
def test_macmahon_log_is_built_as_validated(cap, sign):
    assert_as_validated(_macmahon_log(cap, sign))


def _class_numbers(draw, d):
    return {mu: draw(coeffs | st.just(Fraction(0)))
            for mu in partitions_of(d, d)}


@st.composite
def chern_cases(draw):
    """(d, Chern data, n_max): fractional class numbers, or for d = 3
    c3 = c1c2, so that <c3 - c1c2> = 0 and the DT vertical series is 1."""
    d = draw(st.integers(1, 3))
    if d == 3 and draw(st.booleans()):
        a, b = draw(coeffs), draw(coeffs)
        chern = parse_chern_arg(3, "c3=%s,c1c2=%s,c1^3=%s" % (a, a, b))
    else:
        chern = chern_data_from_classes(d, _class_numbers(draw, d))
    return d, chern, draw(st.integers(0, 4))


@examples
@given(data=st.data(), case=chern_cases())
def test_gamma_series_is_built_as_validated(data, case):
    d, chern, n_max = case
    e = data.draw(closed_forms(d, n_max, n_max - 1 + d).filter(
        lambda e: e.variant == "sep"))
    series, _ = gamma_integral_series(e, chern, n_max)
    assert_as_validated(series)


@examples
@given(data=st.data(), case=chern_cases(),
       path=st.sampled_from(("pair", "exp")))
def test_vertical_series_is_built_as_validated(data, case, path):
    d, chern, n_max = case
    e = data.draw(closed_forms(d, n_max, n_max - 1 + d).filter(
        lambda e: e.variant == "sep"))
    assert_as_validated(vertical_series(e, chern, n_max, path=path))


@pytest.mark.parametrize("path", ("pair", "exp"))
def test_vertex_series_at_c3_equal_to_c1c2_is_one(path):
    # <c3 - c1c2> = 0, so M(-T)^0 = 1: every b_n past n = 0 is 0 and no
    # term of T^n, n >= 1, is stored
    chern = parse_chern_arg(3, "c3=4/3,c1c2=4/3,c1^3=-7/2")
    s = vertical_series(dt_vertex_theory(6, 8), chern, 6, path=path)
    assert_as_validated(s)
    assert s.terms == {(0,): 1}
