"""gamma_integral_series against oracles.gamma_route, as a Hypothesis
property.

The reference tabulates the theory's generator values up to (n_max,
n_max - 1 + d), takes the naive log of 1 + that table, lists the terms
with an uncancelled pole and pairs the rest against the Chern numbers.
The library must agree on the series, on the report, on the offenders of
a PoleCancellationError and on the type and message of a CapError, for
table, ck, multiplicative class, Euler power, coarse, inertial and vertex
theories whose caps are equal to, larger than or smaller than the
request, n_max = 0 included, and for ck, multiplicative class and coarse
theories with m_cap = -1.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from punctual.genfun import PoleCancellationError, gamma_integral_series
from punctual.series import MultiSeries
from punctual.symfunc import ChernData
from punctual.theories import (CapError, ck_theory, coarse_curve_theory,
                               dt_vertex_theory, ek_theory, inertial_theory,
                               mult_class_theory, table_theory)

import oracles

# few small examples, the same ones every run
examples = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

coeffs = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                   st.integers(1, 3))

PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}


def _unit_class(draw):
    t = [Fraction(1)] + draw(st.lists(coeffs, max_size=2))
    return MultiSeries(("x",), (len(t),), dict(((j,), c)
                                              for j, c in enumerate(t)))


@st.composite
def gamma_cases(draw, form):
    """(theory of the given form, d, n_max), each of the theory's caps
    one below, at or one above the request (n_max, n_max - 1 + d)."""
    d = {"coarse": 1, "dt": 3}.get(form) or draw(st.integers(1, 2))
    n_max = draw(st.sampled_from((2, 1, 0) if d == 3 else (2, 3, 1, 0)))
    offset = st.sampled_from((0, 1, -1))
    n_cap = n_max + draw(offset)
    m_cap = n_max - 1 + d + draw(offset)
    if form == "dt":
        # the vertex takes any caps, so its m_cap also runs below n_cap - 1
        m_cap = draw(st.integers(-1, m_cap))
    if form == "table":
        # small m at n >= 2 leaves poles
        keys = st.tuples(st.integers(1, max(n_cap, 0) + 1), st.lists(
            st.integers(0, max(m_cap, 0) + 1) | st.just(0), min_size=d,
            max_size=d).map(tuple))
        entries = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=5))
        e = table_theory(entries.items(), d, n_cap, m_cap)
    elif form == "ck":
        e = ck_theory(draw(st.integers(0, 2)), d, n_cap, m_cap)
    elif form == "mult_class":
        e = mult_class_theory(_unit_class(draw), d, n_cap, m_cap)
    elif form == "ek":
        e = ek_theory(draw(st.integers(0, 2)), d, n_cap, m_cap)
    elif form == "coarse":
        e = coarse_curve_theory(draw(st.integers(0, 2)),
                                draw(st.sampled_from(("chern", "euler"))),
                                n_cap, m_cap)
    elif form == "inertial":
        e = inertial_theory(_unit_class(draw), d, n_cap, m_cap)
    else:
        e = dt_vertex_theory(n_cap, m_cap)
    return e, d, n_max


def _check_against_the_table_route(e, d, numbers, n_max):
    """Check gamma_integral_series of e against oracles.gamma_route; returns
    which outcome both gave: "cap", "pole" or "series"."""
    chern = ChernData(d, numbers)
    try:
        offenders, series, report = oracles.gamma_route(e.value, d, numbers,
                                                         n_max)
    except CapError as exc:
        with pytest.raises(CapError) as got:
            gamma_integral_series(e, chern, n_max)
        assert type(got.value) is CapError
        assert str(got.value) == str(exc)
        return "cap"
    if offenders:
        with pytest.raises(PoleCancellationError) as got:
            gamma_integral_series(e, chern, n_max)
        assert got.value.offenders == tuple(offenders)
        return "pole"
    s, r = gamma_integral_series(e, chern, n_max)
    assert (s.variables, s.caps, s.terms) == (("T",), (n_max,), series)
    assert (r.n_max, r.gamma_cap, r.terms_checked) == report
    return "series"


@pytest.mark.parametrize("form", ("table", "ck", "mult_class", "ek",
                                  "coarse", "inertial", "dt"))
@examples
@given(data=st.data())
def test_gamma_matches_the_table_route(form, data):
    e, d, n_max = data.draw(gamma_cases(form))
    numbers = {lam: data.draw(st.sampled_from((0, 1, -2, Fraction(3, 2))))
               for lam in PARTITIONS[d]}
    _check_against_the_table_route(e, d, numbers, n_max)


@pytest.mark.parametrize("n_max", (0, 1))
@pytest.mark.parametrize("make", (
    lambda n_cap: ck_theory(2, 1, n_cap, -1),
    lambda n_cap: mult_class_theory(MultiSeries(("x",), (3,), {
        (0,): 1, (1,): Fraction(-2, 3), (2,): 3}), 1, n_cap, -1),
    lambda n_cap: coarse_curve_theory(2, "chern", n_cap, -1),
    lambda n_cap: coarse_curve_theory(2, "euler", n_cap, -1),
), ids=("ck", "mult_class", "coarse-chern", "coarse-euler"))
def test_a_negative_m_cap_matches_the_table_route(make, n_max):
    # gamma_cases, at its 25 examples, draws no negative m_cap for these
    # forms; n_max = 1 reads (1, (0,)), past the cap, and n_max = 0 nothing
    outcome = _check_against_the_table_route(
        make(n_max), 1, {(1,): Fraction(3, 2)}, n_max)
    assert outcome == ("cap" if n_max else "series")
