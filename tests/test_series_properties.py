"""exp, log, products and rational powers of MultiSeries as Hypothesis
properties, against each other and against the naive oracles, over small
series in 1-4 variables with per-variable caps, an optional total cap,
terms on the cap edges and coefficients with mixed denominators."""

from fractions import Fraction
from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from punctual.series import MultiSeries

import oracles

examples = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

# mixed denominators, so the lcm of a series' denominators is usually > 1
coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                   st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9)))


@st.composite
def frames(draw):
    """(variables, caps, total_cap); at most 216 exponent cells, so the
    naive oracles stay cheap."""
    nvars = draw(st.integers(1, 4))
    caps = tuple(draw(st.lists(st.integers(0, 5), min_size=nvars,
                               max_size=nvars)
                      .filter(lambda cs: prod(c + 1 for c in cs) <= 216)))
    total_cap = draw(st.none() | st.sampled_from(range(sum(caps) + 1)))
    return tuple("abcd"[:nvars]), caps, total_cap


def exponents(caps):
    # each entry is 0, at its cap or in between, so products hit the edges
    return st.tuples(*(st.sampled_from((0, c)) | st.integers(0, c)
                       for c in caps))


def series(frame, constant):
    """Series on frame with the given constant term and a few other terms."""
    variables, caps, total_cap = frame
    zero = (0,) * len(caps)
    return st.dictionaries(exponents(caps).filter(any), coeffs,
                           min_size=2, max_size=5).map(
        lambda terms: MultiSeries(variables, caps, {**terms, zero: constant},
                                  total_cap))


def within_total(terms, total_cap):
    """An oracle result truncated by total degree."""
    return {e: c for e, c in terms.items()
            if total_cap is None or sum(e) <= total_cap}


@st.composite
def units(draw, count=1):
    """count series with constant term 1 on one random frame."""
    frame = draw(frames())
    return [draw(series(frame, 1)) for _ in range(count)]


@examples
@given(fs=units(2))
def test_log_and_exp_match_naive_oracles(fs):
    f, g = fs
    caps, total_cap = f.caps, f.total_cap
    assert f.log().terms == within_total(oracles.poly_log(f.terms, caps),
                                         total_cap)
    h = g - 1
    assert h.exp().terms == within_total(oracles.poly_exp(h.terms, caps),
                                         total_cap)


@examples
@given(fs=units(2))
def test_product_matches_naive_oracle(fs):
    f, g = fs
    assert (f * g).terms == within_total(oracles.poly_mul(f.terms, g.terms,
                                                          f.caps),
                                         f.total_cap)


@examples
@given(fs=units())
def test_exp_inverts_log(fs):
    f, = fs
    assert f.log().exp() == f
    assert (f - 1).exp().log() == f - 1


@examples
@given(fs=units(2))
def test_log_of_product_is_sum_of_logs(fs):
    f, g = fs
    assert (f * g).log() == f.log() + g.log()


@examples
@given(fs=units(), r=coeffs, s=coeffs)
def test_power_is_additive_in_exponent(fs, r, s):
    f, = fs
    assert f.pow(r + s) == f.pow(r) * f.pow(s)
