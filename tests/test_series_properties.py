"""exp, log, products and rational powers of MultiSeries as Hypothesis
properties, against each other and against the naive oracles, over small
series in 1-4 variables with per-variable caps, an optional total cap,
terms on the cap edges and coefficients with mixed denominators.  The
constructor and genfun._chern_paired, which build every series the
vertical and gamma routes return, are checked against plain references:
raw term maps with spelled exponents, repeats and cells past the caps, and
Chern data with zero numbers paired against values with mixed
denominators.  chern_class_integral and nonsep_vertical_series, which read
the T^1 coefficient of _chern_paired, are checked against the Fraction
loops they replaced."""

from fractions import Fraction
from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from punctual.combinat import pad_partition
from punctual.genfun import (_chern_paired, chern_class_integral,
                             nonsep_vertical_series)
from punctual.series import MultiSeries
from punctual.symfunc import ChernData
from punctual.theories import ck_theory, mult_class_theory, table_theory

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


# -- the constructor ---------------------------------------------------------

class Half(Fraction):
    """A Fraction subclass: the constructor must store a plain Fraction."""


raw_coeffs = (st.integers(-3, 3) | st.booleans() | coeffs
              | coeffs.map(lambda c: Half(c.numerator, c.denominator))
              | coeffs.map(lambda c: "%d/%d" % (c.numerator, c.denominator)))


def reference_terms(variables, caps, terms, total_cap):
    """The stored terms, summed and checked one raw term at a time."""
    kept = {}
    for exps, coeff in terms.items():
        e = tuple(int(x) for x in exps)
        if len(e) != len(variables):
            raise ValueError("exponent vector of wrong length")
        if any(x < 0 for x in e):
            raise ValueError("negative exponent")
        if any(x > c for x, c in zip(e, caps)) or (
                total_cap is not None and sum(e) > total_cap):
            continue
        kept[e] = kept.get(e, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in kept.items() if c}


@st.composite
def raw_term_maps(draw):
    """(frame, terms): exponents spelled as ints or digit strings, some
    past a per-variable cap or the total cap, and some spelled twice with
    coefficients that sum or cancel."""
    variables, caps, total_cap = frame = draw(frames())
    spell = st.sampled_from((int, str))
    cells = exponents(caps) | st.tuples(*(st.integers(0, c + 2)
                                          for c in caps))
    terms = {}
    for e in draw(st.lists(cells, min_size=1, max_size=8)):
        terms[tuple(draw(spell)(x) for x in e)] = draw(raw_coeffs)
    for e in draw(st.lists(st.sampled_from(sorted(terms, key=repr)),
                           max_size=3)):
        other = tuple(str(x) if type(x) is int else int(x) for x in e)
        c = Fraction(terms[e])
        terms[other] = draw(st.sampled_from((-c, c)) | raw_coeffs)
    return frame, terms


@examples
@given(case=raw_term_maps())
def test_constructor_matches_the_reference(case):
    (variables, caps, total_cap), terms = case
    got = MultiSeries(variables, caps, terms, total_cap).terms
    assert got == reference_terms(variables, caps, terms, total_cap)
    assert all(type(c) is Fraction and c for c in got.values())


@examples
@given(case=raw_term_maps(), data=st.data())
def test_constructor_refuses_a_bad_key_as_the_reference_does(case, data):
    """One key of the wrong length, with a negative entry or both, among
    the drawn terms: the same refusal, whatever comes before it."""
    (variables, caps, total_cap), terms = case
    long, negative = data.draw(st.sampled_from(((1, 0), (0, 1), (1, 1))))
    key = (-negative,) + (0,) * (len(caps) - 1 + long)
    items = list(terms.items())
    items.insert(data.draw(st.integers(0, len(items))), (key, 1))
    terms = dict(items)
    with pytest.raises(ValueError) as got:
        MultiSeries(variables, caps, terms, total_cap)
    with pytest.raises(ValueError) as expected:
        reference_terms(variables, caps, terms, total_cap)
    assert str(got.value) == str(expected.value) == (
        "exponent vector of wrong length" if long else "negative exponent")


# -- genfun._chern_paired ------------------------------------------------------

PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
maybe_zero = st.just(Fraction(0)) | coeffs


def reads(d, n_max):
    """The (n, lam + n - 1) whose values _chern_paired may read."""
    return [(n, tuple(x + n - 1 for x in pad_partition(lam, d)))
            for n in range(1, n_max + 1) for lam in PARTITIONS[d]]


@st.composite
def paired_cases(draw):
    """(chern, n_max, values): Chern data for d <= 3, some of its numbers
    zero, and a value for every (n, lam + n - 1), zeros and mixed
    denominators among them."""
    d = draw(st.integers(1, 3))
    chern = ChernData(d, {lam: draw(maybe_zero) for lam in PARTITIONS[d]})
    n_max = draw(st.integers(0, 5))
    return chern, n_max, {k: draw(maybe_zero) for k in reads(d, n_max)}


@examples
@given(case=paired_cases())
@example(case=(ChernData(2, {}), 3,
               {k: Fraction(k[0], 2) for k in reads(2, 3)}))
def test_chern_paired_is_the_plain_double_sum(case):
    chern, n_max, values = case
    got = _chern_paired(chern, n_max, lambda n, m: values[(n, m)])
    expected = {}
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for lam, w in chern.items():
            total += w * values[(n, tuple(x + n - 1 for x in
                                          pad_partition(lam, chern.d)))]
        if total:
            expected[(n,)] = total
    assert (got.variables, got.caps, got.total_cap) == (("T",), (n_max,),
                                                         None)
    assert got.terms == expected
    assert all(type(c) is Fraction for c in got.terms.values())


# -- the T^1 readers of _chern_paired ------------------------------------------

PARTITIONS_TO_4 = {**PARTITIONS,
                   4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]}


@st.composite
def chern_numbers(draw):
    """Chern data for d <= 4, some or all of its numbers zero."""
    d = draw(st.integers(1, 4))
    return ChernData(d, {lam: draw(maybe_zero) for lam in PARTITIONS_TO_4[d]})


@examples
@given(chern=chern_numbers(),
       t=st.lists(maybe_zero, max_size=5).map(lambda t: [Fraction(1)] + t))
@example(chern=ChernData(3, {}), t=[Fraction(1), Fraction(2)])
@example(chern=ChernData(2, {(2,): 3, (1, 1): 5}), t=[Fraction(1), 0, 0])
def test_chern_class_integral_matches_the_fraction_loop(chern, t):
    # t_0 .. t_cap, zeros among them; a part past the cap reads 0
    P = MultiSeries(("U",), (len(t) - 1,), {(j,): c for j, c in enumerate(t)})
    got = chern_class_integral(P, chern)
    assert type(got) is Fraction
    assert got == oracles.class_integral(
        lambda j: t[j] if j < len(t) else 0, dict(chern.items()))


@st.composite
def nonsep_cases(draw):
    """(values, value function, chern, n_max): nonsep values as a plain
    mapping (keys padded or not) or as a ck, class or table Theory."""
    chern = draw(chern_numbers())
    d = chern.d
    form = draw(st.sampled_from(("mapping", "ck", "class", "table")))
    if form == "ck":
        values = ck_theory(draw(st.integers(0, 3)), d, 1, d, variant="nonsep")
    elif form == "class":
        t = [Fraction(1)] + draw(st.lists(maybe_zero, max_size=d))
        values = mult_class_theory(
            MultiSeries(("x",), (len(t) - 1,), {(j,): c for j, c in
                                                 enumerate(t)}),
            d, 1, d, variant="nonsep")
    else:
        mapping = {pad_partition(lam, d) if draw(st.booleans()) else lam:
                   draw(maybe_zero) for lam in PARTITIONS_TO_4[d]
                   if draw(st.booleans())}
        values = (mapping if form == "mapping" else
                  table_theory(mapping.items(), d, 1, d, variant="nonsep"))
        padded = {pad_partition(lam, d): v for lam, v in mapping.items()}
        return (values, lambda lam: padded.get(lam, 0), chern,
                draw(st.integers(0, 4)))
    return values, values.nonsep_value, chern, draw(st.integers(0, 4))


CK2_D3 = ck_theory(2, 3, 1, 3, variant="nonsep")


@examples
@given(case=nonsep_cases())
@example(case=({}, lambda lam: 0, ChernData(2, {(2,): 3}), 3))
@example(case=({(2,): Fraction(1, 2)}, lambda lam: Fraction(
    1, 2) if lam == (2, 0) else 0, ChernData(2, {(2,): 3}), 2))
@example(case=(CK2_D3, CK2_D3.nonsep_value, ChernData(3, {}), 2))
def test_nonsep_vertical_series_matches_the_fraction_loop(case):
    values, value, chern, n_max = case
    got = nonsep_vertical_series(values, chern, n_max)
    expected = oracles.nonsep_vertical(value, chern.d, dict(chern.items()),
                                       n_max)
    assert (got.variables, got.caps) == (("T",), (n_max,))
    assert got.terms == {k: c for k, c in expected.items() if c}
