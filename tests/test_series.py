import json
import operator
import random
from fractions import Fraction as F

import pytest

from punctual.hopf import HopfElement
from punctual.series import MultiSeries, _macmahon_log, macmahon_series

import oracles


def ts(cap):
    return ("T",), (cap,)


def test_truncation_on_construction():
    s = MultiSeries(("T", "U"), (2, 1), {(1, 0): F(1), (3, 0): F(5),
                                         (2, 1): F(2), (0, 2): F(7)})
    assert s.terms == {(1, 0): F(1), (2, 1): F(2)}


def test_total_cap():
    s = MultiSeries(("T", "U"), (3, 3), {(2, 2): F(1), (1, 1): F(1)},
                    total_cap=3)
    assert s.terms == {(1, 1): F(1)}
    # product respects the declared total cap
    assert (s * s).is_zero()


def test_zero_coefficients_dropped():
    s = MultiSeries(("T",), (4,), {(1,): F(1), (2,): F(0)})
    assert (2,) not in s.terms
    assert (s - s).is_zero()


def test_addition_and_scalar():
    v, c = ts(4)
    t = MultiSeries.var(v, c, "T")
    s = 1 + 2 * t - t * t
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 2
    assert s.coefficient((2,)) == -1


def test_mismatched_frames_rejected():
    a = MultiSeries.one(("T",), (3,))
    b = MultiSeries.one(("T",), (4,))
    with pytest.raises(ValueError):
        a + b
    assert a != b


def test_an_operand_that_is_not_a_series_is_refused_by_its_type():
    # a float or a Hopf element is neither a scalar nor a series (a float
    # on either side of the operator)
    s = MultiSeries.one(("T",), (3,))
    x = HopfElement.generator(1, 1, (0,))
    for a, b in ((s, 0.5), (0.5, s), (s, x)):
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(TypeError) as err:
                op(a, b)
            other = b if a is s else a
            assert str(err.value) == "not a MultiSeries: %s" % (
                type(other).__name__)


@pytest.mark.parametrize("args, kwargs, message", (
    ((("T", "U"), (3,)), {}, "need one cap per variable"),
    ((("T", "U"), (3, -1)), {}, "caps must be >= 0"),
    ((("T",), (3,)), {"total_cap": -1}, "total cap must be >= 0"),
    ((("T", "U"), (3, 3), {(1,): 1}), {}, "exponent vector of wrong length"),
    ((("T", "U"), (3, 3), {(1, -1): 1}), {}, "negative exponent"),
), ids=("caps", "cap", "total-cap", "length", "exponent"))
def test_constructor_refusals(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        MultiSeries(*args, **kwargs)
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", (
    (lambda: MultiSeries.one(*ts(3)) ** -1,
     "negative integer power, use pow() with a Fraction"),
    (lambda: macmahon_series(-1), "cap must be >= 0"),
), ids=("power", "macmahon-cap"))
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_pow_int():
    v, c = ts(5)
    t = MultiSeries.var(v, c, "T")
    s = (1 + t) ** 5
    assert [s.coefficient((j,)) for j in range(6)] == [1, 5, 10, 10, 5, 1]


def test_exp_example():
    v, c = ts(3)
    t = MultiSeries.var(v, c, "T")
    e = (t + t * t).exp()
    assert e.terms == {(0,): F(1), (1,): F(1), (2,): F(3, 2), (3,): F(7, 6)}


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        MultiSeries.one(("T",), (3,)).exp()


def test_log_rejects_wrong_constant():
    v, c = ts(3)
    with pytest.raises(ValueError):
        (2 * MultiSeries.one(v, c)).log()
    with pytest.raises(ValueError):
        MultiSeries.var(v, c, "T").log()


def test_log_exp_inverse_random():
    rng = random.Random(11)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        caps = tuple(rng.randint(1, 3) for _ in range(nvars))
        variables = tuple("abc"[:nvars])
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, c) for c in caps)
            if any(e):
                terms[e] = F(rng.randint(-4, 4), rng.randint(1, 3))
        f = MultiSeries(variables, caps, terms)
        assert f.exp().log() == f
        g = f + 1
        if g.constant_term() == 1:
            assert g.log().exp() == g


def test_exp_log_match_naive_oracle():
    rng = random.Random(5)
    for _ in range(8):
        caps = (3, 2)
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 2))
            if any(e):
                terms[e] = F(rng.randint(-3, 3), rng.randint(1, 4))
        f = MultiSeries(("T", "U"), caps, terms)
        assert f.exp().terms == oracles.poly_exp(f.terms, caps)
        g = f + 1
        if g.constant_term() == 1:
            assert g.log().terms == oracles.poly_log(g.terms, caps)


def test_pow_additive_in_exponent():
    v, c = ts(5)
    t = MultiSeries.var(v, c, "T")
    f = 1 + t + 3 * t * t
    a, b = F(2, 3), F(-7, 2)
    assert f.pow(a) * f.pow(b) == f.pow(a + b)
    assert f.pow(F(3)) == f ** 3
    assert f.pow(F(-1)) * f == MultiSeries.one(v, c)


def test_macmahon_series():
    m = macmahon_series(6)
    assert [m.coefficient((n,)) for n in range(7)] == [1, 1, 3, 6, 13, 24, 48]
    for cap in range(21):
        assert macmahon_series(cap).terms == {
            (n,): c for n, c in enumerate(oracles.macmahon_product(cap))}


def test_macmahon_log_is_sigma2_over_n():
    lg = macmahon_series(6).log()
    for n in range(1, 7):
        assert lg.coefficient((n,)) == F(oracles.sigma2(n), n)


def test_macmahon_negated_power():
    want = oracles.macmahon_neg_power(1, 6)
    assert want == [1, -1, 3, -6, 13, -24, 48]
    assert [_macmahon_log(6, -1).exp().coefficient((n,))
            for n in range(7)] == want
    mneg = MultiSeries(("T",), (6,), {(n,): c for n, c in enumerate(want)})
    # M(-T)^a as exp(a log M(-T)), the right side of dt-degree-zero, and
    # through pow
    for s in ((_macmahon_log(6, -1) * -20).exp(), mneg.pow(F(-20))):
        assert [s.coefficient((n,)) for n in range(3)] == [1, 20, 150]
        assert [s.coefficient((n,)) for n in range(7)] == \
            oracles.macmahon_neg_power(-20, 6)


def test_serialization_roundtrip():
    s = MultiSeries(("T", "U"), (3, 2), {(1, 0): F(2, 3), (2, 2): F(-5)})
    obj = s.to_obj()
    assert obj["terms"][0]["coeff"] == "2/3"
    assert MultiSeries.from_obj(obj) == s
    # survives a JSON round trip too
    assert MultiSeries.from_obj(json.loads(json.dumps(obj))) == s


def test_sorted_terms_graded_lex():
    s = MultiSeries(("T", "U"), (2, 2), {(2, 0): F(1), (0, 1): F(1),
                                         (1, 1): F(1), (1, 0): F(1)})
    assert [e for e, _ in s.sorted_terms()] == [(0, 1), (1, 0), (1, 1), (2, 0)]


def test_pretty():
    v, c = ts(2)
    t = MultiSeries.var(v, c, "T")
    assert (1 + 3 * t).pretty() == "1/1 + 3/1*T"
    assert MultiSeries.zero(v, c).pretty() == "0"
    assert (t * t * F(-1, 2)).pretty() == "-1/2*T^2"


def test_scalars_subtract_compare_and_print():
    s = MultiSeries(("T",), (3,), {(1,): F(1, 2)})
    assert (3 - s).terms == {(1,): F(-1, 2), (0,): 3}
    assert 3 - s == -(s - 3)
    assert not (s == 3) and s != "s"
    assert repr(s) == "MultiSeries(('T',), 1 terms)"


def test_constructor_cancels_two_spellings_of_one_exponent():
    # ("1",) reads as the exponent (1,), whose coefficient then sums to 0
    s = MultiSeries(("T",), (3,), {(1,): F(1, 2), ("1",): F(-1, 2),
                                   (2,): 1})
    assert s.terms == {(2,): 1}


@pytest.mark.parametrize("exps", ((1.5,), (F(3, 2),), (1, 0.5)),
                         ids=("float", "fraction", "second-entry"))
def test_a_non_integer_exponent_is_refused_not_truncated(exps):
    with pytest.raises(TypeError, match="non-integer entry"):
        MultiSeries(("T", "U")[:len(exps)], (3,) * len(exps), {exps: 1})


def test_integral_exponents_of_any_type_keep_their_value():
    s = MultiSeries(("T", "U"), (3, 3), {(2.0, F(1)): 1, ("1", "0"): 2,
                                         "03": 3, (True, 2): 4})
    assert s.terms == {(2, 1): 1, (1, 0): 2, (0, 3): 3, (1, 2): 4}
