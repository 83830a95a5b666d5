import itertools
import random
import re
from fractions import Fraction as F
from math import comb, factorial

import pytest

from punctual.genfun import (gamma_integral_series, verify_identity,
                             vertical_series)
from punctual.hopf import ContextMismatchError, HopfElement, vertical_element
from punctual.series import MultiSeries, macmahon_series
from punctual.symfunc import ChernData
from punctual.theories import (CapError, Theory, ck_theory,
                               coarse_curve_theory, dt_vertex_theory,
                               ek_theory, eval_theory, inertial_theory,
                               mult_class_theory, table_theory, theory_exp,
                               theory_from_spec, theory_log)

import oracles


def q(d, n, m):
    return HopfElement.generator(d, n, m)


def p(d, n, m):
    return HopfElement.generator(d, n, m, basis="p")


def test_ck_values():
    e = ck_theory(2, 2, 4, 6)
    for n in range(1, 5):
        for m in ((0, 0), (3, 1), (4, 4), (6, 2)):
            expected = F(1, factorial(n)) * comb(2 * n, m[0]) * comb(2 * n, m[1])
            assert e.value(n, m) == expected
    assert e.value(0, (0, 0)) == 1
    assert e.value(0, (1, 0)) == 0


def test_ck_matches_generic_class_construction():
    one = MultiSeries.one(("x",), (5,))
    x = MultiSeries.var(("x",), (5,), "x")
    generic = mult_class_theory((one + x) ** 3, 1, 4, 5)
    builtin = ck_theory(3, 1, 4, 5)
    for n in range(1, 5):
        for m in range(6):
            assert generic.value(n, (m,)) == builtin.value(n, (m,))


def test_mult_class_needs_unit():
    x = MultiSeries.var(("x",), (3,), "x")
    with pytest.raises(ValueError):
        mult_class_theory(x, 1, 3, 3)


def test_ek_values():
    e = ek_theory(2, 1, 4, 8)
    assert e.value(2, (4,)) == F(1, 2)
    assert e.value(2, (3,)) == 0
    assert e.value(3, (6,)) == F(1, 6)
    # stacky Euler class does not factor through a unit class
    e1 = ek_theory(1, 3, 3, 3)
    assert e1.value(2, (2, 2, 2)) == F(1, 2)
    assert e1.value(2, (2, 2, 1)) == 0
    with pytest.raises(ValueError, match="k must be >= 0"):
        ek_theory(-1, 1, 3, 3)


def test_coarse_chern_values():
    e = coarse_curve_theory(1, "chern", 3, 3)
    # prod_{i<=2} (1+iT) = 1 + 3T + 2T^2, divided by 2!
    assert e.value(2, (0,)) == F(1, 2)
    assert e.value(2, (1,)) == F(3, 2)
    assert e.value(2, (2,)) == 1
    assert e.value(2, (3,)) == 0
    e2 = coarse_curve_theory(2, "chern", 2, 4)
    # (1+T)^2 (1+2T)^2 = 1 + 6T + 13T^2 + 12T^3 + 4T^4, over 2
    assert [e2.value(2, (m,)) for m in range(5)] == \
        [F(1, 2), 3, F(13, 2), 6, 2]
    e0 = coarse_curve_theory(0, "chern", 3, 2)
    assert [e0.value(3, (m,)) for m in range(3)] == [F(1, 6), 0, 0]
    with pytest.raises(ValueError, match="k must be >= 0"):
        coarse_curve_theory(-1, "chern", 3, 3)


def test_coarse_euler_values():
    eb = coarse_curve_theory(1, "euler", 6, 6)
    for n in range(1, 7):
        for m in range(7):
            assert eb.value(n, (m,)) == (1 if m == n else 0)
    e3 = coarse_curve_theory(3, "euler", 3, 9)
    assert e3.value(2, (6,)) == 4       # (n!)^(k-1)
    assert e3.value(3, (9,)) == 36
    assert e3.value(2, (5,)) == 0
    with pytest.raises(ValueError, match="k must be >= 0"):
        coarse_curve_theory(-2, "euler", 3, 3)


@pytest.mark.parametrize("call", (
    lambda: HopfElement(1.5, "sep", "q"),
    lambda: HopfElement.generator(1, 2.5, (1,)),
    lambda: HopfElement.nonsep_generator(1, (1.5,)),
    lambda: vertical_element(ChernData(1, {(1,): F(2)}), 2.5),
    lambda: ck_theory(2.5, 1, 3, 3),
    lambda: ck_theory(1, 1, 3, 3).value(1.7, (1,)),
    lambda: macmahon_series(3.9),
    lambda: MultiSeries(("T",), (3.5,)),
    lambda: MultiSeries(("T",), (3,), total_cap=2.5),
    lambda: verify_identity("ck-bivariate", k=1.5, n_max=2),
), ids=("dimension", "multiplicity", "partition", "n-max", "k", "index",
        "macmahon-cap", "cap", "total-cap", "bivariate-k"))
def test_a_non_integer_count_is_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call()


def test_primitive_values_match_composition_oracle():
    # series-log route vs direct alternating-sum over ordered splittings
    eb = coarse_curve_theory(1, "euler", 4, 4)
    ck = ck_theory(2, 2, 3, 4)
    dt = dt_vertex_theory(3, 4)
    for e, idx in ((eb, [(n, (m,)) for n in range(1, 5) for m in range(5)]),
                   (ck, [(2, (2, 1)), (3, (4, 2)), (1, (3, 0))]),
                   (dt, [(2, (2, 2, 2)), (2, (3, 2, 1)), (3, (3, 3, 3))])):
        for n, m in idx:
            assert e.primitive_value(n, m) == oracles.primitive_from_table(
                e.value, n, m)


def test_pairing_on_p_basis_matches_conversion():
    # <e, p_{n,m}> computed as a primitive value must agree with converting
    # p_{n,m} to the q basis and pairing term by term
    e = ck_theory(1, 2, 3, 4)
    for n, m in ((1, (2, 1)), (2, (2, 2)), (3, (3, 1))):
        direct = e.pair(p(2, n, m))
        via_q = e.pair(p(2, n, m).to_q())
        assert direct == via_q == e.primitive_value(n, m)


def test_log_ebar():
    lg = theory_log(coarse_curve_theory(1, "euler", 6, 6))
    for n in range(1, 7):
        assert lg.value(n, (n,)) == F(1, n)
        assert lg.value(n, (n - 1,)) == 0
    # primitive theories kill products and the unit
    x = q(1, 1, (1,)) * q(1, 1, (1,))
    assert lg.pair(x) == 0
    assert lg.pair(HopfElement.unit(1)) == 0


def test_log_stacky_euler():
    lg = theory_log(ek_theory(1, 1, 5, 5))
    assert lg.value(1, (1,)) == 1
    for n in range(2, 6):
        assert lg.value(n, (n,)) == 0


def test_exp_log_roundtrip():
    e = ck_theory(2, 1, 4, 4)
    back = theory_exp(theory_log(e))
    for n in range(1, 5):
        for m in range(5):
            assert back.value(n, (m,)) == e.value(n, (m,))


def test_log_and_exp_refuse_the_other_kind():
    e = ck_theory(2, 1, 3, 3)
    for f, x, message in (
            (theory_log, theory_log(e),
             "theory_log expects a multiplicative theory"),
            (theory_exp, e, "theory_exp expects a primitive theory")):
        with pytest.raises(ValueError) as err:
            f(x)
        assert type(err.value) is ValueError
        assert str(err.value) == message


def test_pairing_rules():
    eb = coarse_curve_theory(1, "euler", 3, 3)
    combo = q(1, 2, (2,)) - q(1, 1, (0,)) * q(1, 1, (2,)) \
        - F(1, 2) * q(1, 1, (1,)) * q(1, 1, (1,))
    assert eval_theory(eb, combo) == F(1, 2)
    assert eval_theory(eb, HopfElement.unit(1)) == 1
    assert eval_theory(eb, p(1, 2, (2,))) == F(1, 2)


def test_inertial_primitives():
    u = MultiSeries.var(("U",), (2,), "U")
    P = 1 + 2 * u + F(1, 3) * u * u
    e = inertial_theory(P, 2, 4, 6)
    assert e.primitive_value(2, (2, 1)) == F(1, 2) * 2      # t1 t0 / 2
    assert e.primitive_value(2, (3, 2)) == F(1, 2) * F(1, 3) * 2
    assert e.primitive_value(2, (0, 1)) == 0                # m_i < n-1
    assert e.primitive_value(3, (2, 2)) == F(1, 3)          # t0 t0 / 3
    assert e.primitive_value(2, (5, 2)) == 0                # beyond deg P
    with pytest.raises(ValueError):
        inertial_theory(u, 1, 2, 2)


def test_dt_vertex_frozen_values():
    dt = dt_vertex_theory(6, 8)
    assert dt.value(1, (1, 1, 1)) == 2
    assert dt.value(1, (2, 1, 0)) == 1
    assert dt.value(1, (3, 0, 0)) == 0
    for n in range(1, 7):
        a_n = oracles.vertex_log_coeff(n)
        assert dt.primitive_value(n, (n, n, n)) == -2 * a_n
        assert dt.primitive_value(
            n, tuple(sorted((n + 1, n, n - 1), reverse=True))) == -a_n
        # no support off the diagonal band
        assert dt.primitive_value(n, (n + 2, n, n)) == 0


def test_dt_vertex_primitives_match_the_generating_function():
    # every primitive cell against -E'(U) log M(-U1 U2 U3 T) / (U1 U2 U3)
    for n_cap in range(1, 9):
        for m_cap in range(n_cap + 3):
            dt = dt_vertex_theory(n_cap, m_cap)
            want = oracles.dt_vertex_primitive(n_cap, m_cap)
            for cell in itertools.product(range(1, n_cap + 1),
                                          *[range(m_cap + 1)] * 3):
                assert dt.primitive_value(cell[0], cell[1:]) == \
                    want.get(cell, 0), cell


def test_dt_vertex_at_small_caps_reads_the_values_at_ample_caps():
    # truncating to a box of caps commutes with exp, so an m_cap below
    # n_cap - 1 cuts the vertex's support without changing a value
    seen = set()
    for n_cap in range(2, 7):
        ample = dt_vertex_theory(n_cap, n_cap + 2)
        for m_cap in range(n_cap - 1):
            dt = dt_vertex_theory(n_cap, m_cap)
            for n in range(n_cap + 1):
                for m in itertools.product(range(m_cap + 1), repeat=3):
                    for lookup in ("value", "primitive_value"):
                        v = getattr(dt, lookup)(n, m)
                        assert v == getattr(ample, lookup)(n, m), (n, m)
                        seen.add((lookup, bool(v)))
    assert len(seen) == 4


def test_cap_errors():
    e = ck_theory(1, 1, 3, 3)
    with pytest.raises(CapError):
        e.value(4, (0,))
    with pytest.raises(CapError):
        e.value(1, (4,))
    with pytest.raises(ValueError):
        e.value(1, (0, 0))


def test_a_negative_cap_refuses_every_lookup():
    # one rule for every constructor: a negative cap is accepted and every
    # lookup raises CapError
    P = MultiSeries(("x",), (2,), {(0,): 1, (1,): 2, (2,): F(1, 3)})
    builders = {
        "ck": lambda d, n, m: ck_theory(2, d, n, m),
        "ck nonsep": lambda d, n, m: ck_theory(2, d, n, m, variant="nonsep"),
        "class": lambda d, n, m: mult_class_theory(P, d, n, m),
        "class nonsep": lambda d, n, m: mult_class_theory(
            P, d, n, m, variant="nonsep"),
        "ek": lambda d, n, m: ek_theory(1, d, n, m),
        "coarse chern": lambda d, n, m: coarse_curve_theory(2, "chern", n, m),
        "coarse euler": lambda d, n, m: coarse_curve_theory(2, "euler", n, m),
        "inertial": lambda d, n, m: inertial_theory(P, d, n, m),
        "table": lambda d, n, m: table_theory([((1, (1,) * d), 2)], d, n, m),
        "table nonsep": lambda d, n, m: table_theory(
            [((1,) * d, 2)], d, n, m, variant="nonsep"),
        "dt": lambda d, n, m: dt_vertex_theory(n, m),
    }
    for name, build in builders.items():
        for d in ((1,) if name.startswith("coarse") else (3,) if name == "dt"
                  else (1, 2)):
            for n_cap, m_cap in itertools.product(range(-2, 2), repeat=2):
                if min(n_cap, m_cap) >= 0:
                    continue
                e = build(d, n_cap, m_cap)
                lookups = [e.value, e.primitive_value]
                if e.variant == "nonsep":
                    # a nonsep generator q_lam has no n, so only m_cap counts
                    lookups = [lambda n, m: e.nonsep_value(m)] * (m_cap < 0)
                for lookup in lookups:
                    for n in range(3):
                        for m in itertools.product(range(3), repeat=d):
                            with pytest.raises(CapError):
                                lookup(n, m)


def test_class_theories_need_a_series_in_one_variable():
    P = MultiSeries(("x", "y"), (1, 1), {(0, 0): 1, (1, 1): 2})
    for build in (mult_class_theory, inertial_theory):
        with pytest.raises(ValueError,
                           match="^expected a series in one variable$"):
            build(P, 1, 2, 2)
    with pytest.raises(ValueError, match="^expected a series in one variable"):
        mult_class_theory(P, 1, 2, 2, variant="nonsep")


def _count_series_calls(monkeypatch):
    calls = {"log": 0, "exp": 0}
    for name in calls:
        original = getattr(MultiSeries, name)

        def counted(self, _name=name, _original=original):
            calls[_name] += 1
            return _original(self)
        monkeypatch.setattr(MultiSeries, name, counted)
    return calls


def test_derived_side_is_built_once(monkeypatch):
    # the lookups include keys whose derived value is 0: the table
    # F = 1 + T U has log F = sum (-1)^(k+1) (T U)^k / k, so its primitive
    # values vanish off the diagonal, and the generator tables of
    # inertial(1) and of the vertex vanish off a band
    table = table_theory([((1, (1,)), 1)], 1, 4, 4)
    ck = ck_theory(1, 1, 4, 4)
    inertial = inertial_theory(MultiSeries.one(("U",), (2,)), 2, 3, 4)
    dt = dt_vertex_theory(3, 4)
    calls = _count_series_calls(monkeypatch)
    keys = [(n, (m,)) for n in range(1, 5) for m in range(5)]
    for _ in range(2):
        for n, m in keys:
            table.primitive_value(n, m)
    assert table.primitive_value(3, (2,)) == 0
    assert table.primitive_value(3, (3,)) == F(1, 3)
    assert calls == {"log": 1, "exp": 0}
    # a class theory is given its primitive side: c^1 has
    # F = exp(T(1+U)), and its primitive values, 0 for n >= 2, are read
    # without a log
    for _ in range(2):
        for n, m in keys:
            ck.primitive_value(n, m)
    assert ck.primitive_value(3, (2,)) == 0
    assert ck.primitive_value(1, (1,)) == 1
    assert calls == {"log": 1, "exp": 0}
    keys = [(n, (a, b)) for n in range(1, 4) for a in range(5)
            for b in range(a + 1)]
    for _ in range(2):
        for n, m in keys:
            inertial.value(n, m)
    assert inertial.value(3, (1, 0)) == 0
    assert calls == {"log": 1, "exp": 1}
    for _ in range(2):
        assert dt.value(1, (3, 0, 0)) == 0
        assert dt.value(2, (4, 4, 4)) == 0
        assert dt.value(1, (1, 1, 1)) == 2
    assert calls == {"log": 1, "exp": 2}


def test_a_side_not_read_is_not_built(monkeypatch):
    # the gamma integral and the pair route read only the primitive side
    # that class, Euler power and inertial theories are given, so their
    # generator side is never derived
    u = MultiSeries.var(("U",), (3,), "U")
    chern = ChernData(2, {(2,): 3, (1, 1): -1})
    for e in (ck_theory(2, 2, 4, 5), ek_theory(1, 2, 4, 5),
              inertial_theory(1 + 2 * u, 2, 4, 5)):
        calls = _count_series_calls(monkeypatch)
        gamma_integral_series(e, chern, 4)
        vertical_series(e, chern, 4, path="pair")
        assert calls == {"log": 0, "exp": 0}, e
        assert e._gen is None


def test_degree_zero_rows_on_derived_generator_side():
    u = MultiSeries.var(("U",), (2,), "U")
    for e in (dt_vertex_theory(3, 4), inertial_theory(1 + 2 * u, 3, 3, 4)):
        assert e.value(0, (0, 0, 0)) == 1
        assert e.value(0, (1, 0, 0)) == 0
        assert e.value(0, (0, 2, 1)) == 0
        assert e.primitive_value(0, (0, 0, 0)) == 0
        assert e.pair(HopfElement.unit(3)) == 1
        assert e.pair(HopfElement.unit(3, basis="p")) == 1


def test_sep_primitive_theory_pairing():
    lg = theory_log(ck_theory(2, 2, 3, 4))
    a, b = (1, (2, 1)), (1, (1, 0))
    assert lg.value(*a) and lg.value(*b)
    for basis in ("q", "p"):
        def gen(n, m):
            return HopfElement.generator(2, n, m, basis=basis)
        assert lg.pair(HopfElement.unit(2, basis=basis)) == 0
        assert lg.pair(gen(*a) * gen(*b)) == 0
        assert lg.pair(gen(*a) * gen(*a)) == 0
        assert lg.pair(3 * gen(*a) + gen(*a) * gen(*b)) == 3 * lg.value(*a)
        assert lg.pair(gen(*b)) == lg.value(*b)


def test_primitive_theory_vanishes_on_unit():
    e = ck_theory(1, 1, 3, 3)
    unit = HopfElement.unit(1)
    assert e.value(0, (0,)) == e.pair(unit) == 1
    for lg in (theory_log(e),
               table_theory([((1, (1,)), F(2))], 1, 3, 3, kind="primitive")):
        assert lg.value(0, (0,)) == lg.primitive_value(0, (0,)) == 0
        assert lg.pair(unit) == 0


def test_a_primitive_valued_theory_reads_its_series_as_either_side():
    # every value of a primitive or a nonsep theory is primitive, so its
    # one series is both sides, whichever it is given as
    terms = {(1, 1): F(2), (1, 0): F(-1, 3), (2, 2): F(5)}
    for kind, variant in (("primitive", "sep"), ("multiplicative", "nonsep"),
                          ("primitive", "nonsep")):
        series = MultiSeries(("T", "U1"), (1 if variant == "nonsep" else 2, 2),
                             terms)
        gen, prim = (Theory(1, kind, "t", 2, 2, variant=variant,
                            **{side: series})
                     for side in ("gen_fn", "prim_fn"))
        for e in (gen, prim):
            if variant == "nonsep":
                got = [e.nonsep_value((m,)) for m in range(3)]
                assert got == [F(-1, 3), F(2), 0]
            else:
                got = [(e.value(n, (m,)), e.primitive_value(n, (m,)))
                       for n in range(3) for m in range(3)]
                assert got == [(terms.get((n, m), 0),) * 2
                               for n in range(3) for m in range(3)]
    # exactly one side is given, never none or both
    for sides in ({}, {"gen_fn": lambda *key: F(1),
                       "prim_fn": lambda *key: F(1)}):
        with pytest.raises(ValueError, match="exactly one"):
            Theory(1, "multiplicative", "t", 2, 2, **sides)


def test_theory_refuses_a_side_that_is_not_a_series():
    # a side is the series its constructor builds; nothing is tabulated
    for variant, side in (("sep", "gen_fn"), ("sep", "prim_fn"),
                          ("nonsep", "gen_fn")):
        with pytest.raises(ValueError, match="side is a MultiSeries"):
            Theory(1, "multiplicative", "t", 2, 2, variant=variant,
                   **{side: lambda *key: F(1)})
    with pytest.raises(ValueError, match="side is a MultiSeries"):
        Theory(1, "primitive", "t", 2, 2, gen_fn={(1, 1): F(1)})


def test_theory_refuses_a_side_outside_its_frame():
    # a series in T, U1 lacks the U2 of a d = 2 theory; its caps (2, 2)
    # are not a theory's (5, 5); a total cap; a nonsep series has T at 1
    series = MultiSeries(("T", "U1"), (2, 2), {(0, 0): 1, (1, 1): 3})
    for d, n_cap, m_cap, variant, side, frame in (
            (2, 2, 2, "sep", series, "(('T', 'U1', 'U2'), (2, 2, 2), None)"),
            (1, 5, 5, "sep", series, "(('T', 'U1'), (5, 5), None)"),
            (1, 2, 2, "sep", MultiSeries(("T", "U1"), (2, 2), series.terms,
                                         total_cap=3),
             "(('T', 'U1'), (2, 2), None), got (('T', 'U1'), (2, 2), 3)"),
            (1, 2, 2, "nonsep", series, "(('T', 'U1'), (1, 2), None)")):
        for given in ("gen_fn", "prim_fn"):
            with pytest.raises(ValueError, match=re.escape(frame)):
                Theory(d, "multiplicative", "t", n_cap, m_cap,
                       variant=variant, **{given: side})


def test_theory_prints_its_label_and_context():
    assert (repr(ck_theory(2, 1, 2, 2))
            == "Theory(c^2, d=1, multiplicative, sep)")


def test_nonsep_class_theory_is_the_sep_rule_at_n_1():
    x = MultiSeries.var(("x",), (4,), "x")
    one = MultiSeries.one(("x",), (4,))
    for P in (one + x, one + 2 * x + x * x, one - x + F(1, 3) * x * x * x):
        for d in (1, 2, 3):
            sep = mult_class_theory(P, d, 2, 4)
            nonsep = mult_class_theory(P, d, 2, 4, variant="nonsep")
            for lam in itertools.product(range(5), repeat=d):
                assert nonsep.nonsep_value(lam) == sep.value(1, lam)


def test_nonsep_class_theories_ignore_n_cap():
    # a nonsep generator q_lam sits at T^1 whatever n_cap bounds
    x = MultiSeries.var(("x",), (3,), "x")
    P = MultiSeries.one(("x",), (3,)) - x + F(1, 2) * x * x * x
    for d in (1, 2):
        for make in (lambda n_cap: ck_theory(2, d, n_cap, 3, variant="nonsep"),
                     lambda n_cap: mult_class_theory(P, d, n_cap, 3,
                                                     variant="nonsep")):
            ref = make(2)
            assert ref.nonsep_value((1,) * d)
            for n_cap in (-1, 0):
                e = make(n_cap)
                for lam in itertools.product(range(4), repeat=d):
                    assert e.nonsep_value(lam) == ref.nonsep_value(lam), lam


def test_nonsep_theories():
    e = ck_theory(1, 2, 3, 2, variant="nonsep")
    assert e.nonsep_value((1, 1)) == 1
    assert e.nonsep_value((2, 0)) == 0
    assert e.nonsep_value((0, 0)) == 1
    x = HopfElement.nonsep_generator(2, (1, 1))
    assert eval_theory(e, x * x) == 1
    lg = theory_log(e)
    assert lg.pair(x * x) == 0
    assert lg.pair(x) == 1
    with pytest.raises(Exception):
        e.value(1, (1, 1))
    assert e.nonsep_value((2, 2)) == 0
    with pytest.raises(CapError):
        e.nonsep_value((3, 0))
    with pytest.raises(CapError):
        e.nonsep_value((1, 3))
    with pytest.raises(ValueError, match="negative part"):
        e.nonsep_value((1, -1))


def test_table_theory_and_spec():
    e = table_theory([((1, (1,)), F(2)), ((2, (2,)), F(5, 3))], 1, 3, 3)
    assert e.value(1, (1,)) == 2
    assert e.value(2, (2,)) == F(5, 3)
    assert e.value(3, (3,)) == 0

    spec = {"table": [{"n": 1, "m": [1], "value": "2/1"},
                      {"n": 2, "m": [2], "value": "5/3"}]}
    e2 = theory_from_spec(spec, 1, 3, 3)
    assert e2.value(2, (2,)) == F(5, 3)

    e3 = theory_from_spec({"builtin": "ck", "k": 2}, 1, 3, 3)
    assert e3.value(1, (1,)) == 2
    e4 = theory_from_spec({"builtin": "coarse-ek", "k": 1}, 1, 3, 3)
    assert e4.value(2, (2,)) == 1
    # entries beyond the caps are accepted and never read
    e6 = table_theory([((1, (1,)), F(2)), ((9, (9,)), F(1))], 1, 2, 2)
    assert e6.value(1, (1,)) == 2
    for entries, message in (([((1, (1, 0)), F(3))], "length 2, expected 1"),
                             ([((1, (-1,)), F(3))], "negative"),
                             ([((-1, (1,)), F(3))], "negative"),
                             ([((0, (1,)), F(3))], "must be >= 1"),
                             ([((0, (0,)), F(3))], "must be >= 1")):
        with pytest.raises(ValueError, match=message):
            table_theory(entries, 1, 3, 3)
    with pytest.raises(ValueError, match="table row 1 has no 'value' key"):
        theory_from_spec({"table": [{"n": 1, "m": [1]}]}, 1, 3, 3)
    for row, message in (
            ({"n": 1, "m": 5}, "table row 1: 'm' must be a list of integers"),
            ({"n": 1, "m": [1.5]}, "'m' must be a list of integers"),
            ({"n": "2", "m": [1]}, "table row 1: 'n' must be an integer"),
            ({"n": 1.0, "m": [1]}, "'n' must be an integer")):
        with pytest.raises(ValueError, match=message):
            theory_from_spec({"table": [dict(row, value="1")]}, 1, 3, 3)
    with pytest.raises(ValueError, match="table row 2 must be a JSON object"):
        theory_from_spec({"table": [{"n": 1, "m": [1], "value": "1"}, 3]},
                         1, 3, 3)
    e5 = theory_from_spec({"mult_class": ["1", "1", "1/2"]}, 1, 3, 4)
    assert e5.value(1, (2,)) == F(1, 2)
    with pytest.raises(ValueError):
        theory_from_spec({"builtin": "coarse-ck"}, 2, 3, 3)
    with pytest.raises(ValueError):
        theory_from_spec({"builtin": "dt"}, 1, 3, 3)
    with pytest.raises(ValueError):
        theory_from_spec({"builtin": "unknown"}, 1, 3, 3)
    for spec, message in (
            ({"builtin": "ck", "kk": 3}, "'ck' does not take option 'kk'"),
            ({"builtin": "dt", "k": 3}, "'dt' does not take option 'k'"),
            ({"table": [], "label": "x"}, "table theory does not take "
                                          "option 'label'"),
            ({"builtin": "ek", "mult_class": ["1"]},
             "'ek' does not take option 'mult_class'"),
            ([1, 2], "unrecognized theory description")):
        with pytest.raises(ValueError, match=message):
            theory_from_spec(spec, 3, 3, 3)


def test_context_checks():
    e = ck_theory(1, 2, 3, 3)
    with pytest.raises(Exception):
        eval_theory(e, q(1, 1, (1,)))          # wrong d
    nonsep = HopfElement.nonsep_generator(2, (1, 1))
    with pytest.raises(Exception):
        eval_theory(e, nonsep)                  # wrong variant


ONE = MultiSeries.one(("T", "U1"), (2, 2))


@pytest.mark.parametrize("call, error, message", (
    (lambda: Theory(1, "x", "t", 2, 2, gen_fn=ONE), ValueError,
     "kind must be multiplicative or primitive"),
    (lambda: Theory(1, "multiplicative", "t", 2, 2, variant="x", gen_fn=ONE),
     ValueError, "variant must be 'sep' or 'nonsep'"),
    (lambda: ck_theory(1, 1, 3, 3).nonsep_value((1,)), ContextMismatchError,
     "c^1 is a sep theory"),
    (lambda: coarse_curve_theory(1, "x", 3, 3), ValueError,
     "kind must be 'chern' or 'euler'"),
    (lambda: ck_theory(1, 1, 3, 3).value(-1, (0,)), ValueError,
     "negative entry in generator index"),
), ids=("kind", "variant", "nonsep-value", "coarse-kind", "negative-index"))
def test_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


UNIT_CLASS = MultiSeries(("x",), (3,), {(0,): 1, (1,): 2})


@pytest.mark.parametrize("call", (
    lambda: ck_theory(1, -1, 3, 3),
    lambda: ek_theory(1, -1, 3, 3),
    lambda: mult_class_theory(UNIT_CLASS, -1, 3, 3),
    lambda: inertial_theory(UNIT_CLASS, -1, 3, 3),
    lambda: table_theory([], -1, 3, 3),
    lambda: Theory(-1, "multiplicative", "x", 3, 3,
                   prim_fn=MultiSeries(("T",), (3,), {})),
), ids=("ck", "ek", "class", "inertial", "table", "theory"))
def test_a_negative_dimension_is_refused_in_its_own_words(call):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == "dimension must be >= 0"


def test_random_table_exp_log_consistency():
    # a lazily derived primitive table always exponentiates back to the
    # generator table it came from
    rng = random.Random(41)
    entries = []
    for n in range(1, 4):
        for m in range(4):
            v = F(rng.randint(-3, 3), rng.randint(1, 3))
            if v:
                entries.append(((n, (m,)), v))
    e = table_theory(entries, 1, 3, 3)
    back = theory_exp(theory_log(e))
    for n in range(1, 4):
        for m in range(4):
            assert back.value(n, (m,)) == e.value(n, (m,))
