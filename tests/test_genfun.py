import random
from fractions import Fraction as F
from functools import partial

import pytest

from punctual.combinat import partitions_of
from punctual.genfun import (PoleCancellationError,
                             chern_class_integral, curve_series,
                             gamma_integral_series, nonsep_vertical_series,
                             paired_primitive_series, verify_identity,
                             vertical_series)
from punctual.hopf import ContextMismatchError, sep_to_nonsep, vertical_element
from punctual.series import MultiSeries
from punctual.symfunc import (ChernData, chern_data_from_classes,
                              parse_chern_arg)
from punctual.theories import (CapError, ck_theory, coarse_curve_theory,
                               dt_vertex_theory, ek_theory, inertial_theory,
                               table_theory)

import oracles


def one_minus_t(cap):
    return MultiSeries.one(("T",), (cap,)) - MultiSeries.var(("T",), (cap,),
                                                             "T")


def exp_ct(c, cap):
    t = MultiSeries.var(("T",), (cap,), "T")
    return (c * t).exp()


def curve_data(chi):
    return ChernData(1, {(1,): F(chi)})


def unit_class(coeffs, cap=None):
    cap = cap if cap is not None else max(len(coeffs) - 1, 1)
    return MultiSeries(("U",), (cap,),
                       {(j,): F(c) for j, c in enumerate(coeffs)})


def test_vertical_euler_closed_form():
    eb = coarse_curve_theory(1, "euler", 6, 6)
    for chi in range(-2, 4):
        assert vertical_series(eb, curve_data(chi), 6) == \
            one_minus_t(6).pow(-chi)


def test_vertical_stacky_euler_closed_form():
    e1 = ek_theory(1, 1, 6, 6)
    for chi in range(-2, 4):
        assert vertical_series(e1, curve_data(chi), 6) == exp_ct(F(chi), 6)


def test_vertical_paths_agree_and_match():
    e = ck_theory(2, 2, 4, 5)
    ch = ChernData(2, {(2,): F(3), (1, 1): F(-2)})
    both = vertical_series(e, ch, 4)
    assert vertical_series(e, ch, 4, path="pair") == both
    assert vertical_series(e, ch, 4, path="exp") == both
    assert both.coefficient((0,)) == 1


P3 = chern_data_from_classes(3, {(1, 1, 1): F(64), (2, 1): F(24),
                                 (3,): F(4)})


@pytest.mark.parametrize("path", ("pair", "both"))
@pytest.mark.parametrize("e, chern, n_max, message", (
    (ck_theory(2, 2, 3, 4), ChernData(2, {(2,): F(3), (1, 1): F(-1)}), 5,
     "index (4, (4, 4)) outside caps (3, 4) of c^2"),
    (dt_vertex_theory(4, 4), P3, 6,
     "index (3, (5, 2, 2)) outside caps (4, 4) of e_DT"),
), ids=("ck", "dt"))
def test_vertical_pair_route_names_the_first_generator_past_the_caps(
        e, chern, n_max, message, path):
    # the generators are read in sorted order, so the error names the
    # least index past the caps
    with pytest.raises(CapError) as err:
        vertical_series(e, chern, n_max, path=path)
    assert type(err.value) is CapError
    assert str(err.value) == message


def test_vertical_refuses_an_unknown_path():
    with pytest.raises(ValueError) as err:
        vertical_series(ck_theory(1, 1, 3, 3), curve_data(1), 3, path="bad")
    assert type(err.value) is ValueError
    assert str(err.value) == "path must be 'both', 'pair' or 'exp'"


@pytest.mark.parametrize("call, error, message", (
    (lambda: verify_identity("dt-degree-zero", chern=ChernData(
        2, {(2,): F(1)}), n_max=2), ContextMismatchError,
     "the vertex identity needs d = 3"),
    (lambda: verify_identity("ck-bivariate", k=-1, n_max=2), ValueError,
     "k must be >= 0"),
    (lambda: vertical_series(ck_theory(1, 1, 3, 3, variant="nonsep"),
                             curve_data(1), 3), ContextMismatchError,
     "expected a sep theory"),
    (lambda: gamma_integral_series(ck_theory(2, 0, 3, 3), None, 3),
     ValueError, "gamma integral needs Chern data, got None"),
    (lambda: gamma_integral_series(ck_theory(2, 1, 3, 3), None, 3),
     ValueError, "gamma integral needs Chern data, got None"),
    (lambda: verify_identity("ck-bivariate", k=2, n_max=2, m_max=-1),
     ValueError, "m_max must be >= 0"),
    (lambda: verify_identity("no-such-identity", n_max=3), ValueError,
     "unknown identity 'no-such-identity'"),
    (lambda: vertical_series(ck_theory(1, 1, 3, 3, variant="nonsep"),
                             curve_data(1), -1), ContextMismatchError,
     "expected a sep theory"),
    (lambda: gamma_integral_series(ck_theory(2, 1, 3, 3), None, -1),
     ValueError, "gamma integral needs Chern data, got None"),
    (lambda: nonsep_vertical_series(ck_theory(1, 2, 3, 2, variant="nonsep"),
                                    curve_data(1), -1), ContextMismatchError,
     "theory is for d=2, Chern data for d=1"),
), ids=("dt-d", "ck-k", "nonsep-theory", "gamma-no-chern-d0",
        "gamma-no-chern-d1", "ck-m-max", "unknown-identity",
        "theory-before-n-max", "chern-before-n-max", "d-before-n-max"))
def test_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


CK = ck_theory(2, 1, 3, 3)
N_MAX_CALLS = {
    "gamma": partial(gamma_integral_series, CK, curve_data(1)),
    "paired": partial(paired_primitive_series, CK, curve_data(1)),
    **{"vertical-" + path: partial(vertical_series, CK, curve_data(1),
                                   path=path)
       for path in ("both", "pair", "exp")},
    "nonsep": partial(nonsep_vertical_series,
                      ck_theory(1, 1, 3, 1, variant="nonsep"), curve_data(1)),
    "curve": partial(curve_series, CK, 1),
    "verify-ck": lambda n: verify_identity("ck-bivariate", k=2, n_max=n),
}


@pytest.mark.parametrize("call", N_MAX_CALLS.values(), ids=N_MAX_CALLS)
def test_every_entry_point_reads_n_max_as_a_count(call):
    assert call(2) is not None
    with pytest.raises(ValueError) as err:
        call(-1)
    assert type(err.value) is ValueError
    assert str(err.value) == "n_max must be >= 0"
    with pytest.raises(TypeError):
        call(2.5)


@pytest.mark.parametrize("path, n_max", (
    ("pair", 12), ("both", 12), ("pair", 24), ("both", 24), ("pair", 40)))
def test_dt_on_p3_matches_the_macmahon_oracle(path, n_max):
    # <c3 - c1 c2, [P^3]> = 4 - 24 = -20
    got = vertical_series(dt_vertex_theory(n_max, n_max + 2), P3, n_max,
                          path=path)
    assert [got.coefficient((n,)) for n in range(n_max + 1)] == \
        oracles.macmahon_neg_power(-20, n_max)


def _refuse(*args, **kwargs):
    raise AssertionError("the other route was called")


def test_pair_route_runs_without_the_exp_route(monkeypatch):
    import punctual.genfun as genfun
    e = dt_vertex_theory(8, 10)
    want = vertical_series(e, P3, 8, path="exp")
    monkeypatch.setattr(MultiSeries, "exp", _refuse)
    monkeypatch.setattr(genfun, "paired_primitive_series", _refuse)
    assert vertical_series(e, P3, 8, path="pair") == want


def test_exp_route_runs_without_the_class_generators(monkeypatch):
    import punctual.genfun as genfun
    e = dt_vertex_theory(8, 10)
    want = vertical_series(e, P3, 8, path="pair")
    monkeypatch.setattr(genfun, "_class_generators", _refuse)
    assert vertical_series(e, P3, 8, path="exp") == want


def test_vertical_requires_multiplicative():
    from punctual.theories import theory_log
    lg = theory_log(coarse_curve_theory(1, "euler", 4, 4))
    with pytest.raises(ValueError):
        vertical_series(lg, curve_data(1), 4)


def test_paired_primitive_series_values():
    eb = coarse_curve_theory(1, "euler", 5, 5)
    s = paired_primitive_series(eb, curve_data(2), 5)
    for n in range(1, 6):
        assert s.coefficient((n,)) == F(2, n)


def test_inertial_power_identity_grid():
    rng = random.Random(17)
    samples = [(F(1), F(1)), (F(2), F(1, 3)), (F(0), F(5)),
               (F(-1, 2), F(2)), (F(3), F(0))]
    for d in (1, 2, 3):
        cherns = []
        for _ in range(3):
            cherns.append(ChernData(d, {lam: F(rng.randint(-4, 4))
                                        for lam in partitions_of(d, d)}))
        for t1, t2 in samples:
            P = unit_class([1, t1, t2])
            e = inertial_theory(P, d, 5, 5 - 1 + d)
            for ch in cherns:
                assert vertical_series(e, ch, 5) == \
                    one_minus_t(5).pow(-chern_class_integral(P, ch))


def test_chern_class_integral_values():
    P = unit_class([1, 2, 5])
    ch = ChernData(2, {(2,): F(3), (1, 1): F(7)})
    # <m_2> t_2 + <m_11> t_1^2
    assert chern_class_integral(P, ch) == 3 * 5 + 7 * 4
    with pytest.raises(ValueError):
        chern_class_integral(unit_class([2, 1]), ch)


def test_dt_formula_three_inputs():
    dt = dt_vertex_theory(6, 8)
    cases = [
        (P3, F(-20)),
        # Calabi-Yau-like: c1 c2 = 0, so the exponent is <c3> = chi
        (chern_data_from_classes(3, {(1, 1, 1): F(0), (2, 1): F(0),
                                     (3,): F(-200)}), F(-200)),
        (ChernData(3, {(1, 1, 1): F(2), (2, 1): F(-3), (3,): F(9)}), F(-1)),
    ]
    for ch, exponent in cases:
        assert -2 * ch.value((1, 1, 1)) - ch.value((2, 1)) == exponent
        got = vertical_series(dt, ch, 6)
        assert [got.coefficient((n,)) for n in range(7)] == \
            oracles.macmahon_neg_power(exponent, 6)


def test_curve_series_examples():
    eb = coarse_curve_theory(1, "euler", 5, 5)
    assert curve_series(eb, F(1), 5) == one_minus_t(5).pow(F(-1))
    e1 = ek_theory(1, 1, 5, 5)
    assert curve_series(e1, F(1), 5) == exp_ct(F(1), 5)
    assert curve_series(e1, F(0), 5) == MultiSeries.one(("T",), (5,))
    with pytest.raises(Exception):
        curve_series(ck_theory(1, 2, 3, 3), F(1), 3)


def test_curve_equals_vertical_for_degree_zero_theories():
    for e in (coarse_curve_theory(1, "euler", 5, 5),
              ek_theory(1, 1, 5, 5),
              inertial_theory(unit_class([1, 1]), 1, 5, 5)):
        for chi in (F(1), F(3), F(-2)):
            assert curve_series(e, chi, 5) == \
                vertical_series(e, curve_data(chi), 5)


def test_curve_vertical_defect_for_c2():
    # the c^2 table exp(T(1+U)^2) has values on both sides of m = n, so the
    # curve specialization genuinely differs from the vertical series
    e = ck_theory(2, 1, 5, 5)
    lhs = curve_series(e, F(2), 5)
    rhs = vertical_series(e, curve_data(2), 5)
    assert lhs.coefficient((1,)) == rhs.coefficient((1,))
    assert lhs.coefficient((2,)) == 10
    assert rhs.coefficient((2,)) == 8


def test_gamma_euler_log():
    eb = coarse_curve_theory(1, "euler", 5, 5)
    s, report = gamma_integral_series(eb, curve_data(1), 5)
    assert s.terms == {(n,): F(1, n) for n in range(1, 6)}
    assert report.terms_checked > 0
    assert report.to_obj()["poles"] == []


def test_gamma_matches_log_vertical():
    cases = [
        (coarse_curve_theory(1, "euler", 5, 5), curve_data(3)),
        (ek_theory(1, 1, 5, 5), curve_data(-2)),
        (ck_theory(2, 1, 5, 5), curve_data(2)),
        (ck_theory(1, 2, 4, 5), ChernData(2, {(2,): F(1), (1, 1): F(4)})),
        (inertial_theory(unit_class([1, 2, 3]), 2, 4, 5),
         ChernData(2, {(2,): F(-1), (1, 1): F(2)})),
        (dt_vertex_theory(4, 6),
         ChernData(3, {(1, 1, 1): F(4), (2, 1): F(12), (3,): F(4)})),
    ]
    for e, ch in cases:
        n_max = e.n_cap if e.d == 1 else min(e.n_cap, 4)
        s, _ = gamma_integral_series(e, ch, n_max)
        assert s == vertical_series(e, ch, n_max).log()


@pytest.mark.parametrize("m_cap", [8, 4])
def test_gamma_checks_only_the_terms_within_its_cap(m_cap):
    # 48 primitive terms have 1 <= n <= 3 at m_cap = 8, but only the 41
    # with every m_i <= 4, the gamma cap, are checked and paired
    e = inertial_theory(unit_class([1, 1, 1, 1]), 2, 3, m_cap)
    s, report = gamma_integral_series(e, parse_chern_arg(2, "c2=3,c1^2=7"), 3)
    assert s.pretty() == "4/1*T + 2/1*T^2 + 4/3*T^3"
    assert (report.gamma_cap, report.terms_checked) == (4, 41)


def test_gamma_trivially_pole_free():
    e = table_theory([((1, (1, 1)), F(7))], 2, 3, 4)
    s, report = gamma_integral_series(e, ChernData(2, {(1, 1): F(1)}), 3)
    # log(1 + 7 T g1 g2): only the lam = (1,1) row survives
    assert s.terms == {(1,): F(7), (2,): F(-49, 2), (3,): F(343, 3)}


def test_gamma_pole_detection():
    bad = table_theory([((1, (0,)), F(1))], 1, 3, 3)
    with pytest.raises(PoleCancellationError) as err:
        gamma_integral_series(bad, curve_data(1), 3)
    assert err.value.offenders
    assert "uncancelled" in str(err.value)


def test_nonsep_vertical_series():
    c1 = ck_theory(1, 1, 4, 1, variant="nonsep")
    for chi in (F(2), F(-3)):
        s = nonsep_vertical_series(c1, curve_data(chi), 4)
        assert s == exp_ct(chi, 4)
    # plain mapping input, d = 2
    ch = ChernData(2, {(2,): F(3), (1, 1): F(5)})
    vals = {(2, 0): F(2), (1, 1): F(1, 2)}
    s = nonsep_vertical_series(vals, ch, 3)
    assert s == exp_ct(3 * F(2) + 5 * F(1, 2), 3)
    # zero pairing
    s0 = nonsep_vertical_series({}, ch, 3)
    assert s0 == MultiSeries.one(("T",), (3,))


def test_nonsep_vertical_refuses_a_theory_of_another_d():
    c2 = ck_theory(2, 4, 3, 4, variant="nonsep")
    with pytest.raises(ContextMismatchError,
                       match="^theory is for d=4, Chern data for d=3$"):
        nonsep_vertical_series(c2, P3, 3)


def test_nonsep_vertical_refuses_a_primitive_theory():
    from punctual.theories import theory_log
    lg = theory_log(ck_theory(1, 1, 4, 1, variant="nonsep"))
    with pytest.raises(ValueError, match="^expected a multiplicative theory$"):
        nonsep_vertical_series(lg, curve_data(2), 4)


def test_nonsep_vertical_matches_pushforward():
    # pair the nonsep image of the sep vertical classes against c^1
    for d in (1, 2):
        lam_one = (1,) * d
        ch = ChernData(d, {lam_one: F(3)} if d == 1 else
                       {(1, 1): F(3), (2,): F(2)})
        c1 = ck_theory(1, d, 4, d, variant="nonsep")
        direct = nonsep_vertical_series(c1, ch, 4)
        zs = vertical_element(ch, 4, variant="sep")
        coeffs = {}
        for n, z in enumerate(zs):
            coeffs[(n,)] = c1.pair(sep_to_nonsep(z))
        assert MultiSeries(("T",), (4,), coeffs) == direct


def test_verify_identity_reports():
    r = verify_identity("curve-vertical",
                        theory=coarse_curve_theory(1, "euler", 5, 5),
                        chi=3, n_max=5)
    assert r.passed and r.residual.is_zero()
    assert r.lhs.coefficient((5,)) == 21
    assert r.to_obj()["passed"] is True
    assert "passed: true" in r.pretty()

    r2 = verify_identity("ck-bivariate", k=3, n_max=4, m_max=4)
    assert r2.passed

    r3 = verify_identity("dt-degree-zero",
                         chern=ChernData(3, {(1, 1, 1): F(4), (2, 1): F(12),
                                             (3,): F(4)}), n_max=5)
    assert r3.passed

    r4 = verify_identity("inertial-power", P=unit_class([1, 1]),
                         chern=ChernData(2, {(2,): F(1), (1, 1): F(2)}),
                         n_max=4)
    assert r4.passed

    r5 = verify_identity("gamma-vertical",
                         theory=ck_theory(2, 1, 4, 4),
                         chern=curve_data(1), n_max=4)
    assert r5.passed

    failing = verify_identity("curve-vertical",
                              theory=ck_theory(2, 1, 4, 4), chi=2, n_max=4)
    assert not failing.passed
    assert not failing.residual.is_zero()
    assert "passed: false" in failing.pretty()

    with pytest.raises(ValueError):
        verify_identity("no-such-identity", n_max=3)
