"""End-to-end acceptance checks, one test per criterion.

Every comparison is exact rational equality.  Each test records a summary
line (see conftest) before asserting, so the final report always lists all
ten criteria.
"""

import random
from fractions import Fraction as F
from math import comb, factorial

from punctual.axioms import random_element, run_axiom_suite
from punctual.combinat import partitions_of
from punctual.genfun import (curve_series, gamma_integral_series,
                             chern_class_integral, nonsep_vertical_series,
                             verify_identity, vertical_series)
from punctual.hopf import HopfElement, sep_to_nonsep, vertical_element
from punctual.series import MultiSeries, macmahon_series
from punctual.symfunc import ChernData, chern_data_from_classes
from punctual.theories import (ck_theory, coarse_curve_theory,
                               dt_vertex_theory, ek_theory, inertial_theory,
                               theory_log)

from conftest import record_criterion
import oracles


def one_minus_t(cap):
    return MultiSeries.one(("T",), (cap,)) - MultiSeries.var(("T",), (cap,),
                                                             "T")


def exp_ct(c, cap):
    t = MultiSeries.var(("T",), (cap,), "T")
    return (c * t).exp()


def curve_data(chi):
    return ChernData(1, {(1,): F(chi)})


def unit_class(coeffs):
    cap = max(len(coeffs) - 1, 1)
    return MultiSeries(("U",), (cap,),
                       {(j,): F(c) for j, c in enumerate(coeffs)})


_DT = dt_vertex_theory(6, 8)

_DT_CASES = [
    (chern_data_from_classes(3, {(1, 1, 1): F(64), (2, 1): F(24),
                                 (3,): F(4)}), F(-20)),
    (chern_data_from_classes(3, {(1, 1, 1): F(0), (2, 1): F(0),
                                 (3,): F(-200)}), F(-200)),
    (ChernData(3, {(1, 1, 1): F(2), (2, 1): F(-3), (3,): F(9)}), F(-1)),
]

_INERTIAL_SAMPLES = [(F(1), F(1)), (F(2), F(1, 3)), (F(0), F(5)),
                     (F(-1, 2), F(2)), (F(3), F(0))]


def _inertial_cherns(d):
    rng = random.Random(100 + d)
    out = []
    for _ in range(3):
        out.append(ChernData(d, {lam: F(rng.randint(-4, 4))
                                 for lam in partitions_of(d, d)}))
    return out


def test_criterion_1_hopf_axioms():
    rng = random.Random(2024)
    counts = None
    failure = None
    try:
        # 34 elements per (variant, dimension) pair: 204 total
        counts = run_axiom_suite(rng, dims=(1, 2, 3),
                                 variants=("sep", "nonsep"), count=34,
                                 max_cycle_degree=4)
    except AssertionError as exc:
        failure = exc
    ok = failure is None and counts["antipode"] == 204
    record_criterion(1, "Hopf axioms exact on 204 random elements "
                        "(d in {1,2,3}, sep and nonsep)", ok)
    assert ok, failure


def test_criterion_2_basis_change():
    rng = random.Random(2025)
    ok = True
    for variant in ("sep", "nonsep"):
        for d in (1, 2, 3):
            for _ in range(12):
                x = random_element(rng, d, variant, max_cycle_degree=4,
                                   max_m=3 if d == 1 else 2)
                xq = x.to_q()
                if xq.to_p().to_q() != xq:
                    ok = False
    q = lambda n, m: HopfElement.generator(1, n, m)
    frozen = HopfElement.generator(1, 2, (2,), basis="p").to_q() == \
        q(2, (2,)) - q(1, (0,)) * q(1, (2,)) \
        - F(1, 2) * q(1, (1,)) * q(1, (1,))
    ok = ok and frozen
    record_criterion(2, "q/p basis changes invert each other; frozen "
                        "p_{2,2} expansion", ok)
    assert ok


def test_criterion_3_euler_theories():
    eb = coarse_curve_theory(1, "euler", 6, 6)
    e1 = ek_theory(1, 1, 6, 6)
    lg = theory_log(eb)
    ok = all(eb.value(n, (m,)) == (1 if n == m else 0)
             for n in range(1, 7) for m in range(7))
    ok = ok and all(lg.value(n, (n,)) == F(1, n) for n in range(1, 7))
    for chi in range(-2, 4):
        ok = ok and vertical_series(eb, curve_data(chi), 6) == \
            one_minus_t(6).pow(-chi)
        ok = ok and vertical_series(e1, curve_data(chi), 6) == \
            exp_ct(F(chi), 6)
    record_criterion(3, "coarse Euler delta table, 1/n primitives, "
                        "(1-T)^-chi and e^(chi T) verticals to T^6", ok)
    assert ok


def test_criterion_4_bivariate_chern_identity():
    ok = all(verify_identity("ck-bivariate", k=k, n_max=4, m_max=4).passed
             for k in (1, 2, 3))
    record_criterion(4, "table series of c^k equals exp(T(1+U)^k) at caps "
                        "(4,4), k = 1..3", ok)
    assert ok


def test_criterion_5_inertial_power():
    ok = True
    for d in (1, 2, 3):
        for t1, t2 in _INERTIAL_SAMPLES:
            P = unit_class([1, t1, t2])
            e = inertial_theory(P, d, 5, 4 + d)
            for ch in _inertial_cherns(d):
                lhs = vertical_series(e, ch, 5)
                rhs = one_minus_t(5).pow(-chern_class_integral(P, ch))
                if lhs != rhs:
                    ok = False
    record_criterion(5, "inertial vertical series equals "
                        "(1-T)^(-<P(T_X)>) over 5 classes x 3 Chern "
                        "inputs x d in {1,2,3}", ok)
    assert ok


def _oracle_power(base, chi, cap):
    """base^chi for a T-series dict with constant term 1, by the oracles'
    schoolbook log and exp."""
    log_base = oracles.poly_log(base, (cap,))
    return oracles.poly_exp({e: chi * c for e, c in log_base.items()},
                            (cap,))


def _coefficients(series_dict, cap):
    return [series_dict.get((n,), F(0)) for n in range(cap + 1)]


def test_criterion_6_curve_equals_vertical():
    # Write F(T,U) = sum <e, q_{n,(m)}> T^n U^m for the table of e on curves.
    # The vertical series is exp(chi * diag log F) and the curve series is
    # (diag F)^chi, where diag keeps the T^n U^n terms.  diag is a ring map
    # when F is supported on one side of m = n, as for the first three
    # theories, so the two series agree there.  For c^2, F = exp(T(1+U)^2)
    # (criterion 4), so the vertical series is exp(2 chi T) and the curve
    # series is (sum C(2n,n)/n! T^n)^chi; both are pinned to those forms.
    cap = 5
    one_sided = [
        ("coarse Euler", coarse_curve_theory(1, "euler", cap, cap)),
        ("stacky Euler", ek_theory(1, 1, cap, cap)),
        ("inertial(1+U)", inertial_theory(unit_class([1, 1]), 1, cap, cap)),
    ]
    c2 = ck_theory(2, 1, cap, cap)
    diag_c2 = {(n,): F(comb(2 * n, n), factorial(n)) for n in range(cap + 1)}
    failures = []
    for chi in (F(1), F(2), F(3), F(-2)):
        for label, e in one_sided:
            lhs = curve_series(e, chi, cap)
            rhs = vertical_series(e, curve_data(chi), cap)
            if lhs != rhs:
                failures.append((label, chi, (lhs - rhs).pretty()))
        want_vertical = _coefficients(
            oracles.poly_exp({(1,): 2 * chi}, (cap,)), cap)
        want_curve = _coefficients(_oracle_power(diag_c2, chi, cap), cap)
        got_vertical = _coefficients(
            vertical_series(c2, curve_data(chi), cap).terms, cap)
        got_curve = _coefficients(curve_series(c2, chi, cap).terms, cap)
        if got_vertical != want_vertical:
            failures.append(("c^2 vertical vs exp(2 chi T)", chi,
                             got_vertical, want_vertical))
        if got_curve != want_curve:
            failures.append(("c^2 curve vs (sum C(2n,n)/n! T^n)^chi", chi,
                             got_curve, want_curve))
        first_gap = next((n for n in range(cap + 1)
                          if want_vertical[n] != want_curve[n]), None)
        if first_gap != 2:
            failures.append(("c^2 closed forms first differ at T^2", chi,
                             first_gap))
    ok = not failures
    record_criterion(6, "curve series equals vertical series for the "
                        "one-sided tables coarse Euler, stacky Euler, "
                        "inertial(1+U); the c^2 gap matches exp(2 chi T) "
                        "vs (sum C(2n,n)/n! T^n)^chi", ok)
    assert ok, ("curve/vertical mismatch: %s" % failures)


def test_criterion_7_vertex_macmahon_power():
    ok = True
    for ch, exponent in _DT_CASES:
        if -2 * ch.value((1, 1, 1)) - ch.value((2, 1)) != exponent:
            ok = False
        got = vertical_series(_DT, ch, 6)
        if [got.coefficient((n,)) for n in range(7)] != \
                oracles.macmahon_neg_power(exponent, 6):
            ok = False
    record_criterion(7, "vertex vertical series equals M(-T)^<c3-c1c2> to "
                        "T^6 for three Chern inputs", ok)
    assert ok


def test_criterion_8_gamma_integral():
    pairs = []
    eb = coarse_curve_theory(1, "euler", 6, 6)
    e1 = ek_theory(1, 1, 6, 6)
    for chi in range(-2, 4):
        pairs.append((eb, curve_data(chi), 6))
        pairs.append((e1, curve_data(chi), 6))
    for k in (1, 2, 3):
        for chi in range(-2, 4):
            pairs.append((ck_theory(k, 1, 4, 4), curve_data(chi), 4))
    for d in (1, 2, 3):
        cherns = _inertial_cherns(d)
        for t1, t2 in _INERTIAL_SAMPLES:
            e = inertial_theory(unit_class([1, t1, t2]), d, 5, 4 + d)
            for ch in cherns:
                pairs.append((e, ch, 5))
    pairs.append((inertial_theory(unit_class([1, 1]), 1, 5, 5),
                  curve_data(3), 5))
    for ch, _ in _DT_CASES:
        pairs.append((_DT, ch, 6))
    ok = True
    for e, ch, n_max in pairs:
        try:
            series, _report = gamma_integral_series(e, ch, n_max)
        except ArithmeticError:
            ok = False
            break
        if series != vertical_series(e, ch, n_max).log():
            ok = False
            break
    record_criterion(8, "gamma integral equals log of vertical series, "
                        "pole-free, across %d theory/Chern pairs"
                        % len(pairs), ok)
    assert ok


def test_criterion_9_macmahon_brute_force():
    m = macmahon_series(6)
    counts = [oracles.count_plane_partitions(n) for n in range(7)]
    ok = counts == [1, 1, 3, 6, 13, 24, 48] and \
        [m.coefficient((n,)) for n in range(7)] == counts
    record_criterion(9, "MacMahon coefficients match brute-force plane "
                        "partition counts through T^6", ok)
    assert ok


def test_criterion_10_nonsep_pushforward():
    rng = random.Random(2026)
    ok = True
    for d in (1, 2):
        for _ in range(10):
            x = random_element(rng, d, "sep", max_cycle_degree=3, max_m=2)
            y = random_element(rng, d, "sep", max_cycle_degree=2, max_m=2)
            if sep_to_nonsep(x * y) != sep_to_nonsep(x) * sep_to_nonsep(y):
                ok = False
            lhs = sep_to_nonsep(x).coproduct()
            acc = None
            for (l, r), c in x.coproduct().terms.items():
                li = sep_to_nonsep(HopfElement(d, "sep", "q", {l: F(1)}))
                ri = sep_to_nonsep(HopfElement(d, "sep", "q", {r: F(1)}))
                from punctual.hopf import tensor
                part = tensor(li, ri).scaled(c)
                acc = part if acc is None else acc + part
            if acc is None:
                ok = ok and not lhs.terms
            elif lhs != acc:
                ok = False
            if sep_to_nonsep(x).counit() != x.counit():
                ok = False
    for n in (2, 3):
        for m in ((n,), (n + 1,), (2 * n,)):
            pgen = HopfElement.generator(1, n, m, basis="p")
            if not sep_to_nonsep(pgen).is_zero():
                ok = False
    for d in (1, 2):
        ch = curve_data(3) if d == 1 else ChernData(2, {(1, 1): F(3),
                                                        (2,): F(2)})
        c1 = ck_theory(1, d, 4, d, variant="nonsep")
        direct = nonsep_vertical_series(c1, ch, 4)
        zs = vertical_element(ch, 4, variant="sep")
        pushed = MultiSeries(("T",), (4,),
                             {(n,): c1.pair(sep_to_nonsep(z))
                              for n, z in enumerate(zs)})
        if pushed != direct:
            ok = False
    record_criterion(10, "sep-to-nonsep bialgebra morphism, vanishing "
                         "higher primitives, matching exp pushforward "
                         "series", ok)
    assert ok
