"""Invariant generating series and end-to-end identity checks.

The vertical series of a multiplicative theory e against Chern data of a
d-fold is sum_n <e, [Z_n]> T^n.  It is computed here along two independent
paths and their agreement is asserted on every call: once by the
exponential formula's recurrence over the integers, with the paired
generators summed by T-degree, and once by exponentiating the paired
primitive series sum_n T^n sum_{|lam|=d} <m_lam> <e, p_{n, lam+n-1}>
with MultiSeries.exp.

The gamma-integral form recovers the same logarithm from the generator
table F: substituting T -> T*g1...gd turns the Laurent expansion into an
honest polynomial one, whose logarithm is log F, and the substitution is
undone on exponents.  log F is the theory's primitive side, given or
derived once (see theories), so it is read there, not recomputed.
Cancellation of all would-be poles (exponents dropping below zero after
the shift) is checked term by term.
"""

from fractions import Fraction
from math import comb, factorial, lcm, perm, prod

from .combinat import pad_partition
from .hopf import ContextMismatchError, _class_generators
from .rational import _nonneg_int, _numerators
from .series import MultiSeries, _built, _macmahon_log
from .symfunc import ChernData
from .theories import (Theory, dt_vertex_theory, inertial_theory,
                       table_theory)

_ZERO = Fraction(0)


class PoleCancellationError(ArithmeticError):
    """Raised when the shifted logarithm keeps a negative exponent."""

    def __init__(self, offenders):
        self.offenders = tuple(offenders)
        shown = ", ".join("T^%d g^%r: %s" % (e[0], tuple(e[1:]), c)
                          for e, c in self.offenders[:4])
        more = "" if len(self.offenders) <= 4 else \
            " (and %d more)" % (len(self.offenders) - 4)
        super().__init__("uncancelled poles in gamma integral: %s%s" %
                         (shown, more))


class _PathsDisagreeError(RuntimeError):
    """Raised when the two evaluation routes of vertical_series differ."""


class GammaReport:
    __slots__ = ("n_max", "gamma_cap", "terms_checked")

    def __init__(self, n_max, gamma_cap, terms_checked):
        self.n_max = n_max
        self.gamma_cap = gamma_cap
        self.terms_checked = terms_checked

    def to_obj(self):
        return {"n_max": self.n_max, "gamma_cap": self.gamma_cap,
                "terms_checked": self.terms_checked, "poles": []}

    def pretty(self):
        return ("no poles up to T^%d (gamma cap %d, %d terms checked)" %
                (self.n_max, self.gamma_cap, self.terms_checked))


class IdentityReport:
    __slots__ = ("name", "passed", "lhs", "rhs", "residual")

    def __init__(self, name, lhs, rhs):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.residual = lhs - rhs
        self.passed = self.residual.is_zero()

    def to_obj(self):
        return {"name": self.name, "passed": self.passed,
                "lhs": self.lhs.to_obj(), "rhs": self.rhs.to_obj(),
                "residual": self.residual.to_obj()}

    def pretty(self):
        return "\n".join([
            "identity: %s" % self.name,
            "passed: %s" % ("true" if self.passed else "false"),
            "lhs: %s" % self.lhs.pretty(),
            "rhs: %s" % self.rhs.pretty(),
            "residual: %s" % self.residual.pretty(),
        ])


def _require_mult(e, n_max, chern=None, variant="sep"):
    """Check e against its use and chern, then return n_max as a count."""
    if e.variant != variant:
        raise ContextMismatchError("expected a %s theory" % variant)
    if e.kind != "multiplicative":
        raise ValueError("expected a multiplicative theory")
    if chern is not None and e.d != chern.d:
        raise ContextMismatchError("theory is for d=%d, Chern data for d=%d" %
                                   (e.d, chern.d))
    return _nonneg_int(n_max, "n_max")


def _chern_paired(chern, n_max, value):
    """sum_n T^n sum_lam <m_lam> value(n, lam + (n-1)), to T^n_max: each
    [T^n] is one int sum over W E_n, the lcms of the <m_lam> and values."""
    den, rows = _numerators({pad_partition(lam, chern.d): w
                             for lam, w in chern.items() if w})
    terms = {}
    for n in range(1, n_max + 1):
        values = [(w, value(n, tuple(x + n - 1 for x in row)))
                  for row, w in rows.items()]
        big = lcm(*(v.denominator for _, v in values))
        total = sum(w * v.numerator * (big // v.denominator)
                    for w, v in values)
        if total:
            terms[(n,)] = Fraction(total, den * big)
    return _built(("T",), (n_max,), terms)


def paired_primitive_series(e, chern, n_max):
    """sum_n T^n sum_{|lam|=d} <m_lam> <e, p_{n, lam+(n-1)}>."""
    n_max = _require_mult(e, n_max, chern)
    return _chern_paired(chern, n_max, e.primitive_value)


def vertical_series(e, chern, n_max, path="both"):
    """sum_n <e, [Z_n]> T^n for a multiplicative sep theory e.

    path selects the evaluation route: "pair" pairs e with the integer
    vertical classes by the exponential formula, "exp" exponentiates the
    paired primitive series, and "both" (the default) runs the two and
    insists they agree.  Each route reads the primitive values itself, so
    "both" also checks the pair route's integer weighting.

    The pair route reads each generator's primitive value e_g once, in
    sorted order, as the integer F_g = e_g E^j, with E the lcm of the
    values' denominators and j the T-degree of g.  With the integer
    weights c_g and the denominator D of _class_generators,
    n! D^n [Z_n] = n! [T^n] exp(sum_g c_g g T^j), and by the multinomial
    theorem it pairs with F to b_n = n! [T^n] exp(sum_j W_j T^j), W_j the
    sum of c_g F_g over deg g = j.  Differentiating the exponential gives
    b_n = sum_j j (n-1)!/(n-j)! W_j b_(n-j) over plain ints, so no class
    is built, and <e, [Z_n]> = b_n / (n! (D E)^n).
    """
    n_max = _require_mult(e, n_max, chern)
    if path not in ("both", "pair", "exp"):
        raise ValueError("path must be 'both', 'pair' or 'exp'")
    paired = expd = None
    if path in ("both", "pair"):
        coeffs, den = _class_generators(chern, n_max)
        gens = sorted(coeffs.items())
        values = [e.primitive_value(*g) for g, _ in gens]
        big = lcm(*(v.denominator for v in values))
        sums = {}
        for (_, (j, c)), v in zip(gens, values):
            sums[j] = sums.get(j, 0) + \
                c * v.numerator * (big ** j // v.denominator)
        bs = [1]
        for n in range(1, n_max + 1):
            bs.append(sum(j * perm(n - 1, j - 1) * w * bs[n - j]
                          for j, w in sums.items() if j <= n))
        paired = _built(("T",), (n_max,), {
            (n,): Fraction(b, factorial(n) * (den * big) ** n)
            for n, b in enumerate(bs) if b})
    if path in ("both", "exp"):
        expd = paired_primitive_series(e, chern, n_max).exp()
    if path == "both" and paired != expd:
        raise _PathsDisagreeError("vertical series paths disagree for %s; "
                                  "pairing gave %s, exponential gave %s" %
                                  (e.label, paired.pretty(), expd.pretty()))
    return paired if paired is not None else expd


def curve_series(e, chi, n_max):
    """(sum_n <e, q_{n,n}> T^n)^chi for d = 1.

    This equals the vertical series of a curve with <m_(1)> = chi when
    every nonzero <e, q_{n,(m)}> has m <= n, or every one has m >= n: then
    keeping the T^n U^n terms of the table F(T,U) commutes with log, and
    the vertical series is exp(chi * diag log F).  Otherwise it can
    differ: for c^2, F = exp(T(1+U)^2), the vertical series is exp(2 chi T) while
    this is (sum_n C(2n,n)/n! T^n)^chi, first apart at T^2.
    """
    if e.d != 1:
        raise ContextMismatchError("curve series needs d = 1")
    n_max = _require_mult(e, n_max)
    diag = {(n,): e.value(n, (n,)) for n in range(n_max + 1)}
    return MultiSeries(("T",), (n_max,), diag).pow(Fraction(chi))


def gamma_integral_series(e, chern, n_max):
    """The logarithm of the vertical series, recovered from the generator
    table by the gamma-integral formula.

    The shifted logarithm is the theory's primitive side log F, its terms
    T^n g^m with 1 <= n <= n_max and every m_i <= n_max - 1 + d; a request
    past the theory's caps raises CapError.  Returns (series in T,
    GammaReport).  Raises PoleCancellationError when a shifted exponent
    stays negative, listing the offending terms.
    """
    if chern is None:
        raise ValueError("gamma integral needs Chern data, got None")
    n_max = _require_mult(e, n_max, chern)
    d = e.d
    cap = n_max - 1 + d
    if n_max > 0:
        # a request past the theory's caps fails at the first generator
        # that tabulating the table to (n_max, cap), n outer and m in
        # graded order, would read: in row n = 1 the first m past m_cap
        # (every m when n_cap < 1), else the first row past n_cap
        first = 0 if e.n_cap < 1 else max(e.m_cap + 1, 0)
        if first <= cap:
            e._exponent(1, (first,) + (0,) * (d - 1))
        if e.n_cap < n_max:
            e._exponent(e.n_cap + 1, (0,) * d)
    shifted_log = {exps: c for exps, c in e._series(True).terms.items()
                   if 1 <= exps[0] <= n_max and max(exps[1:]) <= cap}
    offenders = sorted(((exps, c) for exps, c in shifted_log.items()
                        if min(exps[1:]) < exps[0] - 1),
                       key=lambda ec: (sum(ec[0]), ec[0]))
    if offenders:
        raise PoleCancellationError(offenders)
    series = _chern_paired(
        chern, n_max, lambda n, m: shifted_log.get((n,) + m, _ZERO))
    return series, GammaReport(n_max, cap, len(shifted_log))


def nonsep_vertical_series(e_values, chern, n_max):
    """exp(<c,[X]> T) where <c,[X]> = sum_lam <m_lam> c(q_lam).

    e_values is either a nonsep multiplicative Theory or a plain mapping
    from partitions to rationals, read as a nonsep table_theory.
    """
    d = chern.d
    if not isinstance(e_values, Theory):
        e_values = table_theory(dict(e_values).items(), d, 1, d,
                                variant="nonsep")
    n_max = _require_mult(e_values, n_max, chern, "nonsep")
    # <c,[X]> is the T^1 coefficient of the Chern pairing with c's values
    a = _chern_paired(chern, 1, lambda _, lam: e_values.nonsep_value(lam)
                      ).coefficient((1,))
    return MultiSeries(("T",), (n_max,),
                       {(n,): a ** n / factorial(n) for n in range(n_max + 1)})


def chern_class_integral(P, chern):
    """<degree-d part of prod_i P(gamma_i), [X]> for a unit class P.

    Expanding the product, the coefficient of gamma^x is prod t_{x_i}, so
    grouping by sorted exponent vector gives sum_lam <m_lam> prod t_{lam_i}
    (padding zeros contribute t_0 = 1 each).
    """
    if P.constant_term() != 1:
        raise ValueError("class integral needs P(0) = 1")
    # the T^1 coefficient of the Chern pairing with prod t_{lam_i}
    return _chern_paired(chern, 1, lambda _, lam: prod(
        P.coefficient((part,)) for part in lam)).coefficient((1,))


def verify_identity(name, **params):
    """Check one of the named series identities; lhs and rhs always come
    from independent code paths.

    curve-vertical   params: theory (d=1 multiplicative), chi, n_max
                     curve_series(e, chi) vs vertical_series against the
                     Chern data of a curve with <m_(1)> = chi.  These
                     agree when the nonzero table values all have m <= n,
                     or all m >= n; they differ for c^2 (see curve_series).
    inertial-power   params: P (unit class, 1 variable), chern, n_max
                     vertical series of the inertial theory of P vs
                     (1-T)^(-<P(T_X),[X]>).
    dt-degree-zero   params: chern (d=3), n_max
                     vertical series of the vertex theory vs
                     M(-T)^(<c3-c1c2,[X]>).
    ck-bivariate     params: k, n_max, m_max (d=1)
                     the table series sum <c^k, q_{n,m}> T^n U^m, from
                     the closed form 1/n! C(k n, m), vs exp(T (1+U)^k).
    gamma-vertical   params: theory, chern, n_max
                     gamma_integral_series vs log of vertical_series.
                     Both read the theory's primitive side: the lhs pairs
                     its shifted coefficients directly, and the rhs is
                     the pairing with the integer classes [Z_n], which
                     the "both" path checks against the exp of the
                     paired primitive series.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError("unknown identity %r" % name)
    n_max = _nonneg_int(params["n_max"], "n_max")
    if name == "curve-vertical":
        e = params["theory"]
        chi = Fraction(params["chi"])
        lhs = curve_series(e, chi, n_max)
        rhs = vertical_series(e, ChernData(1, {(1,): chi}), n_max)
    elif name == "inertial-power":
        P = params["P"]
        chern = params["chern"]
        d = chern.d
        e = inertial_theory(P, d, n_max, n_max - 1 + d)
        lhs = vertical_series(e, chern, n_max)
        one_minus_t = (MultiSeries.one(("T",), (n_max,)) -
                       MultiSeries.var(("T",), (n_max,), "T"))
        rhs = one_minus_t.pow(-chern_class_integral(P, chern))
    elif name == "dt-degree-zero":
        chern = params["chern"]
        if chern.d != 3:
            raise ContextMismatchError("the vertex identity needs d = 3")
        e = dt_vertex_theory(n_max, n_max - 1 + 3)
        lhs = vertical_series(e, chern, n_max)
        # <c3 - c1 c2> = -2 <m_111> - <m_21>
        exponent = -2 * chern.value((1, 1, 1)) - chern.value((2, 1))
        rhs = (_macmahon_log(n_max, -1) * exponent).exp()
    elif name == "ck-bivariate":
        k = _nonneg_int(params["k"], "k")
        m_max = _nonneg_int(params.get("m_max", n_max), "m_max")
        # the binomial closed form, not ck_theory's table: that is the exp
        # of T (1+U)^k, the same route as the rhs
        lhs = MultiSeries(("T", "U"), (n_max, m_max), {
            (n, m): Fraction(comb(k * n, m), factorial(n))
            for n in range(n_max + 1) for m in range(m_max + 1)})
        variables, caps = lhs.variables, lhs.caps
        t = MultiSeries.var(variables, caps, "T")
        u = MultiSeries.var(variables, caps, "U")
        rhs = (t * (MultiSeries.one(variables, caps) + u) ** k).exp()
    else:  # gamma-vertical
        e = params["theory"]
        chern = params["chern"]
        lhs, _report = gamma_integral_series(e, chern, n_max)
        rhs = vertical_series(e, chern, n_max).log()
    return IdentityReport(name, lhs, rhs)


IDENTITY_NAMES = ("curve-vertical", "inertial-power", "dt-degree-zero",
                  "ck-bivariate", "gamma-vertical")
