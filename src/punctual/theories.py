"""Enumerative theories: multiplicative or primitive functionals on the
Hopf algebras, given by a rational table on generators.

A multiplicative theory e sends a product of generators to the product of
the table values (and the unit to 1); a primitive theory vanishes on the
unit and on every monomial with two or more factors.  The two kinds are
exchanged by theory_log / theory_exp: writing the table as a generating
function F(T, U) = sum <e, q_{n,m}> T^n U^m over ordered exponent vectors,
the primitive values of log e are the coefficients of log F, because the
formal sum of all q_{n,m} is group-like and its coefficientwise logarithm
is the primitive family p_{n,m}.  In particular a multiplicative e pairs
with a p-basis monomial as the product of its primitive values.

A Theory holds each side as its generating series, a MultiSeries in T and
U1..Ud truncated at the declared caps n <= n_cap, m_i <= m_cap: F on the
generator side, whose constant term is the value on the unit, and log F on
the primitive side.  It is given one side, in the frame of its d, caps and
variant, and derives the other (see Theory).  Class, Euler power and
inertial theories are given their primitive side in closed form,
log F = first * P(U1)...P(Ud) with first = T for a class, and the DT
vertex its own: each is built within the caps and handed over unchecked
through series._built.  Table and coarse theories hand their generator
side, as a caller does, to the validating MultiSeries constructor.  A
lookup reads one coefficient; evaluating outside the caps raises CapError
rather than truncating silently.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, prod
from operator import index, le

from .hopf import (_GENS, ContextMismatchError, _canonical_nonsep, _fields,
                   _monomial_from_obj, canonical_generator)
from .rational import _nonneg_int, _numerators, parse_rational
from .series import MultiSeries, _built, _macmahon_log

_ZERO = Fraction(0)


class CapError(ValueError):
    pass


def _frame(d, n_cap, m_cap, variant="sep"):
    """The variables T, U1..Ud of a theory's series and its caps: n_cap on
    T, 1 for a nonsep series, whose q_lam sits at T U^lam, m_cap on each
    U_i.  A negative cap refuses every lookup it bounds; the cap stops at 0."""
    d = _nonneg_int(d, "dimension")
    return (("T",) + tuple("U%d" % (i + 1) for i in range(d)),
            (max(n_cap, 0) if variant == "sep" else 1,) + (max(m_cap, 0),) * d)


class Theory:
    """A functional held as the generating series of its generator values
    and of its primitive values.

    Exactly one of gen_fn / prim_fn is given: a MultiSeries with the
    variables and caps of _frame and no total cap, stored as it is; a side
    of another frame is refused.  Every value of a primitive or nonsep
    theory is primitive, so its one series is both sides; otherwise the
    other side is derived whole, by exp or log, on its first lookup.  Only
    m_cap bounds a nonsep theory's lookups, and a negative cap refuses
    every lookup it bounds.
    """

    __slots__ = ("d", "variant", "kind", "label", "n_cap", "m_cap", "_gen",
                 "_prim")

    def __init__(self, d, kind, label, n_cap, m_cap, variant="sep",
                 gen_fn=None, prim_fn=None):
        if kind not in ("multiplicative", "primitive"):
            raise ValueError("kind must be multiplicative or primitive")
        if variant not in ("sep", "nonsep"):
            raise ValueError("variant must be 'sep' or 'nonsep'")
        if (gen_fn is None) == (prim_fn is None):
            raise ValueError("need exactly one of a generator table and a "
                             "primitive table")
        self.d = index(d)
        self.variant = variant
        self.kind = kind
        self.label = label or kind
        side = prim_fn if gen_fn is None else gen_fn
        if not isinstance(side, MultiSeries):
            raise ValueError("a theory's side is a MultiSeries, got %r" %
                             (side,))
        self.n_cap = index(n_cap)
        self.m_cap = index(m_cap)
        want = _frame(self.d, self.n_cap, self.m_cap, variant) + (None,)
        got = side.variables, side.caps, side.total_cap
        if got != want:
            raise ValueError("a theory's side needs variables, caps and total "
                             "cap %r, got %r" % (want, got))
        if kind == "primitive" or variant == "nonsep":
            gen_fn = prim_fn = side
        self._gen, self._prim = gen_fn, prim_fn

    def __repr__(self):
        return "Theory(%s, d=%d, %s, %s)" % (self.label, self.d, self.kind,
                                             self.variant)

    # -- keyed access ------------------------------------------------------

    def _exponent(self, n, m):
        """The exponent (n,) + m of T^n U^m, checked against d and the
        caps."""
        if self.variant != "sep":
            raise ContextMismatchError("%s is a nonsep theory" % self.label)
        e = (index(n),) + tuple(map(index, m))
        if len(e) != self.d + 1:
            raise ValueError("exponent vector of length %d, expected %d" %
                             (len(e) - 1, self.d))
        if min(e) < 0:
            raise ValueError("negative entry in generator index")
        if e[0] > self.n_cap or max(e[1:], default=0) > self.m_cap:
            raise CapError("index (%d, %r) outside caps (%d, %d) of %s" %
                           (e[0], tuple(sorted(e[1:], reverse=True)),
                            self.n_cap, self.m_cap, self.label))
        return e

    def _series(self, prim):
        """The primitive series when prim is set, else the generator
        series; the side not given is derived on first use."""
        if prim and self._prim is None:
            self._prim = self._gen.log()
        elif not prim and self._gen is None:
            self._gen = self._prim.exp()
        return self._prim if prim else self._gen

    def value(self, n, m):
        """Table value on the sep generator q_{n,m}.  At n = 0 this is the
        constant term: 1 on the unit of a multiplicative theory, else 0."""
        e = self._exponent(n, m)
        return self._series(False).terms.get(e, _ZERO)

    def nonsep_value(self, lam):
        if self.variant != "nonsep":
            raise ContextMismatchError("%s is a sep theory" % self.label)
        lam = _canonical_nonsep(lam, self.d)
        if max(lam, default=0) > self.m_cap:
            raise CapError("partition %r outside cap %d of %s" %
                           (lam, self.m_cap, self.label))
        return self._gen.terms.get((1,) + lam, _ZERO)

    def primitive_value(self, n, m):
        """Value on the primitive p_{n,m}; for a multiplicative theory this
        is also the value of its logarithm."""
        e = self._exponent(n, m)
        return self._series(True).terms.get(e, _ZERO)

    # -- pairing -----------------------------------------------------------

    def pair(self, x):
        """<self, x> for a HopfElement x, linear over terms.  A primitive
        theory vanishes on the unit and on products in either basis.

        Each distinct generator's value is read once.  With the values over
        a common denominator E and the coefficients over C, the integer
        sums S_k over monomials of k factors give sum_k S_k / (C E^k).
        """
        if x.d != self.d or x.variant != self.variant:
            raise ContextMismatchError("element context (%d, %s) does not "
                                       "match theory (%d, %s)" %
                                       (x.d, x.variant, self.d, self.variant))
        if self.variant == "nonsep":
            get = lambda n, lam: self.nonsep_value(lam)
        else:
            get = self.primitive_value if x.basis == "p" else self.value
        c_den, nums = x._den, x._nums
        if self.kind == "primitive":
            nums = {mon: c for mon, c in nums.items() if len(mon) == 1}
        values = {g: Fraction(get(*_GENS[g])) for g in
                  dict.fromkeys(itertools.chain.from_iterable(nums))}
        e_den, ints = _numerators(values)
        sums = {}
        for mon, c in nums.items():
            k = len(mon)
            sums[k] = sums.get(k, 0) + c * prod(map(ints.__getitem__, mon))
        return sum((Fraction(s, c_den * e_den ** k)
                    for k, s in sums.items()), _ZERO)


def eval_theory(e, x):
    """The natural pairing <e, x>."""
    return e.pair(x)


def theory_log(e):
    """The primitive theory with the same values on primitives as e."""
    if e.kind != "multiplicative":
        raise ValueError("theory_log expects a multiplicative theory")
    return Theory(e.d, "primitive", "log(%s)" % e.label, e.n_cap, e.m_cap,
                  variant=e.variant, prim_fn=e._series(True))


def theory_exp(p):
    """The multiplicative theory whose primitive values are p's table."""
    if p.kind != "primitive":
        raise ValueError("theory_exp expects a primitive theory")
    return Theory(p.d, "multiplicative", "exp(%s)" % p.label, p.n_cap,
                  p.m_cap, variant=p.variant, prim_fn=p._prim)


# -- constructions ---------------------------------------------------------

def _class_theory(P, d, n_cap, m_cap, label, first=None, variant="sep"):
    """The multiplicative theory whose primitive side is, in closed form,
    first * P(U1) ... P(Ud) for a series P in one variable; first is a term
    mapping in T, U1..Ud, one term per power of T, and defaults to T.  For
    a nonsep theory the product is also the generator side: q_lam takes the
    value prod_i [x^(lam_i)] P of q_{1,lam}.  It is taken in ints, one U_i
    at a time and within the caps, so no two of its terms ever meet."""
    if len(P.variables) != 1:
        raise ValueError("expected a series in one variable")
    variables, caps = _frame(d, n_cap, m_cap, variant)
    f_den, side = _numerators({(1,) + (0,) * d: 1} if first is None
                              else first)
    p_den, p = _numerators(P.terms)
    side = {e: c for e, c in side.items() if all(map(le, e, caps))}
    for i in range(1, d + 1):
        side = {e[:i] + (e[i] + j,) + e[i + 1:]: c * x
                for e, c in side.items() for (j,), x in p.items()
                if e[i] + j <= caps[i]}
    den = f_den * p_den ** d  # one Fraction per distinct numerator
    fracs = {c: Fraction(c, den) for c in set(side.values())}
    return Theory(d, "multiplicative", label, n_cap, m_cap, variant,
                  prim_fn=_built(variables, caps, {
                      e: fracs[c] for e, c in side.items()}))


def _unit_class(coeffs):
    """The class P = sum_j c_j x^j of the coefficients c_0, c_1, ..., to
    x^max(len - 1, 1)."""
    return MultiSeries(("x",), (max(len(coeffs) - 1, 1),),
                       {(j,): c for j, c in enumerate(coeffs)})


def mult_class_theory(P, d, n_cap, m_cap, label=None, variant="sep"):
    """The multiplicative class theory of P: its table is
    F = exp(T P(U1)...P(Ud)), so the value on q_{n,m} is 1/n! times
    prod_i [x^(m_i)] P(x)^n.  Requires P(0) = 1."""
    if P.constant_term() != 1:
        raise ValueError("multiplicative class needs P(0) = 1")
    return _class_theory(P, d, n_cap, m_cap, label or "class(%s)" % P.pretty(),
                         variant=variant)


def ck_theory(k, d, n_cap, m_cap, variant="sep"):
    """The k-th Chern class theory, P = (1+x)^k: values
    1/n! prod binom(k n, m_i)."""
    k = _nonneg_int(k, "k")
    # (1+x)^k is read only to x^m_cap
    cap = max(m_cap, 0)
    P = _built(("x",), (cap,),
               {(j,): Fraction(comb(k, j)) for j in range(min(k, cap) + 1)})
    return mult_class_theory(P, d, n_cap, m_cap, label="c^%d" % k,
                             variant=variant)


def ek_theory(k, d, n_cap, m_cap):
    """The k-th Euler power theory, class x^k: its table is
    F = exp(T (U1...Ud)^k), so the value on q_{n,m} is 1/n! if every
    m_i = k n and zero otherwise.  (Not a unit class, so this does not
    factor through mult_class_theory.)"""
    k = _nonneg_int(k, "k")
    return _class_theory(MultiSeries.monomial(("x",), (k,), (k,)), d, n_cap,
                         m_cap, "e^%d" % k)


def coarse_curve_theory(k, kind, n_cap, m_cap):
    """Coarse curve-counting theories, d = 1 only.

    kind "chern":  <e, q_{n,m}> = 1/n! [T^m] prod_{i=1..n} (1+iT)^k
    kind "euler":  <e, q_{n,m}> = (n!)^(k-1) if m = nk else 0
    """
    k = _nonneg_int(k, "k")
    variables, caps = _frame(1, n_cap, m_cap)
    cells = {(0, 0): 1}
    if kind == "chern":
        row = one = MultiSeries.one(("x",), caps[1:])
        x = MultiSeries.var(("x",), caps[1:], "x")
        for n in range(1, n_cap + 1):
            row = row * (one + n * x) ** k
            for (m,), c in row.terms.items():
                cells[n, m] = c / factorial(n)
    elif kind == "euler":
        for n in range(1, n_cap + 1):
            cells[n, n * k] = Fraction(factorial(n)) ** (k - 1)
    else:
        raise ValueError("kind must be 'chern' or 'euler'")
    # the constructor drops the cells beyond the caps
    return Theory(1, "multiplicative", "coarse-%s^%d" % (kind[0], k), n_cap,
                  m_cap, gen_fn=MultiSeries(variables, caps, cells))


def inertial_theory(P, d, n_cap, m_cap, label=None):
    """The inertial theory of a unit class P = 1 + t_1 U + t_2 U^2 + ...

    It is multiplicative and determined by its primitive values

        <P_, p_{n,m}> = 1/n [U^(m - (n-1))] P(U_1) ... P(U_d)
                      = 1/n t_{m_1-n+1} ... t_{m_d-n+1}

    with t_0 = 1, zero whenever some m_i < n - 1: its primitive side is
    sum_n T^n (U1...Ud)^(n-1) / n times P(U1) ... P(Ud).
    """
    if P.constant_term() != 1:
        raise ValueError("inertial theory needs P(0) = 1")
    first = {(n,) + (n - 1,) * d: Fraction(1, n) for n in range(1, n_cap + 1)}
    return _class_theory(P, d, n_cap, m_cap,
                         label or "inertial(%s)" % P.pretty(), first)


def dt_vertex_theory(n_cap, m_cap):
    """The degree zero Donaldson-Thomas vertex theory, d = 3.

    The generator table is read off from

        sum <e, q_{n,m}> T^n U^m = exp(-E(U) log M(-U1 U2 U3 T)),
        E(U) = (U1+U2)(U2+U3)(U3+U1) / (U1 U2 U3),

    with M the MacMahon series.  The numerator of E expands as
    2 U1 U2 U3 plus the six orderings of U1^2 U2, so with
    a_n = [T^n] log M(-T) the primitive value is -2 a_n at (n; n, n, n),
    -a_n at each ordering of (n; n+1, n, n-1) and zero elsewhere.  Any
    caps will do: truncating to a box of caps commutes with exp, so the
    values within them are those at ample caps.
    """
    variables, caps = _frame(3, n_cap, m_cap)
    cells = {}
    # within the caps: m_cap bounds n, and n + 1 past (n; n, n, n)
    for (n,), a in _macmahon_log(min(caps[:2]), -1).terms.items():
        neg = -a
        cells[n, n, n, n] = 2 * neg
        if n < caps[1]:
            for m in itertools.permutations((n + 1, n, n - 1)):
                cells[(n,) + m] = neg
    return Theory(3, "multiplicative", "e_DT", n_cap, m_cap,
                  prim_fn=_built(variables, caps, cells))


def table_theory(entries, d, n_cap, m_cap, kind="multiplicative",
                 label="table", variant="sep"):
    """A theory from an explicit generator-value list; absent entries are
    zero, entries beyond the caps are dropped.  Entries are tuples
    ((n, m), value) or, for nonsep, (lam, value); each is written at every
    ordering of m, and the last entry for an index wins."""
    sep = variant == "sep"
    variables, caps = _frame(d, n_cap, m_cap, variant)
    cells = {(0,) * (d + 1): 1} if sep and kind == "multiplicative" else {}
    for key, v in entries:
        if sep:
            n, m = key
            if len(m) != d:
                raise ValueError("table entry %r: exponent vector of length "
                                 "%d, expected %d" % (key, len(m), d))
            mon = canonical_generator(n, m)
            if not mon:
                raise ValueError("table entry %r: multiplicity n must be >= 1"
                                 % (key,))
            (n, m), = mon
        else:
            n, m = 1, _canonical_nonsep(key, d)
        v = Fraction(v)
        for p in set(itertools.permutations(m)):
            cells[(n,) + p] = v
    return Theory(d, kind, label, n_cap, m_cap, variant=variant,
                  gen_fn=MultiSeries(variables, caps, cells))


def _spec_rational(v, where):
    """A rational read from a theory description: an int, a Fraction or a
    num/den string, never a float, whose binary value the user did not
    write."""
    if type(v) is int or isinstance(v, Fraction):
        return Fraction(v)
    try:
        return parse_rational(v)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def theory_from_spec(spec, d, n_cap, m_cap, variant="sep"):
    """Build a theory from a structured description.

    Accepted forms: {"builtin": name, "k": int} with name one of ck, ek,
    coarse-ck, coarse-ek, dt (which takes no k); {"mult_class":
    [coefficients of P]}; {"table": [{"n": int, "m": [int..], "value":
    "num/den"}, ...]}.  A description gives one form and no other key.
    Only ck and mult_class have a nonsep variant.
    """
    form = next((f for f in ("builtin", "mult_class", "table")
                 if isinstance(spec, dict) and f in spec), None)
    if form is None:
        raise ValueError("unrecognized theory description %r" % (spec,))
    what, takes = "%s theory" % form, (form,)
    if form == "builtin":
        what = "builtin theory %r" % (spec[form],)
        takes += ("k",) * (spec[form] != "dt")
    for key in spec:
        if key not in takes:
            raise ValueError("%s does not take option %r" % (what, key))
    if form == "builtin":
        name = spec["builtin"]
        k = spec.get("k", 1)
        if type(k) is not int:
            raise ValueError("builtin theory %r: option 'k' must be an "
                             "integer, got %r" % (name, k))
        if name not in ("ck", "ek", "coarse-ck", "coarse-ek", "dt"):
            raise ValueError("unknown builtin theory %r" % (name,))
    elif not isinstance(spec[form], list):
        raise ValueError("%s: %r must be a list, got %r" % (what, form,
                                                           spec[form]))
    if variant == "nonsep" and form != "mult_class" and spec[form] != "ck":
        raise ValueError("%s has no nonsep variant" % what)
    if form == "builtin":
        if name == "ck":
            return ck_theory(k, d, n_cap, m_cap, variant=variant)
        if name == "ek":
            return ek_theory(k, d, n_cap, m_cap)
        if name in ("coarse-ck", "coarse-ek"):
            if d != 1:
                raise ValueError("coarse theories need d = 1")
            kind = "chern" if name == "coarse-ck" else "euler"
            return coarse_curve_theory(k, kind, n_cap, m_cap)
        if d != 3:
            raise ValueError("the vertex theory needs d = 3")
        return dt_vertex_theory(n_cap, m_cap)
    if form == "mult_class":
        P = _unit_class([_spec_rational(c, "mult_class coefficient %d" % i)
                         for i, c in enumerate(spec["mult_class"], 1)])
        return mult_class_theory(P, d, n_cap, m_cap, variant=variant)
    entries = []
    for i, row in enumerate(spec["table"], 1):
        n, m, v = _fields(row, "table row %d" % i, "n", "m", "value")
        key, = _monomial_from_obj([[n, m]], "sep", "table row %d:" % i)
        entries.append((key, _spec_rational(v, "table row %d: 'value'" % i)))
    return table_theory(entries, d, n_cap, m_cap)
