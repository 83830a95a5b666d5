"""Hopf algebras of zero-dimensional cycle classes on a d-fold.

Two graded connected commutative and cocommutative Hopf algebras over Q are
modeled, both as free commutative polynomial algebras.

* The "sep" variant has generators q_{n,m} indexed by a multiplicity n >= 1
  and a vector m of d non-negative integers, stored weakly decreasing (row
  permutations give the same class).  The index (0, 0) is the unit and
  (0, m) with m nonzero is zero; neither occurs inside a monomial.  The
  coproduct of q_{n,m} sums q over all entrywise splittings of the full row
  (n, m), with zero rows dropped by the rule above.

* The "nonsep" variant has primitive generators q_lam indexed by partitions
  lam with at most d parts (trailing zeros padded to length d; the all-zero
  partition is a generator, not the unit).

Elements carry a basis flag: "q" for the generator basis and, for the sep
variant, "p" for the primitive basis obtained as the coefficientwise
logarithm of the formal sum of all q_{n,m}:

    p_{n,m} = sum_{k>=1} (-1)^(k+1)/k sum q_{n_1,m_1} ... q_{n_k,m_k}

over ordered compositions of (n, m) into k nonzero rows, and inversely
q_{n,m} = sum_k 1/k! sum p_{n_1,m_1} ... p_{n_k,m_k}.  The formal sum
Q = sum q_{n,m} T^n U^m (q_{0,0} = 1) is group-like, so the antipode is
S(Q) = Q^-1, that is S(q_{n,m}) = sum_k (-1)^k sum q_{n_1,m_1} ...
q_{n_k,m_k} over the same compositions; on primitives S is -1.  A
composition pairs one of n into k parts with an ordered splitting of m
into k columns, chosen independently, so these sums and the sep-to-nonsep
map share one table of column splittings per m (_columns), over which each
layer (_layer) hands out n once per monomial.  Every map, the coproduct
too, is unchanged by permuting entries of m, so each walks the splittings
a + b = m once per class (sort a, sort b), times its size (_split_classes).
A monomial is the sorted tuple of its generators' ids, which hash and
compare as ints; the sort keeps its form unique.  _IDS numbers each
generator's index row, a nonsep q_lam's being (1, lam), on first sight, in
one process-wide table that is never cleared; _GENS maps ids back.  A sep
q_{1,lam} and a nonsep q_lam share an id, read by variant (the coproduct
cache is keyed on it, a printer lives for one call).  Ids go back to sorted
rows (_decode) only at the boundary: the JSON writers, grade, Theory.pair
and the CLI's caps; terms reads them through _decoded, which turns nonsep
rows back into lam.  The text printers keep each id's entries, text and
degrees.  An element is (den, {monomial: int}), integer numerators over one
denominator, none 0, with gcd(den, *numerators) = 1, so zero is (1, {}).
Equality compares that form.  _reduced is the one place that drops a zero
sum or divides by a gcd.  Every term map that sums coefficients comes from
_linear, the linear extension of a map on monomials in integer numerators
over one denominator (a generator's image is over n!, lcm(1..n), 1 or n!):
the structure maps', sums' and the constructor's; products and scalar
multiples sum straight into integers.  Each returns through _reduced, and
_built stores the result unchecked.  terms is a read-only {nested monomial:
Fraction} view built on first read.  Tensors (TensorElement) share
HopfElement's body.  A product has one kernel per term-map shape, named by
each class as _product: _poly_mul, or _tensor_mul on (left, right) pairs,
which also multiplies a monomial's factors' coproducts (a bialgebra).

Gradings per monomial (_degrees): cycle degree is the sum of the rows'
multiplicities n (for nonsep, the number of factors); homological degree is
twice the sum of all column entries; total is hom - 2*d*(cycle degree).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from operator import index
from types import MappingProxyType

from .combinat import pad_partition, vector_splittings
from .rational import _nonneg_int, _numerators, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ContextMismatchError(ValueError):
    pass


def canonical_generator(n, m):
    """The sep monomial of the index row (n, m): sorts m and folds in the
    unit/zero rule.

    Returns the one-factor monomial ((n, m sorted decreasingly),) for
    n >= 1, the empty monomial () (the unit) for (0, 0), and None (the
    zero element, which has no monomial) for n = 0 with m nonzero.
    """
    n = index(n)
    m = tuple(map(index, m))
    if n < 0 or min(m, default=0) < 0:
        raise ValueError("negative entry in generator index")
    if n == 0:
        return None if any(m) else ()
    return ((n, tuple(sorted(m, reverse=True))),)


def _canonical_nonsep(lam, d):
    """Canonical form of a nonsep index: lam sorted decreasingly and padded
    with zeros to length d."""
    lam = tuple(sorted(map(index, lam), reverse=True))
    if lam and lam[-1] < 0:
        raise ValueError("negative part in partition %r" % (lam,))
    return pad_partition(lam, d)


def _check_row(row, d, sep):
    n, m = row
    if not (type(n) is int and n >= 1):
        raise ValueError("sep factor needs multiplicity >= 1, got %r" % (row,))
    if len(m) != d or any(type(x) is not int or x < 0 for x in m) or (
            list(m) != sorted(m, reverse=True)):
        raise ValueError("bad exponent vector in %r for d=%d" % (row, d) if sep
                         else "bad nonsep factor %r for d=%d" % (m, d))


class _Ids(dict):
    """generator -> id, the next id given on first sight; _GENS[id] -> g."""

    def __missing__(self, g):
        i = self[g] = len(_GENS)
        _GENS.append(g)
        return i


_IDS, _GENS = _Ids(), []


def _ids(gens):
    """The id monomial of the canonical generators gens: their sorted ids."""
    return tuple(sorted(map(_IDS.__getitem__, gens)))


def _decode(mon):
    """The sorted rows of the id monomial mon."""
    return tuple(sorted(map(_GENS.__getitem__, mon)))


def _degrees(rows):
    """(cycle degree, homological degree) of a monomial's rows."""
    return sum(n for n, _ in rows), 2 * sum(sum(m) for _, m in rows)


def _context(d, variant, basis):
    """The dimension d as an int, once (d, variant, basis) is checked."""
    d = _nonneg_int(d, "dimension")
    if variant not in ("sep", "nonsep"):
        raise ValueError("variant must be 'sep' or 'nonsep'")
    if basis not in ("q", "p"):
        raise ValueError("basis must be 'q' or 'p'")
    return d


def _poly_mul(a, b):
    """Product of two monomial -> integer numerator maps."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(sorted(m1 + m2))
            out[mon] = out.get(mon, 0) + c1 * c2
    return out


def _tensor_mul(a, b):
    """Product of two (left, right) -> integer numerator maps, side by side:
    (l1 ox r1)(l2 ox r2) = l1 l2 ox r1 r2.  Where b's side is the unit, a's
    is kept as it is, not sorted again (1 ox g and g ox 1 are common)."""
    out = {}
    for (l1, r1), c1 in a.items():
        for (l2, r2), c2 in b.items():
            key = (tuple(sorted(l1 + l2)) if l2 else l1,
                   tuple(sorted(r1 + r2)) if r2 else r1)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class HopfElement:
    """A sparse rational linear combination of monomials in the generators,
    stored as integer numerators _nums over one denominator _den."""

    __slots__ = ("d", "variant", "basis", "_den", "_nums", "_terms")
    _unit_key = ()  # the monomial of a scalar
    _product = staticmethod(_poly_mul)  # the term maps' product

    def __init__(self, d, variant, basis, terms=None):
        self.d = _context(d, variant, basis)
        self.variant = variant
        self.basis = basis
        terms = terms or {}
        mons = [self._canonical(key) for key in terms]  # keys checked first
        den, nums = _numerators(dict(enumerate(map(Fraction, terms.values()))))
        self._den, self._nums = _linear(den, nums, lambda i: (1, {mons[i]: 1}))
        self._terms = None

    @property
    def terms(self):
        """A read-only {monomial: Fraction} view: built from the numerators
        on first read and kept, equal values sharing one Fraction."""
        terms = self._terms
        if terms is None:
            den, nums = self._den, self._nums
            fracs = {c: Fraction(c, den) for c in set(nums.values())}
            terms = self._terms = MappingProxyType(
                {self._decoded(k): fracs[c] for k, c in nums.items()})
        return terms

    def _rows(self, mon):
        """mon's factors as rows (lam as (1, lam)), checked in nested order."""
        sep = self.variant == "sep"
        rows = sorted((g[0], tuple(g[1])) if sep else (1, tuple(g))
                      for g in mon)
        for row in rows:
            _check_row(row, self.d, sep)
        return rows

    def _canonical(self, mon):
        return _ids(self._rows(mon))

    def _decoded(self, mon):
        """The nested monomial of the id monomial mon, (1, lam) as lam."""
        rows = _decode(mon)
        return rows if self.variant == "sep" else tuple(m for _, m in rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d, variant="sep", basis="q"):
        return cls(d, variant, basis)

    @classmethod
    def unit(cls, d, variant="sep", basis="q"):
        return cls(d, variant, basis, {(): _ONE})

    @classmethod
    def generator(cls, d, n, m, basis="q"):
        """The sep generator q_{n,m} (or p_{n,m}), via the canonical rules."""
        if len(tuple(m)) != d:
            raise ValueError("exponent vector has length %d, expected %d" %
                             (len(tuple(m)), d))
        mon = canonical_generator(n, m)
        return cls(d, "sep", basis, None if mon is None else {mon: _ONE})

    @classmethod
    def nonsep_generator(cls, d, lam):
        return cls(d, "nonsep", "q", {(_canonical_nonsep(lam, d),): _ONE})

    # -- basics ------------------------------------------------------------

    def _check_context(self, other):
        if (type(other) is not type(self) or self.d != other.d
                or self.variant != other.variant or self.basis != other.basis):
            raise ContextMismatchError("elements live in different contexts")

    def _like(self, form):
        return _built(type(self), self.d, self.variant, self.basis, form)

    def is_zero(self):
        return not self._nums

    def coefficient(self, mon):
        """The coefficient of mon in any factor order (ValueError if a factor
        is not canonical here); an unmet generator, id -1, is not interned."""
        ids = [_IDS.get(row, -1) for row in self._rows(mon)]
        return Fraction(self._nums.get(tuple(sorted(ids)), 0), self._den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.d == other.d and self.variant == other.variant
                and self.basis == other.basis and self._den == other._den
                and self._nums == other._nums)

    __hash__ = None

    def __repr__(self):
        return "HopfElement(d=%d, %s, %s basis, %d terms)" % (
            self.d, self.variant, self.basis, len(self._nums))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)(self.d, self.variant, self.basis,
                               {self._unit_key: other})
        self._check_context(other)
        parts = ((self._den, self._nums), (other._den, other._nums))
        return self._like(_linear(1, {0: 1, 1: 1}, parts.__getitem__))

    __radd__ = __add__

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scaled(self, c):
        c = Fraction(c)
        num = c.numerator
        return self._like(_reduced(self._den * c.denominator,
                                   {k: num * x for k, x
                                    in self._nums.items()}))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check_context(other)
        return self._like(_reduced(self._den * other._den,
                                   self._product(self._nums, other._nums)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out, base = HopfElement.unit(self.d, self.variant, self.basis), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- coalgebra ---------------------------------------------------------

    def counit(self):
        """Coefficient of the empty monomial."""
        return Fraction(self._nums.get((), 0), self._den)

    def coproduct(self):
        """On sep elements in the q basis, and on nonsep elements in either
        basis: the nonsep generators are primitive, so p is a relabelling."""
        if self.variant == "sep" and self.basis != "q":
            raise ValueError("coproduct expects the q basis, convert first")
        return _built(TensorElement, self.d, self.variant, self.basis,
                      _linear(self._den, self._nums, lambda mon: (
                          1, _monomial_coproduct(self.variant, mon))))

    def antipode(self):
        """Multiplicative: -1 on each primitive factor (sep p basis and
        nonsep), and S(q_{n,m}) = [T^n U^m] Q^-1 on each sep generator."""
        if self.variant == "sep" and self.basis == "q":
            return self._like(_substitute(self._den, self._nums,
                                          _antipode_in_q))
        return self._like((self._den, {m: c if len(m) % 2 == 0 else -c
                                       for m, c in self._nums.items()}))

    # -- basis change ------------------------------------------------------

    def to_p(self):
        """Rewrite in the primitive basis."""
        return self._rebase("p", _q_in_p)

    def to_q(self):
        """Rewrite in the generator basis."""
        return self._rebase("q", _p_in_q)

    def _rebase(self, basis, expander):
        """self in basis: sep by substituting expander(*g) for each factor g,
        nonsep (whose generators are primitive) by relabelling."""
        if self.basis == basis:
            return self
        form = ((self._den, self._nums) if self.variant == "nonsep"
                else _substitute(self._den, self._nums, expander))
        return _built(HopfElement, self.d, self.variant, basis, form)

    # -- gradings ----------------------------------------------------------

    def grade(self):
        """Split into bigraded components.

        Returns a list of (cycle degree, homological degree, total degree,
        component), ordered by degree.  Total degree is hom - 2*d*cycle.
        """
        buckets = {}
        for mon, c in self._nums.items():
            cyc, hom = _degrees([_GENS[g] for g in mon])
            buckets.setdefault((cyc, hom), {})[mon] = c
        return [(cyc, hom, hom - 2 * self.d * cyc,
                 self._like(_reduced(self._den, buckets[cyc, hom])))
                for cyc, hom in sorted(buckets)]


class TensorElement:
    """An element of the two-fold tensor product, sparse over monomial pairs,
    with HopfElement's constructor checks and body, products too (which
    keeps the two types apart)."""

    __slots__ = ("d", "variant", "basis", "_den", "_nums", "_terms")
    _unit_key = ((), ())
    _product = staticmethod(_tensor_mul)

    __init__ = HopfElement.__init__
    terms = HopfElement.terms
    _rows = HopfElement._rows

    def _canonical(self, pair):
        """A (left, right) pair of monomials, each canonical and checked."""
        left, right = pair
        return (HopfElement._canonical(self, left),
                HopfElement._canonical(self, right))

    def _decoded(self, pair):
        return tuple(HopfElement._decoded(self, side) for side in pair)

    _like = HopfElement._like
    _check_context = HopfElement._check_context
    __eq__ = HopfElement.__eq__
    __hash__ = None
    __add__ = __radd__ = HopfElement.__add__
    __neg__ = HopfElement.__neg__
    __sub__ = HopfElement.__sub__
    __rsub__ = HopfElement.__rsub__
    scaled = HopfElement.scaled
    __mul__ = __rmul__ = HopfElement.__mul__

    def __repr__(self):
        return "TensorElement(d=%d, %s, %d terms)" % (self.d, self.variant,
                                                      len(self._nums))

    def swap(self):
        return self._like((self._den, {(r, l): c for (l, r), c
                                       in self._nums.items()}))

    def left_counit(self):
        """Apply the counit to the left slot, landing back in the algebra:
        the terms 1 ox r, as r."""
        return _built(HopfElement, self.d, self.variant, self.basis,
                      _reduced(self._den, {r: c for (l, r), c
                                           in self._nums.items() if not l}))

    def right_counit(self):
        return _built(HopfElement, self.d, self.variant, self.basis,
                      _reduced(self._den, {l: c for (l, r), c
                                           in self._nums.items() if not r}))


def tensor(a, b):
    """The simple tensor a ox b of two elements in the same context."""
    a._check_context(b)
    right = b._nums.items()
    return _built(TensorElement, a.d, a.variant, a.basis,
                  _reduced(a._den * b._den, {(m1, m2): c1 * c2 for m1, c1
                                             in a._nums.items()
                                             for m2, c2 in right}))


def _built(cls, d, variant, basis, form):
    """A HopfElement or TensorElement holding form = (den, {key: int}) as
    given: canonical keys to nonzero integer numerators over den, with
    gcd(den, *numerators) = 1.  That is what _reduced returns, and a
    relabelling or sign flip of it keeps it.  Nothing is checked or
    filtered."""
    out = object.__new__(cls)
    out.d, out.variant, out.basis = d, variant, basis
    out._den, out._nums = form
    out._terms = None
    return out


# -- structure constants ---------------------------------------------------

@lru_cache(maxsize=None)
def _split_classes(m):
    """((sort a, sort b), w) over the classes of the splittings a + b = m,
    w the number of ordered splittings whose sides sort to that pair."""
    out = {}
    for a, b in vector_splittings(m):
        key = (tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True)))
        out[key] = out.get(key, 0) + 1
    return tuple(out.items())


@lru_cache(maxsize=None)
def _generator_coproduct(n, m):
    """Coproduct of one sep generator as a map (left mono, right mono) ->
    count, one pair per canonical splitting class of the row (n, m)."""
    out = {}
    for (a, b), w in _split_classes(m):
        for n1 in range(n + 1):
            left = canonical_generator(n1, a)
            right = canonical_generator(n - n1, b)
            if left is not None and right is not None:
                out[_ids(left), _ids(right)] = w
    return out


@lru_cache(maxsize=None)
def _monomial_coproduct(variant, mon):
    """Coproduct of a monomial as a map (left mono, right mono) -> count:
    the product of its factors' coproducts (a nonsep factor is primitive)."""
    pairs = {((), ()): 1}
    for g in mon:
        pairs = _tensor_mul(pairs, _generator_coproduct(*_GENS[g])
                            if variant == "sep"
                            else {((g,), ()): 1, ((), (g,)): 1})
    return pairs


def _reduced(den, acc):
    """The stored form of acc, integer numerators over den: the zero sums
    dropped and den and every numerator divided by their gcd, so zero is
    (1, {}).  No other place drops a term or divides."""
    nums = acc if all(acc.values()) else {k: c for k, c in acc.items() if c}
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: c // g for k, c in nums.items()}


def _linear(den, nums, image):
    """sum nums[key] / den * image(key) over the keys of nums, the linear
    extension of image(key) = (e, {key: int}), numerators over e, summed
    in integers over den times the lcm of every e, and _reduced."""
    parts = [(c, e, img) for c, (e, img)
             in zip(nums.values(), map(image, nums))]
    big = lcm(*(e for _, e, _ in parts))
    acc = {}
    for num, e, img in parts:
        num *= big // e
        for k, c in img.items():
            acc[k] = acc.get(k, 0) + num * c
    return _reduced(den * big, acc)


def _expand(mon, expander):
    """Each id g of mon replaced by expander(*_GENS[g]), integer numerators
    (e, {monomial: int}) over e, and multiplied out: (prod e, {mon: int});
    a single factor's image comes back as given, so callers only read it."""
    den, prod = expander(*_GENS[mon[0]]) if mon else (1, {(): 1})
    for g in mon[1:]:
        e, img = expander(*_GENS[g])
        den, prod = den * e, _poly_mul(prod, img)
    return den, prod


def _substitute(den, nums, expander):
    """_expand on every monomial of nums / den, summed by _linear."""
    return _linear(den, nums, lambda mon: _expand(mon, expander))


@lru_cache(maxsize=None)
def _columns(k, m):
    """A_k(k, m): the ordered splittings of m into k columns, as {sorted
    column tuple: count}.  Peeling off the first column a, A_k(k, m) sums
    (sort a) A_(k-1)(k-1, sort(m - a)) once per class (sort a, sort(m - a)),
    times the w splittings in it (_split_classes): m = (3, 3) has 16
    splittings in 10 classes, (3, 3, 2) has 48 in 30."""
    if k == 1:
        return {(m,): 1}
    acc = {}
    for (a, b), w in _split_classes(m):
        for cols, c in _columns(k - 1, b).items():
            cols = tuple(sorted(cols + (a,)))
            acc[cols] = acc.get(cols, 0) + w * c
    return acc


@lru_cache(maxsize=None)
def _shares(n, runs):
    """Each distinct way to hand n out over runs of e_1, e_2, ... equal
    columns, each at least 1, as (multiplicities, weight): a run of e takes
    a partition of its share into e parts, weighted by the e!/prod mult!
    compositions that sort to it.  One run's parts are all equal, or j < e
    are the smallest, v, and the others v plus a partition of n - e v."""
    e, rest = runs[0], runs[1:]
    if rest:
        return [(p + q, w * v) for s in range(e, n - sum(rest) + 1)
                for p, w in _shares(s, (e,)) for q, v in _shares(n - s, rest)]
    return [((n // e,) * e, 1)] * (n % e == 0) + [
        ((v,) * j + tuple(x + v for x in p), comb(e, j) * w)
        for v in range(1, n // e + 1)
        for j in range(max(1, e * (v + 1) - n), e)
        for p, w in _shares(n - e * v, (e - j,))]


@lru_cache(maxsize=None)
def _layer(k, n, m):
    """A_k(n, m): the ordered compositions of the canonical row (n, m) into
    k rows with positive multiplicities, as {monomial: count}: each column
    tuple of A_k(k, m) takes every distribution of n from _shares once."""
    return {_ids(zip(ns, cols)): c * w
            for cols, c in _columns(k, m).items()
            for ns, w in _shares(n, tuple(map(cols.count,
                                              dict.fromkeys(cols))))}


def _composition_sum(n, m, den, weight):
    """(den, sum_k weight(k) A_k(n, m)), the weights integer numerators
    over den.  Every monomial of A_k has k factors, so no two layers share
    one and no coefficient cancels."""
    return den, {mon: w * c for k in range(1, n + 1) for w in (weight(k),)
                 for mon, c in _layer(k, n, m).items()}


@lru_cache(maxsize=None)
def _p_in_q(n, m):
    """p_{n,m} in q monomials (signs (-1)^(k+1)/k), over lcm(1..n)."""
    den = lcm(*range(1, n + 1))
    return _composition_sum(n, m, den, lambda k: (-1) ** (k + 1) * den // k)


@lru_cache(maxsize=None)
def _q_in_p(n, m):
    """q_{n,m} expanded in p monomials (1/k!), over n!."""
    den = factorial(n)
    return _composition_sum(n, m, den, lambda k: den // factorial(k))


@lru_cache(maxsize=None)
def _antipode_in_q(n, m):
    """S(q_{n,m}) = [T^n U^m] Q^-1 in q monomials (signs (-1)^k)."""
    return _composition_sum(n, m, 1, lambda k: (-1) ** k)


# -- sep -> nonsep ---------------------------------------------------------

@lru_cache(maxsize=None)
def _sep_gen_image(n, m):
    """Image of the sep generator q_{n,m}: A_n(n, m) over n!, the ordered
    splittings of m into n columns, each column a nonsep generator."""
    return factorial(n), {_ids((1, col) for col in cols): c
                          for cols, c in _columns(n, m).items()}


def sep_to_nonsep(x):
    """The algebra map from the sep to the nonsep variant.

    On the q basis, q_{n,m} goes to 1/n! times the sum over ordered
    splittings of m into n columns; on the p basis, p_{1,m} goes to
    q_{sorted m} and p_{n,.} with n >= 2 goes to zero.  Extended
    multiplicatively and linearly.
    """
    if x.variant != "sep":
        raise ContextMismatchError("sep_to_nonsep expects the sep variant")
    image = (_sep_gen_image if x.basis == "q"
             else lambda n, m: (1, {(_IDS[n, m],): 1} if n == 1 else {}))
    return _built(HopfElement, x.d, "nonsep", "q",
                  _substitute(x._den, x._nums, image))


# -- vertical classes ------------------------------------------------------

def _class_generators(chern, n_max, variant="sep"):
    """The generators of [Z] = exp(sum_g <m_lam> g T^j) and D, the lcm of
    the Chern numbers' denominators: a map from the row of each sep
    generator g = p_{j, lam+j-1} (nonsep: g = q_lam, the layer j = 1 alone)
    to its T-degree j and integer weight c_g = <m_lam> D^j."""
    n_max = _nonneg_int(n_max, "n_max")
    _context(chern.d, variant, "q")
    den, rows = _numerators({pad_partition(lam, chern.d): val
                             for lam, val in chern.items() if val})
    top = n_max if variant == "sep" else 1
    return {(j, tuple(x + j - 1 for x in row)): (j, c * den ** (j - 1))
            for j in range(1, top + 1) for row, c in rows.items()}, den


def vertical_element(chern, n_max, variant="sep"):
    """The cycle classes [Z_n] of the symmetric powers, n = 0 .. n_max.

    sep variant: coefficients of exp(sum_lam <m_lam> sum_j p_{j, lam+j-1} T^j)
    as a series in T, returned in the p basis.  nonsep variant:
    coefficients of exp(T * sum_lam <m_lam> q_lam), in the q basis.  Both
    are built over the integers as V_n = n! D^n [Z_n], with D the lcm of
    the Chern numbers' denominators, and stored as V_n over n! D^n.

    With the weights c_g of _class_generators, V_n = n! [T^n] exp(sum_g c_g
    g T^j), so by the exponential formula its monomial prod g^(k_g) has
    V_n = n! prod c_g^(k_g) / k_g!.  Taking the generators from the highest
    id down, every monomial made of generators above g = (j, .) gets 1, 2,
    ... copies of g, reading the V_n n descending: a child lands in a higher
    V, already read for g, so each monomial is built once, from its parent
    that lacks one g, and g's id prepended to it keeps it sorted.  A child
    of T-degree m with k copies of g is worth its parent's value times c_g
    m!/(m-j)! / k.  That division is exact: the quotient is the child's
    V_m, an integer because sum k_g <= m.
    """
    coeffs, den = _class_generators(chern, n_max, variant)
    n_max = index(n_max)
    vs = [{(): 1}] + [{} for _ in range(n_max)]
    for g, (j, c) in sorted(((_IDS[g], jc) for g, jc in coeffs.items()),
                            reverse=True):
        for n in range(n_max - j, -1, -1):
            steps = [(vs[m], c * perm(m, j), k) for k, m in
                     enumerate(range(n + j, n_max + 1, j), 1)]
            for mon, x in vs[n].items():
                for v, w, k in steps:
                    mon = (g,) + mon
                    x = x * w // k
                    v[mon] = x
    basis = "p" if variant == "sep" else "q"
    scales = [factorial(n) * den ** n for n in range(n_max + 1)]
    return [_built(HopfElement, chern.d, variant, basis, _reduced(scale, v))
            for scale, v in zip(scales, vs)]


# -- serialization ---------------------------------------------------------

def _monomial_key(mon):
    rows = _decode(mon)
    return (*_degrees(rows), rows)


def _monomial_to_obj(rows):
    return [[n, list(m)] for n, m in rows]


def _fields(obj, what, *keys):
    """The values of keys in the JSON object obj; a ValueError names what
    is not an object or which key is missing."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object, got %s" %
                         (what, type(obj).__name__))
    for key in keys:
        if key not in obj:
            raise ValueError("%s has no %r key" % (what, key))
    return [obj[key] for key in keys]


def _monomial_from_obj(obj, variant, where):
    """The monomial read from obj, a JSON list of [n, [m_1, ..., m_d]]
    factors with integer entries; where names the field in messages."""
    if type(obj) is not list or any(type(f) is not list or len(f) != 2
                                    for f in obj):
        raise ValueError("%s %r is not a list of [n, [m_1, ..., m_d]] "
                         "factors" % (where, obj))
    for n, m in obj:
        if type(n) is not int:
            raise ValueError("%s 'n' must be an integer, got %r" % (where, n))
        if type(m) is not list or any(type(x) is not int for x in m):
            raise ValueError("%s 'm' must be a list of integers, got %r" %
                             (where, m))
    if variant == "sep":
        return tuple((n, tuple(m)) for n, m in obj)
    if any(n != 1 for n, _ in obj):
        raise ValueError("nonsep factors must carry multiplicity 1")
    return tuple(tuple(m) for _, m in obj)


def _context_and_terms(obj, what, *sides):
    """The context and the summed term map of obj, the JSON form of an
    element (sides "monomial") or a tensor (sides "left", "right"), each
    field checked; the constructor then sorts and checks every factor."""
    d, variant, basis, rows = _fields(obj, what, "d", "variant", "basis",
                                      "terms")
    if type(d) is not int:
        raise ValueError("%s: 'd' must be an integer, got %r" % (what, d))
    if type(rows) is not list:
        raise ValueError("%s: 'terms' must be a list, got %r" % (what, rows))
    _context(d, variant, basis)
    terms = {}
    for i, row in enumerate(rows, 1):
        where = "%s term %d" % (what, i)
        *mons, coeff = _fields(row, where, *sides, "coeff")
        key = tuple(_monomial_from_obj(mon, variant, "%s: %s" % (where, side))
                    for side, mon in zip(sides, mons))
        terms[key] = terms.get(key, _ZERO) + parse_rational(coeff)
    return d, variant, basis, terms


def _coeff_texts(den, nums):
    """{numerator: "num/den"} for each distinct numerator over den, in
    lowest terms by one gcd."""
    texts = {}
    for c in set(nums.values()):
        g = gcd(c, den)
        texts[c] = "%d/%d" % (c // g, den // g)
    return texts


def element_to_obj(x):
    texts = _coeff_texts(x._den, x._nums)
    rows = sorted((_monomial_key(mon), c)
                  for mon, c in x._nums.items())  # keys are distinct
    return {
        "d": x.d,
        "variant": x.variant,
        "basis": x.basis,
        "terms": [{"monomial": _monomial_to_obj(key[2]),
                   "coeff": texts[c]} for key, c in rows],
    }


def element_from_obj(obj):
    d, variant, basis, terms = _context_and_terms(obj, "element", "monomial")
    return HopfElement(d, variant, basis,
                       {mon: c for (mon,), c in terms.items()})


def tensor_to_obj(t):
    texts = _coeff_texts(t._den, t._nums)
    rows = sorted((_monomial_key(l), _monomial_key(r), c)
                  for (l, r), c in t._nums.items())  # key pairs are distinct
    return {
        "d": t.d,
        "variant": t.variant,
        "basis": t.basis,
        "terms": [{"left": _monomial_to_obj(l_key[2]),
                   "right": _monomial_to_obj(r_key[2]),
                   "coeff": texts[c]}
                  for l_key, r_key, c in rows],
    }


def tensor_from_obj(obj):
    return TensorElement(*_context_and_terms(obj, "tensor", "left", "right"))


def _factor_pretty(row, variant, basis):
    n, m = row
    if variant == "sep":
        return "%s_{%d,(%s)}" % (basis, n, ",".join(map(str, m)))
    return "q_{(%s)}" % ",".join(map(str, m))


def _printer(variant, basis):
    """info(mon) -> (key, text) of an id monomial for one print call: key =
    (cycle degree, hom degree, *every factor's entries), which sorts as
    _monomial_key does because all factors of a context have one width,
    and text its factors joined by "*", a run of k equal ones as f^k, the
    unit as "1", runs in nested order (by their distinct entries).  Each
    id's entries, text and degrees are worked out once per call."""
    factors = {}

    def info(mon):
        runs, k = [], 1
        for g, after in zip(mon, mon[1:] + (None,)):
            if g == after:  # a run goes on
                k += 1
                continue
            if g not in factors:
                h = _GENS[g]
                factors[g] = ((h[0], *h[1]), _factor_pretty(h, variant, basis),
                              *_degrees((h,)))
            runs.append((factors[g], k))
            k = 1
        runs.sort()
        parts, entries, cyc, hom = [], [], 0, 0
        for (flat, f, g_cyc, g_hom), k in runs:
            parts.append(f if k == 1 else "%s^%d" % (f, k))
            entries += flat * k
            cyc += k * g_cyc
            hom += k * g_hom
        return (cyc, hom, *entries), "*".join(parts) or "1"
    return info


def element_pretty(x):
    if not x._nums:
        return "0"
    info = _printer(x.variant, x.basis)  # each monomial is printed once
    texts = _coeff_texts(x._den, x._nums)
    rows = []
    for mon, c in x._nums.items():
        key, text = info(mon)
        c = texts[c]
        rows.append((key, c + "*" + text if mon else c))
    rows.sort()  # keys are distinct, so no text is compared
    return " + ".join(text for _, text in rows)


def tensor_pretty(t):
    if not t._nums:
        return "0"
    info = lru_cache(maxsize=None)(_printer(t.variant, t.basis))  # sides recur
    texts = _coeff_texts(t._den, t._nums)
    rows = []
    for (l, r), c in t._nums.items():
        (l_key, l_text), (r_key, r_text) = info(l), info(r)
        rows.append((l_key, r_key, "%s*%s(x)%s" % (texts[c], l_text, r_text)))
    rows.sort()  # key pairs are distinct, so no text is compared
    return " + ".join(text for _, _, text in rows)
