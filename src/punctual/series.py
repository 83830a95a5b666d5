"""Truncated multivariate formal power series over Q.

A MultiSeries is a sparse map from exponent vectors to Fraction coefficients
in a fixed ordered tuple of variables, together with hard truncation caps: a
per-variable maximum exponent, and optionally a total-degree cap.  Every
operation truncates eagerly, so term counts stay bounded and results are
reproducible.  Values are immutable after construction and all operations
are pure.  The constructor checks caller input with C builtins and keeps an
exact Fraction as given; internal code hands its terms over through _built.

exp and log run a layer recursion on total degree (differentiate, multiply,
integrate back), which costs about one series multiplication in total and
stays cheap whenever one side is sparse.  Rational powers are exp(r*log f),
never Newton iteration; with exact arithmetic this is always well defined
for unit constant term.

Products, exp and log run on integers and build one Fraction per output
term at the end.  An exponent vector is packed into one int (Kronecker
substitution): each variable gets a field of cap.bit_length() + 1 bits whose
top bit is a guard, and a last field holds the total degree, capped at the
degree bound.  Adding ``bias`` lifts every field's cap to one below its guard
bit, so ``(e1 + e2 + bias) & guard`` is nonzero exactly when a sum passes a
per-variable cap or the total cap; a field holds at most twice its cap, so no
field carries into the next.  Coefficients are integer numerators over one
denominator D, the lcm of the input's denominators (FLINT's fmpq_poly
layout): a product is over D_a*D_b.  exp and log scale the degree-k layer by
D^k (the substitution x -> D*x), which makes every layer integral and keeps
the recursion in integer sums of products, so the result is exact.  The
price is size: layer k of log carries k*D^k*log(f)_k, about k*log2(D) bits,
and layer k of exp carries k!*D^k*exp(f)_k, log2(k!) bits more.  The log of
the coarse c^2 table at caps (32, 32) has a 118-bit D and 64 layers: scaled
numerators reach about 7,600 bits, where the result's numerators have at
most 74 bits and its denominators are at most 32.
"""

from fractions import Fraction
from math import factorial
from operator import index, le

from .rational import _nonneg_int, _numerators, format_rational, parse_rational

_ZERO = Fraction(0)


class _Packing:
    """Term maps as {packed exponent: integer numerator} over a common
    denominator, for given caps and total-degree bound.  The total-degree
    field is on top, so ``p >> top`` is the total degree of the packed p."""

    __slots__ = ("fields", "top", "bias", "guard")

    def __init__(self, caps, bound):
        self.fields, self.bias, self.guard, shift = [], 0, 0, 0
        for cap in caps + (bound,):
            width = cap.bit_length() + 1
            self.fields.append((shift, (1 << width) - 1))
            self.bias += ((1 << width - 1) - 1 - cap) << shift
            self.guard += 1 << shift + width - 1
            shift += width
        self.top = self.fields.pop()[0]

    def pack(self, e):
        return sum(x << s for x, (s, _) in zip(e, self.fields)) + \
            (sum(e) << self.top)

    def encode(self, terms):
        """(D, {packed e: D*c_e}), D the lcm of the denominators."""
        den, nums = _numerators(terms)
        return den, {self.pack(e): c for e, c in nums.items()}

    def scaled_layers(self, terms):
        """(D, {k: {packed e: D^k*c_e}}) over the terms of degree k >= 1."""
        den, nums = self.encode(terms)
        layers = {}
        for p, c in nums.items():
            k = p >> self.top
            if k:
                layers.setdefault(k, {})[p] = c * den ** (k - 1)
        return den, layers

    def decode_into(self, terms, nums, den):
        """Set terms[unpacked p] = nums[p] / den for each nonzero nums[p]."""
        fields = self.fields
        for p, c in nums.items():
            if c:
                e = tuple([p >> s & m for s, m in fields])
                terms[e] = Fraction(c, den)
        return terms


def _mul_into(acc, a, b, packing):
    """Add the product of the packed integer term maps a and b into acc,
    dropping every exponent past a per-variable cap or the total cap;
    returns acc."""
    bias, guard = packing.bias, packing.guard
    get = acc.get
    for e1, c1 in a.items():
        lifted = e1 + bias
        for e2, c2 in b.items():
            if (lifted + e2) & guard:
                continue
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


class MultiSeries:

    __slots__ = ("variables", "caps", "total_cap", "terms")

    def __init__(self, variables, caps, terms=None, total_cap=None):
        variables = tuple(str(v) for v in variables)
        caps = tuple(map(index, caps))
        if len(caps) != len(variables):
            raise ValueError("need one cap per variable")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be >= 0")
        if total_cap is not None:
            total_cap = _nonneg_int(total_cap, "total cap")
        self.variables = variables
        self.caps = caps
        self.total_cap = total_cap
        kept = {}
        if terms:
            nvars = len(caps)
            for exps, c in terms.items():
                e = tuple(map(int, exps))
                if e != exps and any(not isinstance(x, str) and x != k
                                     for x, k in zip(exps, e)):
                    raise TypeError("exponent vector %r has a non-integer "
                                    "entry" % (exps,))
                if len(e) != nvars:
                    raise ValueError("exponent vector of wrong length")
                if e and min(e) < 0:
                    raise ValueError("negative exponent")
                if not all(map(le, e, caps)) or (
                        total_cap is not None and sum(e) > total_cap):
                    continue
                if type(c) is not Fraction:
                    c = Fraction(c)
                if e in kept:
                    c += kept[e]
                    if not c:
                        del kept[e]
                if c:
                    kept[e] = c
        self.terms = kept

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, caps, total_cap=None):
        return cls(variables, caps, None, total_cap)

    @classmethod
    def one(cls, variables, caps, total_cap=None):
        z = (0,) * len(tuple(variables))
        return cls(variables, caps, {z: Fraction(1)}, total_cap)

    @classmethod
    def monomial(cls, variables, caps, exponents, coeff=1, total_cap=None):
        return cls(variables, caps, {tuple(exponents): Fraction(coeff)}, total_cap)

    @classmethod
    def var(cls, variables, caps, name, total_cap=None):
        """The series consisting of the single variable ``name``."""
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls.monomial(variables, caps, e, 1, total_cap)

    # -- basics ------------------------------------------------------------

    def _degree_bound(self):
        bound = sum(self.caps)
        if self.total_cap is not None:
            bound = min(bound, self.total_cap)
        return bound

    def _packing(self):
        return _Packing(self.caps, self._degree_bound())

    def _like(self, terms):
        return _built(self.variables, self.caps,
                      {e: c for e, c in terms.items() if c}, self.total_cap)

    def _check_compatible(self, other):
        if not isinstance(other, MultiSeries):
            raise TypeError("not a MultiSeries: %s" % type(other).__name__)
        if (self.variables != other.variables or self.caps != other.caps
                or self.total_cap != other.total_cap):
            raise ValueError("series variables/caps mismatch")

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), _ZERO)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), _ZERO)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.variables == other.variables and self.caps == other.caps
                and self.total_cap == other.total_cap and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return "MultiSeries(%r, %d terms)" % (self.variables, len(self.terms))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.monomial(self.variables, self.caps,
                                         (0,) * len(self.variables), other,
                                         self.total_cap)
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like({e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        packing = self._packing()
        da, a = packing.encode(self.terms)
        db, b = packing.encode(other.terms)
        if len(a) > len(b):
            a, b = b, a
        return self._like(packing.decode_into({}, _mul_into({}, a, b, packing),
                                              da * db))

    __rmul__ = __mul__

    def __pow__(self, k):
        """Integer power by repeated squaring (k >= 0)."""
        k = index(k)
        if k < 0:
            raise ValueError("negative integer power, use pow() with a Fraction")
        out = MultiSeries.one(self.variables, self.caps, self.total_cap)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- exp / log / rational powers --------------------------------------

    def exp(self):
        """exp(f) = sum f^k / k!, requires zero constant term."""
        if self.constant_term():
            raise ValueError("exp needs zero constant term")
        packing = self._packing()
        den, f = packing.scaled_layers(self.terms)
        # f[j] holds D^j*f_j and g[k] holds k!*D^k*exp(f)_k, so
        # k*exp(f)_k = sum_j j*f_j*exp(f)_(k-j) becomes
        # g[k] = sum_j j*(k-1)!/(k-j)! * f[j]*g[k-j]
        g = {0: {0: 1}}
        for k in range(1, self._degree_bound() + 1):
            acc = {}
            for j, fj in f.items():
                prev = g.get(k - j)
                if j <= k and prev:
                    scale = j * factorial(k - 1) // factorial(k - j)
                    _mul_into(acc, {p: scale * c for p, c in fj.items()}, prev,
                              packing)
            layer = {p: c for p, c in acc.items() if c}
            if layer:
                g[k] = layer
        terms = {}
        for k, layer in g.items():
            packing.decode_into(terms, layer, factorial(k) * den ** k)
        return self._like(terms)

    def log(self):
        """log(f) for constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        packing = self._packing()
        den, f = packing.scaled_layers(self.terms)
        # f[k] holds D^k*f_k and theta[k] holds k*D^k*log(f)_k, so
        # k*f_k = sum_j j*log(f)_j*f_(k-j) becomes
        # theta[k] = k*f[k] - sum_(j<k) theta[j]*f[k-j]; the kernel only
        # adds, so it multiplies by the layers of -f
        neg = {k: {p: -c for p, c in fk.items()} for k, fk in f.items()}
        theta = {}
        for k in range(1, self._degree_bound() + 1):
            acc = {p: k * c for p, c in f.get(k, {}).items()}
            for j in range(1, k):
                tj = theta.get(j)
                neg_f = neg.get(k - j)
                if tj and neg_f:
                    _mul_into(acc, tj, neg_f, packing)
            layer = {p: c for p, c in acc.items() if c}
            if layer:
                theta[k] = layer
        terms = {}
        for k, layer in theta.items():
            packing.decode_into(terms, layer, k * den ** k)
        return self._like(terms)

    def pow(self, r):
        """f^r for rational r, computed as exp(r*log f)."""
        return (self.log() * Fraction(r)).exp()

    # -- serialization -----------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def to_obj(self):
        return {
            "variables": list(self.variables),
            "caps": list(self.caps),
            "total_cap": self.total_cap,
            "terms": [{"exponents": list(e), "coeff": format_rational(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_obj(cls, obj):
        terms = {tuple(t["exponents"]): parse_rational(t["coeff"])
                 for t in obj["terms"]}
        return cls(obj["variables"], obj["caps"], terms, obj.get("total_cap"))

    def pretty(self):
        """Deterministic one-line form, coefficients always num/den."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [format_rational(c)]
            for name, x in zip(self.variables, e):
                if x == 1:
                    factors.append(name)
                elif x > 1:
                    factors.append("%s^%d" % (name, x))
            parts.append("*".join(factors))
        return " + ".join(parts)


def _built(variables, caps, terms, total_cap=None):
    """A MultiSeries holding terms, in-cap int tuples mapped to nonzero
    Fractions, as given; nothing is checked or filtered."""
    s = object.__new__(MultiSeries)
    s.variables, s.caps, s.terms, s.total_cap = variables, caps, terms, total_cap
    return s


def _macmahon_log(cap, sign=1):
    """log M(sign*T) to T^cap, M the MacMahon series: the sum of
    sign^n sigma_2(n)/n T^n, sigma_2(n) the sum of the squares of the
    divisors of n."""
    cap = _nonneg_int(cap, "cap")
    return _built(("T",), (cap,), {(n,): Fraction(sign ** n * sum(
        j * j for j in range(1, n + 1) if n % j == 0), n)
        for n in range(1, cap + 1)})


def macmahon_series(cap):
    """MacMahon's plane partition series M = prod_{n>=1} (1-T^n)^(-n), to
    T^cap, as the exp of its logarithm

        log M = sum_n -n log(1-T^n) = sum_n sigma_2(n)/n T^n.

    >>> [macmahon_series(4).coefficient((k,)) for k in range(5)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(3, 1), Fraction(6, 1), Fraction(13, 1)]
    """
    return _macmahon_log(cap).exp()
