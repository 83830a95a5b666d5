"""Integer partitions and entrywise vector splittings.

Partitions are weakly decreasing tuples of non-negative integers.  When a
dimension d is in scope the canonical form pads with trailing zeros to
length d (rows of length d index generators); stripping removes them again
for dictionary keys.
"""

import itertools
from math import factorial
from operator import index


def pad_partition(lam, d):
    lam = tuple(lam)
    if len(lam) > d:
        if any(x for x in lam[d:]):
            raise ValueError("partition %r has more than %d nonzero parts" % (lam, d))
        return lam[:d]
    return lam + (0,) * (d - len(lam))


def strip_partition(lam):
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def canonical_partition(lam):
    """Sort weakly decreasing and drop trailing zeros."""
    return strip_partition(tuple(sorted(lam, reverse=True)))


def partitions_of(k, max_parts, max_part=None):
    """All partitions of k with at most max_parts parts, reverse-lex order.

    >>> partitions_of(3, 3)
    [(3,), (2, 1), (1, 1, 1)]
    >>> partitions_of(4, 2)
    [(4,), (3, 1), (2, 2)]
    >>> partitions_of(0, 2)
    [()]
    """
    k = index(k)
    if k < 0 or max_parts < 1:
        raise ValueError("need k >= 0 and max_parts >= 1")
    bound = k if max_part is None else min(k, max_part)
    out = []

    def descend(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        # ceil: the parts left can hold what remains, so a prefix reaches
        # max_parts parts only with nothing remaining
        lo = -(-remaining // (max_parts - len(prefix)))
        for part in range(min(remaining, largest), lo - 1, -1):
            descend(remaining - part, part, prefix + [part])

    descend(k, bound, [])
    return out


def num_orderings(lam):
    """Number of distinct rearrangements of the tuple lam (zeros included).

    >>> num_orderings((2, 1, 0))
    6
    >>> num_orderings((1, 1))
    1
    """
    lam = tuple(lam)
    n = factorial(len(lam))
    for v in set(lam):
        n //= factorial(lam.count(v))
    return n


def _desc_vectors(d, cap):
    """Weakly decreasing vectors in {0..cap}^d, in graded order."""
    vecs = [tuple(reversed(c)) for c in
            itertools.combinations_with_replacement(range(cap + 1), d)]
    return sorted(vecs, key=lambda v: (sum(v), v))


def vector_splittings(v):
    """All ordered pairs (a, b) of non-negative vectors with a + b = v.

    The count is prod(v_i + 1).

    >>> vector_splittings((1,))
    [((0,), (1,)), ((1,), (0,))]
    """
    v = tuple(map(index, v))
    if any(x < 0 for x in v):
        raise ValueError("negative entry")
    out = []
    for a in itertools.product(*[range(x + 1) for x in v]):
        b = tuple(x - y for x, y in zip(v, a))
        out.append((a, b))
    return out

