import pytest

from punctual.combinat import (canonical_partition, num_orderings,
                               pad_partition, partitions_of, strip_partition,
                               vector_splittings)


def test_pad_strip():
    assert pad_partition((2, 1), 3) == (2, 1, 0)
    assert pad_partition((2, 1, 0, 0), 3) == (2, 1, 0)
    assert strip_partition((2, 1, 0, 0)) == (2, 1)
    assert strip_partition((0, 0)) == ()
    with pytest.raises(ValueError):
        pad_partition((1, 1, 1), 2)


def test_canonical():
    assert canonical_partition((0, 2, 1)) == (2, 1)
    assert canonical_partition(()) == ()


def test_partitions_of():
    assert partitions_of(3, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_of(4, 4, max_part=2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0, 3) == [()]
    # partition counts p(k) with unbounded width
    assert [len(partitions_of(k, k or 1)) for k in range(8)] == \
        [1, 1, 2, 3, 5, 7, 11, 15]


def test_num_orderings():
    assert num_orderings((2, 1, 0)) == 6
    assert num_orderings((1, 1, 0)) == 3
    assert num_orderings((1, 1)) == 1
    assert num_orderings(()) == 1


def test_vector_splittings():
    sp = vector_splittings((2, 1))
    assert len(sp) == 6
    assert all(tuple(a + b for a, b in zip(x, y)) == (2, 1) for x, y in sp)
    assert len(set(sp)) == 6


@pytest.mark.parametrize("call, message", (
    (lambda: partitions_of(-1, 2), "need k >= 0 and max_parts >= 1"),
    (lambda: vector_splittings((-1,)), "negative entry"),
), ids=("partitions", "splittings"))
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message
