"""Partition combinatorics against independent oracles.

The e-core test is checked against explicit hook lengths, and the
enumerators against a separately written generator and a DP count.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullineux.engine import mullineux_conjectural
from mullineux.errors import PartitionTooLargeError
from mullineux.level1 import mullineux_kleshchev
from mullineux.partitions import (
    MAX_RANK,
    as_partition,
    beta_set,
    conjugate,
    enumerate_bipartitions,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
    format_partition,
    parse_partition,
    partition_from_beta_set,
)

from conftest import partitions

# ---------------------------------------------------------------------------
# oracles


def hook_lengths(lam):
    """All hook lengths, computed cell by cell from the diagram."""
    conj = [0] * (lam[0] if lam else 0)
    for p in lam:
        for j in range(p):
            conj[j] += 1
    hooks = []
    for i, p in enumerate(lam):
        for j in range(p):
            arm = p - (j + 1)
            leg = conj[j] - (i + 1)
            hooks.append(arm + leg + 1)
    return hooks


def is_e_core_by_hooks(lam, e):
    return all(h % e != 0 for h in hook_lengths(lam))


def partitions_by_smallest_part(n, least=1):
    """Second generator, recursing on the smallest part instead of the first."""
    if n == 0:
        yield ()
        return
    for p in range(least, n + 1):
        for rest in partitions_by_smallest_part(n - p, p):
            yield rest + (p,)


@lru_cache(maxsize=None)
def count_partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(count_partitions(n - p, min(p, n - p)) for p in range(1, max_part + 1))


# ---------------------------------------------------------------------------
# pinned values


def test_conjugate_pinned():
    assert conjugate((5, 2, 1, 1)) == (4, 2, 1, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)


def test_regularity_pinned():
    assert is_e_regular((5, 2, 1, 1), 3)
    assert not is_e_regular((1, 1, 1), 3)
    assert is_e_regular((6, 5, 2, 2, 1, 1), 3)
    with pytest.raises(ValueError):
        is_e_regular((2, 1), 1)


def test_core_pinned():
    assert is_e_core((5, 2, 1, 1), 6)
    assert is_e_core((3, 3, 2, 2, 1, 1), 6)
    assert not is_e_core((3,), 3)
    with pytest.raises(ValueError):
        is_e_core((2, 1), 0)


def test_beta_set_pinned():
    assert beta_set((6, 5, 2, 2, 1, 1), 6) == (1, 2, 4, 5, 9, 11)
    assert beta_set((6, 5, 2, 2, 1, 1), 9) == (0, 1, 2, 4, 5, 7, 8, 12, 14)
    assert beta_set((), 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        beta_set((2, 1), 1)


def test_partition_from_beta_set_pinned():
    assert partition_from_beta_set((2, 5, 13)) == (11, 4, 2)
    assert partition_from_beta_set((0, 1, 2, 5, 8, 16)) == (11, 4, 2)
    assert partition_from_beta_set(range(9)) == ()
    with pytest.raises(ValueError):
        partition_from_beta_set((3, 3))


def test_enumeration_pinned():
    assert list(enumerate_partitions(0)) == [()]
    assert len(list(enumerate_partitions(5))) == 7
    assert list(enumerate_e_regular(6, 2)) == [(6,), (5, 1), (4, 2), (3, 2, 1)]
    # reverse-lexicographic order starts at the one-row partition
    assert list(enumerate_partitions(4))[0] == (4,)
    assert list(enumerate_partitions(4))[-1] == (1, 1, 1, 1)


def test_as_partition():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])
    with pytest.raises(ValueError):
        as_partition([2, 0, 1])


# ---------------------------------------------------------------------------
# properties


@given(partitions())
@settings(max_examples=300)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(partitions(), st.integers(0, 5))
@settings(max_examples=300)
def test_beta_set_round_trip_and_shift(lam, extra):
    length = len(lam) + extra if lam or extra else 1
    b = beta_set(lam, length)
    assert len(b) == length
    assert partition_from_beta_set(b) == lam
    shifted = beta_set(lam, length + 1)
    assert shifted == (0,) + tuple(x + 1 for x in b)


def test_core_matches_hook_oracle():
    for n in range(21):
        for lam in enumerate_partitions(n):
            for e in range(2, 8):
                assert is_e_core(lam, e) == is_e_core_by_hooks(lam, e), (lam, e)


def test_core_implies_regular():
    for n in range(16):
        for lam in enumerate_partitions(n):
            for e in range(2, 8):
                if is_e_core(lam, e):
                    assert is_e_regular(lam, e)


def test_enumeration_against_independent_generator():
    for n in range(21):
        ours = list(enumerate_partitions(n))
        assert len(ours) == len(set(ours))
        assert set(ours) == set(partitions_by_smallest_part(n))
        assert len(ours) == count_partitions(n)


def test_e_regular_enumeration_is_filter():
    for n in range(31):
        everything = list(enumerate_partitions(n))
        for e in (2, 3, 4, 5, 6):
            expected = [lam for lam in everything if is_e_regular(lam, e)]
            assert list(enumerate_e_regular(n, e)) == expected, (n, e)


def test_e_regular_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        list(enumerate_e_regular(3, 1))
    with pytest.raises(ValueError, match="rank must be >= 0, got -1"):
        list(enumerate_e_regular(-1, 2))


def test_enumeration_rejects_a_negative_rank():
    with pytest.raises(ValueError, match="rank must be >= 0, got -1"):
        list(enumerate_partitions(-1))


# ---------------------------------------------------------------------------
# the size contract


@st.composite
def oversized_partitions(draw):
    """A partition of rank above MAX_RANK, from one huge part to many small ones."""
    parts = sorted(draw(st.lists(st.integers(1, 2**62), min_size=1, max_size=40)), reverse=True)
    if sum(parts) <= MAX_RANK:
        parts[0] += MAX_RANK
    return tuple(parts)


@given(oversized_partitions(), st.integers(2, 7))
@settings(max_examples=100, deadline=200)  # fail fast: each example within 200 ms
def test_oversized_input_raises_the_typed_error(lam, e):
    with pytest.raises(PartitionTooLargeError, match="exceeds MAX_RANK = 10000"):
        parse_partition(format_partition(lam))
    with pytest.raises(PartitionTooLargeError):
        mullineux_kleshchev(lam, e)
    with pytest.raises(PartitionTooLargeError):
        mullineux_conjectural(lam, e)


@given(partitions(max_rank=60))
@settings(max_examples=300)
def test_valid_input_round_trips(lam):
    text = format_partition(lam)
    assert parse_partition(text) == lam
    assert format_partition(parse_partition(text)) == text


def test_rank_limit_is_inclusive():
    assert parse_partition(str(MAX_RANK)) == (MAX_RANK,)
    assert mullineux_kleshchev((MAX_RANK,), 2) == (MAX_RANK,)
    # every partition of rank MAX_RANK is a (MAX_RANK + 1)-core, so the
    # recursion answers at once by conjugation
    assert mullineux_conjectural((MAX_RANK,), MAX_RANK + 1)[0] == (1,) * MAX_RANK
    with pytest.raises(PartitionTooLargeError):
        parse_partition(f"{MAX_RANK},1")


def test_bipartition_enumeration():
    for n in range(9):
        pairs = list(enumerate_bipartitions(n))
        assert len(pairs) == len(set(pairs))
        assert len(pairs) == sum(
            count_partitions(a) * count_partitions(n - a) for a in range(n + 1)
        )
        assert all(sum(a) + sum(b) == n for a, b in pairs)
