"""Partition combinatorics against independent oracles.

The e-core test is checked against explicit hook lengths, regularity
against part multiplicities, the beta-set codec against the formula and
the sorted decoder (tests/beta_reference.py), and the enumerators against
a separately written generator, the recursive enumerator the package ran
before (tests/enumerate_reference.py) and a DP count.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullineux.engine import mullineux_conjectural
from mullineux.errors import PartitionTooLargeError, clip
from mullineux.level1 import mullineux_kleshchev
from mullineux.partitions import (
    MAX_RANK,
    as_partition,
    beta_bits,
    beta_set,
    beta_set_from_bits,
    beta_set_is_e_core,
    beta_set_is_e_regular,
    beta_set_to_bits,
    conjugate,
    conjugate_beta_set,
    enumerate_bipartitions,
    enumerate_e_regular,
    enumerate_e_regular_bits,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
    format_partition,
    minimal_beta_set,
    minimal_bits,
    pad_beta_set,
    parse_partition,
    partition_from_beta_set,
    partition_from_bits,
    partition_text,
)

import beta_reference
import enumerate_reference
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


def is_e_regular_by_multiplicities(lam, e):
    return all(m < e for m in Counter(lam).values())


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
    for bad in ((3, 3), (2, -1), (0.5,)):
        with pytest.raises(ValueError, match="beta-set must be a set of distinct nonnegative integers"):
            partition_from_beta_set(bad)


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


def test_error_text_names_at_most_20_parts():
    for lam in ((), (3, 1), tuple(range(20, 0, -1))):
        assert partition_text(lam) == str(lam)
    assert partition_text((2,) * 30 + (1,) * 10) == f"({'2, ' * 20}...) (40 parts, rank 70)"
    with pytest.raises(ValueError) as info:
        as_partition((1,) * MAX_RANK + (2,))
    brief = f"({'1, ' * 20}...) (10001 parts, rank 10002)"
    assert str(info.value) == f"partition must be weakly decreasing, got {brief}"


def test_clip_echoes_short_values_whole_and_long_ones_by_their_head():
    assert [clip(v) for v in (0, -7, 10**20 - 1, "2,,3")] == ["0", "-7", "9" * 20, "'2,,3'"]
    head = "1" + "0" * 19
    assert clip(10**20) == f"{head}... (21 digits)"
    assert clip(-(10**5000)) == f"-{head}... (5001 digits)"  # past str()'s digit limit
    assert clip(10**4000 - 1) == f"{'9' * 20}... (4000 digits)"
    assert clip("ab" * 30) == f"{'ab' * 10!r}... (60 characters)"
    assert partition_text((10**25, 3)) == f"({head}... (26 digits), 3)"
    assert partition_text((5,)) == "(5,)"


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


def test_one_frame_enumerator_matches_the_recursive_reference():
    for n in range(31):
        for e in (*range(2, 9), n + 1):
            if e < 2:
                continue
            pairs = list(enumerate_e_regular_bits(n, e))
            assert [lam for lam, _ in pairs] == list(enumerate_reference.enumerate_e_regular(n, e)), (n, e)
            for lam, x in pairs:
                assert x == beta_bits(lam, max(1, len(lam))), (n, e, lam)
            assert list(enumerate_e_regular(n, e)) == [lam for lam, _ in pairs]


def test_e_regular_enumeration_is_reverse_lex_order():
    # the order pinned without either enumerator: sorted from the second
    # generator, whose own order is different
    for n in range(25):
        everything = list(partitions_by_smallest_part(n))
        assert list(enumerate_partitions(n)) == sorted(everything, reverse=True), n
        for e in (2, 3, 4, 5, 6):
            expected = sorted((lam for lam in everything if is_e_regular(lam, e)), reverse=True)
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
# beta-set forms of the partition checks


def partitions_up_to(n_max):
    return [lam for n in range(n_max + 1) for lam in enumerate_partitions(n)]


def cell_by_cell_conjugate(lam):
    """Transpose by counting, for each column, the rows that reach it."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def test_beta_set_checks_match_the_partition_checks():
    # the tuple checks call the bitset ones, so both answer to definitions
    # that run neither: part multiplicities and hook lengths
    for lam in partitions_up_to(20):
        minimal = beta_bits(lam, max(1, len(lam)))
        for e in range(2, 8):
            regular, core = is_e_regular_by_multiplicities(lam, e), is_e_core_by_hooks(lam, e)
            assert is_e_regular(lam, e) == regular and is_e_core(lam, e) == core, (lam, e)
            # a padded set starts with a staircase run longer than e
            for x in (minimal, beta_bits(lam, len(lam) + e + 1)):
                assert beta_set_is_e_regular(x, e) == regular, (lam, e, x)
                assert beta_set_is_e_core(x, e) == core, (lam, e, x)


# one row, one column, two long blocks over a long one, the staircase
WIDE = ((10000,), (1,) * 10000, (5000, 2500, *(1,) * 2500), tuple(range(140, 0, -1)))


def check_codec(lam, length):
    """Every encoder and decoder of lam at one length, against the formula and the sorted decoder."""
    x = beta_reference.beta_set(lam, length)
    bits = beta_set_to_bits(x)
    assert beta_set(lam, length) == x
    assert bits == beta_bits(lam, length)
    assert beta_set_from_bits(bits) == x
    assert partition_from_bits(bits) == lam == beta_reference.partition_from_beta_set(x)
    assert partition_from_beta_set(x) == lam
    assert partition_from_beta_set(reversed(x)) == lam  # any order


def test_codec_matches_the_formula_and_the_sorted_decoder():
    for lam in partitions_up_to(20):
        minimal = max(1, len(lam))
        assert minimal_bits(lam) == beta_set_to_bits(beta_reference.beta_set(lam, minimal)), lam
        for length in (minimal, len(lam) + 1, len(lam) + 4, len(lam) + 9):
            check_codec(lam, length)
    assert partition_from_bits(0) == () and beta_set_from_bits(0) == ()


def test_codec_on_wide_beta_sets():
    for lam in WIDE:
        assert minimal_bits(lam) == beta_set_to_bits(beta_reference.beta_set(lam, len(lam)))
        for length in (len(lam), len(lam) + 3):
            check_codec(lam, length)
        assert is_e_regular(lam, 2) == is_e_regular_by_multiplicities(lam, 2)
    assert conjugate(WIDE[0]) == WIDE[1] and conjugate(WIDE[1]) == WIDE[0]


def test_beta_bits_sets_the_formula_bits_of_any_sequence():
    # exactly the bits lam_j - j + length over the zero tail's staircase,
    # also where lam is not weakly decreasing and bits coincide
    for r in range(5):
        for lam in product(range(4), repeat=r):
            for length in (r, r + 2):
                expected = (1 << (length - r)) - 1
                for j, p in enumerate(lam, 1):
                    expected |= 1 << (p - j + length)
                assert beta_bits(lam, length) == expected, (lam, length)


def test_bitset_helpers_match_the_tuple_references():
    # every partition of rank <= 20, at minimal length and padded past a
    # staircase run of e, against the tuple helpers the package ran before
    for lam in partitions_up_to(20):
        minimal = beta_set(lam, max(1, len(lam)))
        for e in range(2, 8):
            for x in (minimal, beta_set(lam, len(lam) + e + 1)):
                bits = beta_set_to_bits(x)
                assert beta_set_from_bits(bits) == x
                assert bits == beta_bits(lam, len(x))
                assert beta_set_is_e_regular(bits, e) == beta_reference.beta_set_is_e_regular(x, e)
                assert beta_set_is_e_core(bits, e) == beta_reference.beta_set_is_e_core(x, e)
                trimmed = beta_reference.minimal_beta_set(x)
                assert beta_set_from_bits(minimal_beta_set(bits)) == trimmed, (lam, e, x)
                assert beta_set_from_bits(conjugate_beta_set(bits)) == beta_reference.conjugate_beta_set(x)
                for length in (len(x), len(x) + e):
                    padded = beta_reference.pad_beta_set(x, length)
                    assert beta_set_from_bits(pad_beta_set(bits, length)) == padded, (lam, x, length)


def test_bitset_encoder_refuses_malformed_sets():
    assert beta_set_to_bits(()) == 0 and beta_set_from_bits(0) == ()
    assert beta_set_to_bits([0, 2, 5]) == 0b100101
    for bad in ((1, 1), (3, 1), (-1,), (0, 2, 2, 4), (0.5,)):
        with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
            beta_set_to_bits(bad)


def test_trim_and_pad_round_trip():
    for lam in partitions_up_to(14):
        minimal = beta_bits(lam, max(1, len(lam)))
        for extra in range(6):
            x = beta_bits(lam, len(lam) + extra) if lam or extra else 1
            assert minimal_beta_set(x) == minimal, (lam, extra)
            assert pad_beta_set(minimal, x.bit_count()) == x, (lam, extra)
            padded = pad_beta_set(minimal, x.bit_count() + 3)
            assert partition_from_beta_set(beta_set_from_bits(padded)) == lam
        if lam:
            assert minimal_beta_set(minimal) is minimal  # already minimal: no copy
        with pytest.raises(ValueError):
            pad_beta_set(minimal, minimal.bit_count() - 1)
    assert minimal_beta_set(0) == 1


def test_conjugate_matches_the_cell_by_cell_definition():
    staircase = tuple(range(140, 0, -1))
    assert sum(staircase) == 9870
    for lam in partitions_up_to(20) + [staircase]:
        assert conjugate(lam) == cell_by_cell_conjugate(lam), lam
        assert conjugate_beta_set(beta_bits(lam, max(1, len(lam)))) == beta_bits(
            conjugate(lam), max(1, lam[0] if lam else 0)
        ), lam
    assert conjugate(staircase) == staircase


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


def test_bipartition_enumeration_keeps_the_nested_order():
    def nested(n):
        for a in range(n, -1, -1):
            for lam1 in enumerate_partitions(a):
                for lam2 in enumerate_partitions(n - a):
                    yield (lam1, lam2)

    for n in range(15):
        assert list(enumerate_bipartitions(n)) == list(nested(n)), n


def test_bipartition_enumeration():
    for n in range(9):
        pairs = list(enumerate_bipartitions(n))
        assert len(pairs) == len(set(pairs))
        assert len(pairs) == sum(
            count_partitions(a) * count_partitions(n - a) for a in range(n + 1)
        )
        assert all(sum(a) + sum(b) == n for a, b in pairs)
