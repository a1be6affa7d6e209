"""Exact integer-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, with no
trailing zeros (the empty tuple is the unique partition of 0).  Everything
here is pure and allocation-light; the hot crystal kernels build on these
conventions but live in mullineux._core.

A beta-set is computed as an int bitset, bit b set iff b is a bead, and
each conversion and test is written once, on it: beta_bits and
minimal_bits encode a partition, partition_from_bits decodes one, and
padding, trimming, conjugation and both tests are a few shifts and masks.
The tuple forms (beta_set, partition_from_beta_set, conjugate,
is_e_regular, is_e_core) convert at the boundary and call these.

One enumerator, enumerate_e_regular_bits, builds the partitions in one
frame and carries their bitsets; the other enumerators read it.
"""

from __future__ import annotations

from itertools import accumulate, count, product
from operator import add
from typing import Iterable, Iterator

from mullineux.errors import PartitionTooLargeError, check_modulus, clip

Partition = tuple[int, ...]

# The largest rank the entry points (parse_partition,
# level1.mullineux_kleshchev, engine.mullineux_conjectural) accept; larger
# input raises PartitionTooLargeError at once instead of running for hours.
# The kernels and walks, the hot path, do not check it.  At rank 10,000 the
# slowest input measured for the recursion, (10000,) at e = 2, took
# 0.07-0.13 s by the recursion on bitset beta-sets (0.05-0.09 s at e = 3)
# and 0.03-0.05 s by Kleshchev's algorithm (2-core x86-64 Xeon host,
# Python 3.11.7).
MAX_RANK = 10_000


def check_rank(lam: Partition) -> None:
    """Raise PartitionTooLargeError when lam's rank exceeds MAX_RANK."""
    n = sum(lam)
    if n > MAX_RANK:
        raise PartitionTooLargeError(f"partition rank {clip(n)} exceeds MAX_RANK = {MAX_RANK}")


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize an iterable of ints into a partition.

    Trailing zeros are dropped; any other violation (negative entries,
    increasing steps, zeros before positive parts) raises ValueError.
    """
    t = tuple(int(p) for p in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for i, p in enumerate(t):
        if p <= 0:
            raise ValueError(f"partition parts must be positive, got {clip(p)}")
        if i > 0 and t[i - 1] < p:
            raise ValueError(f"partition must be weakly decreasing, got {partition_text(t)}")
    return t


def parse_partition(text: str) -> Partition:
    """Read the wire format: comma-separated weakly decreasing positive ints.

    "" and "-" both stand for the empty partition.  Parsing is strict, so
    malformed input fails with ValueError instead of being reordered, and a
    rank above MAX_RANK fails with PartitionTooLargeError.
    """
    text = text.strip()
    if text in ("", "-"):
        return ()
    parts = []
    for chunk in text.split(","):
        try:
            parts.append(int(chunk))
        except ValueError:
            raise ValueError(f"bad partition entry {clip(chunk)}") from None
    lam = as_partition(parts)
    if len(lam) != len(parts):  # as_partition dropped trailing zeros
        raise ValueError("partition parts must be positive, got 0")
    check_rank(lam)
    return lam


def format_partition(lam: Partition) -> str:
    """Write the wire format read by parse_partition ("-" for the empty partition)."""
    return ",".join(str(p) for p in lam) if lam else "-"


ERROR_TEXT_PARTS = 20


def partition_text(lam: Partition) -> str:
    """A partition as error text names it: str(lam) up to ERROR_TEXT_PARTS
    parts, and past that the first ERROR_TEXT_PARTS parts, its part count
    and its rank, so that a message stays short at any length (a 10,000-row
    partition at MAX_RANK would print about 30 KB); each number is clipped."""
    text = ", ".join(map(clip, lam[:ERROR_TEXT_PARTS]))
    if len(lam) > ERROR_TEXT_PARTS:
        return f"({text}, ...) ({len(lam)} parts, rank {clip(sum(lam))})"
    return f"({text},)" if len(lam) == 1 else f"({text})"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (an involution), by conjugate_beta_set;
    linear in lam_1 + rows, not one step per node."""
    return partition_from_bits(conjugate_beta_set(minimal_bits(lam)))


def is_e_regular(lam: Partition, e: int) -> bool:
    """True iff no positive part value occurs e or more times."""
    check_modulus(e)
    return beta_set_is_e_regular(minimal_bits(lam), e)


def beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """Beta-set {lam_j - j + length : 1 <= j <= length}, returned increasing.

    Pads lam with zeros up to the requested length, which must be at least
    the number of parts.  The result always has exactly `length` elements.
    """
    return beta_set_from_bits(beta_bits(lam, length))


def beta_bits(lam: Partition, length: int) -> int:
    """The bitset of beta_set(lam, length), bit b set iff b is a bead."""
    r = len(lam)
    if length < r:
        raise ValueError(f"beta-set length {length} < number of parts {r}")
    bits = (1 << (length - r)) - 1  # staircase of the zero tail
    for j, p in enumerate(lam, 1):
        bits |= 1 << (p - j + length)
    return bits


def minimal_bits(lam: Partition) -> int:
    """The bitset of lam's beta-set at minimal padding, beta_set(lam,
    max(1, len(lam))): the form the recursion and the towers start from."""
    return beta_bits(lam, max(1, len(lam)))


def partition_from_beta_set(bset: Iterable[int]) -> Partition:
    """Inverse of beta_set: decode a set of distinct nonnegative ints, in any order."""
    try:
        x = beta_set_to_bits(sorted(bset))
    except ValueError:
        raise ValueError("beta-set must be a set of distinct nonnegative integers") from None
    return partition_from_bits(x)


def partition_from_bits(x: int) -> Partition:
    """The partition a bitset beta-set encodes: a bead's part is the number
    of gaps below it, and the beads with none are zero parts."""
    # reversed as a list: a tuple built from the iterator, then reversed,
    # left cross_validate's peak RSS about 1 MiB higher
    parts = list(filter(None, _gaps_below(x)))
    parts.reverse()
    return tuple(parts)


def _gaps_below(x: int) -> Iterator[int]:
    """The number of gaps below each bead of x, lowest bead first, in one
    pass over bin(x): split at the beads, it is the runs of gaps."""
    return accumulate(map(len, bin(x)[:1:-1].split("1")[:-1]))


def is_e_core(lam: Partition, e: int) -> bool:
    """True iff no hook length of lam is divisible by e."""
    check_modulus(e)
    return beta_set_is_e_core(minimal_bits(lam), e)


def beta_set_to_bits(x: Iterable[int]) -> int:
    """The bitset of a beta-set, bit b set iff b is a bead: the one encoder
    from the tuple form.

    Raises ValueError unless x is strictly increasing nonnegative ints, so
    a repeated, unsorted or negative entry fails here instead of being
    merged or misplaced.
    """
    x = tuple(x)
    bits, last = 0, -1
    for b in x:
        if not isinstance(b, int) or b <= last:
            raise ValueError(f"beta-set must be strictly increasing nonnegative ints, got {x}")
        bits |= 1 << b
        last = b
    return bits


def beta_set_from_bits(x: int) -> tuple[int, ...]:
    """The tuple form of a bitset beta-set: its beads, increasing; a bead
    sits at the gaps below it plus the beads below it."""
    return tuple(map(add, _gaps_below(x), count()))


def pad_beta_set(x: int, length: int) -> int:
    """The bitset of the same partition at a length no smaller than x's bead count."""
    d = length - x.bit_count()
    if d < 0:
        raise ValueError(f"cannot pad a beta-set of length {x.bit_count()} to {length}")
    return (x << d) | ((1 << d) - 1) if d else x


def minimal_beta_set(x: int) -> int:
    """x at minimal padding, the bitset of beta_set(lam, max(1, len(lam)))
    for the lam it encodes: the staircase run 0, 1, ... that x starts with
    is dropped and the rest shifted down.

    x ^ (x + 1) is a mask one bit longer than that run.
    """
    if not x & 1:
        return x or 1
    return (x >> ((x ^ (x + 1)).bit_length() - 1)) or 1


def conjugate_beta_set(x: int) -> int:
    """The bitset of the conjugate partition at minimal padding.

    With top the largest bead, the conjugate's beta-set is top - y over the
    gaps y of x below top: the gaps' bits written in reverse order.
    """
    top = x.bit_length() - 1
    gaps = ~x & ((1 << top) - 1)
    return int(format(gaps, f"0{top + 1}b")[::-1], 2) or 1


def beta_set_is_e_regular(x: int, e: int) -> bool:
    """is_e_regular on a beta-set: no e consecutive beads above its staircase run.

    Equal parts are consecutive beads; the run 0, 1, ... stands for zero
    parts, which may repeat, and minimal padding has none.  run holds the
    beads that start `have` consecutive beads; doubling `have` up to e
    takes O(log e) shifts, and the last shift, by e - have <= have, tests
    for e.
    """
    run, have = minimal_beta_set(x), 1
    while 2 * have <= e:
        run &= run >> have
        have *= 2
    return not run & (run >> (e - have))


def beta_set_is_e_core(x: int, e: int) -> bool:
    """is_e_core on a beta-set, by the abacus criterion.

    Removing a rim e-hook moves a bead from b down to a free position
    b - e, so the partition is an e-core iff every bead b >= e has b - e
    occupied.  Any padding gives the same answer.
    """
    return not (x >> e) & ~x


def unrestricted_modulus(n: int) -> int:
    """A modulus at which every partition of n is e-regular."""
    # no part of n can repeat n + 1 times
    return max(2, n + 1)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    No part of n can repeat n + 1 times, so these are the e-regular
    partitions of n at unrestricted_modulus(n), and enumerate_e_regular
    builds them; a negative n raises ValueError when the iterator is first
    advanced, as there.
    """
    return enumerate_e_regular(n, unrestricted_modulus(n))


def enumerate_e_regular(n: int, e: int) -> Iterator[Partition]:
    """Partitions of n with no part repeated e or more times, reverse-lex
    order: those of enumerate_e_regular_bits, built in one frame, without
    the bitsets it carries."""
    return (lam for lam, _ in enumerate_e_regular_bits(n, e))


def enumerate_e_regular_bits(n: int, e: int) -> Iterator[tuple[Partition, int]]:
    """(lam, x) for the partitions lam of n with no part repeated e or more
    times, in reverse-lex order, x = beta_bits(lam, max(1, len(lam))); one
    generator frame builds them and carries the bitsets."""
    # Built directly, never by filtering.  A partition is a stack of blocks,
    # m copies of a part p, each below the last, with 1 <= m <= e - 1.
    # Filling picks the largest p the rest allows and as many copies as fit,
    # which is reverse-lex order.  The next partition pops the last block and
    # takes that position's next choice, one copy fewer or else the part
    # p - 1 as often as fits, popping further while a position has none, and
    # fills the rest.  A choice is taken only if the values below p, each
    # e - 1 times, can still make up the rest, so every fill ends in a
    # partition: the first choice a fill makes always passes.
    #
    # The bitset is carried along.  At length n, m copies of p after i parts
    # are the run of m beads ending at bead p + n - i - 1, and the zero parts
    # are the staircase below bead n - len(lam); y holds the runs, so x is
    # y >> (n - len(lam)).  (This is a comment, not docstring text, which
    # every process that imports the package would hold in memory.)
    check_modulus(e)
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    if n == 0:
        yield (), 1
        return
    top = e - 1  # the most copies of a part
    parts: list[int] = []
    blocks: list[tuple[int, int, int, int]] = []  # (p, m, rest before, y before)
    p, m, rest, y = n, 1, n, 0
    while True:
        # place m copies of p, then fill the rest greedily
        blocks.append((p, m, rest, y))
        y |= ((1 << m) - 1) << (p + n - len(parts) - m)
        parts += [p] * m
        rest -= m * p
        if rest:
            p = p - 1 if p <= rest else rest
            m = rest // p
            if m > top:
                m = top
            continue
        yield tuple(parts), y >> (n - len(parts))
        # the next choice at the deepest position that has one
        while blocks:
            p, m, rest, y = blocks.pop()
            del parts[-m:]
            if m > 1 and top * (p - 1) * p // 2 >= rest - (m - 1) * p:
                m -= 1
                break
            p -= 1
            if p and top * p * (p + 1) // 2 >= rest:
                m = rest // p
                if m > top:
                    m = top
                break
        else:
            return


def enumerate_bipartitions(n: int) -> Iterator[tuple[Partition, Partition]]:
    """All pairs of partitions with total rank n, in (|first| desc, rev-lex) order."""
    # product enumerates each split's second partitions once, not once per first
    for a in range(n, -1, -1):
        yield from product(enumerate_partitions(a), enumerate_partitions(n - a))
