"""Exact integer-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, with no
trailing zeros (the empty tuple is the unique partition of 0).  Everything
here is pure and allocation-light; the hot crystal kernels build on these
conventions but live in mullineux._core.

A beta-set has two forms.  The public one is a strictly increasing tuple
of nonnegative ints (beta_set, partition_from_beta_set).  The one the
engine computes in is an int bitset, bit b set iff b is a bead: beta_bits
encodes a partition straight into it, beta_set_to_bits and
beta_set_from_bits convert between the two forms, and the helpers the
recursion uses (pad_beta_set, minimal_beta_set, conjugate_beta_set,
beta_set_is_e_regular, beta_set_is_e_core) take bitsets, so that
padding, trimming and both tests are a few shifts and masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from mullineux.errors import PartitionTooLargeError, check_modulus

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
        raise PartitionTooLargeError(f"partition rank {n} exceeds MAX_RANK = {MAX_RANK}")


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
            raise ValueError(f"partition parts must be positive, got {p}")
        if i > 0 and t[i - 1] < p:
            raise ValueError(f"partition must be weakly decreasing, got {t}")
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
            raise ValueError(f"bad partition entry {chunk!r}") from None
    lam = as_partition(parts)
    if len(lam) != len(parts):  # as_partition dropped trailing zeros
        raise ValueError("partition parts must be positive, got 0")
    check_rank(lam)
    return lam


def format_partition(lam: Partition) -> str:
    """Write the wire format read by parse_partition ("-" for the empty partition)."""
    return ",".join(str(p) for p in lam) if lam else "-"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (an involution).

    Built from the part differences: lam_i - lam_{i+1} columns have length
    i, so the cost is O(lam_1 + rows), not one step per node.
    """
    out: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple(out)


def is_e_regular(lam: Partition, e: int) -> bool:
    """True iff no positive part value occurs e or more times."""
    check_modulus(e)
    run = 1
    for i in range(1, len(lam)):
        run = run + 1 if lam[i] == lam[i - 1] else 1
        if run >= e:
            return False
    return True


def beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """Beta-set {lam_j - j + length : 1 <= j <= length}, returned increasing.

    Pads lam with zeros up to the requested length, which must be at least
    the number of parts.  The result always has exactly `length` elements.
    """
    r = len(lam)
    if length < r:
        raise ValueError(f"beta-set length {length} < number of parts {r}")
    out = list(range(length - r))  # staircase of the zero tail
    for j in range(r, 0, -1):
        out.append(lam[j - 1] - j + length)
    return tuple(out)


def beta_bits(lam: Partition, length: int) -> int:
    """The bitset of beta_set(lam, length), bit b set iff b is a bead, built
    without the tuple."""
    r = len(lam)
    if length < r:
        raise ValueError(f"beta-set length {length} < number of parts {r}")
    bits = (1 << (length - r)) - 1  # staircase of the zero tail
    for j, p in enumerate(lam, 1):
        bits |= 1 << (p - j + length)
    return bits


def partition_from_beta_set(bset: Iterable[int]) -> Partition:
    """Inverse of beta_set: decode a strictly increasing set of nonnegative ints."""
    desc = sorted(bset, reverse=True)
    L = len(desc)
    parts = []
    for j, d in enumerate(desc, start=1):
        if d < 0 or (j < L and desc[j] == d):
            raise ValueError("beta-set must be a set of distinct nonnegative integers")
        p = d + j - L
        if p > 0:
            parts.append(p)
    return tuple(parts)


def is_e_core(lam: Partition, e: int) -> bool:
    """True iff no hook length of lam is divisible by e."""
    check_modulus(e)
    return beta_set_is_e_core(beta_bits(lam, max(1, len(lam))), e)


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
    """The tuple form of a bitset beta-set: its beads, increasing."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return tuple(out)


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


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    No part of n can repeat n + 1 times, so these are the (n + 1)-regular
    partitions of n, and enumerate_e_regular builds them; a negative n
    raises ValueError when the iterator is first advanced, as there.
    """
    return enumerate_e_regular(n, max(2, n + 1))


def enumerate_e_regular(n: int, e: int) -> Iterator[Partition]:
    """Partitions of n with no part repeated e or more times, reverse-lex order.

    Built directly, never by filtering: each step picks the next part value
    p below the last one and how often it repeats, at most e-1 times, more
    copies first, which is reverse-lex order.  A choice is taken only if the
    values below p, each e-1 times, can still make up the rest, so every
    branch ends in a partition.
    """
    check_modulus(e)
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    prefix: list[int] = []

    def gen(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            if (e - 1) * p * (p + 1) // 2 < remaining:
                return  # parts <= p, each e-1 times, fall short
            for m in range(min(e - 1, remaining // p), 0, -1):
                rest = remaining - m * p
                if (e - 1) * (p - 1) * p // 2 < rest:
                    break
                prefix.extend([p] * m)
                yield from gen(rest, p - 1)
                del prefix[-m:]

    yield from gen(n, n)


def enumerate_bipartitions(n: int) -> Iterator[tuple[Partition, Partition]]:
    """All pairs of partitions with total rank n, in (|first| desc, rev-lex) order."""
    for a in range(n, -1, -1):
        for lam1 in enumerate_partitions(a):
            for lam2 in enumerate_partitions(n - a):
                yield (lam1, lam2)
