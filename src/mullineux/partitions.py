"""Exact integer-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, with no
trailing zeros (the empty tuple is the unique partition of 0).  Everything
here is pure and allocation-light; the hot crystal kernels build on these
conventions but live in mullineux._core.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from mullineux.errors import PartitionTooLargeError

Partition = tuple[int, ...]

# The largest rank the entry points (parse_partition,
# level1.mullineux_kleshchev, engine.mullineux_conjectural) accept; larger
# input raises PartitionTooLargeError at once instead of running for hours.
# The kernels and walks, the hot path, do not check it.  At rank 10,000 the
# slowest input measured, (10000,) at e = 2, took 11 s by the recursion and
# 0.04 s by Kleshchev's algorithm (2-core x86-64 host, Python 3.11).
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


def rank(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (an involution)."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def is_e_regular(lam: Partition, e: int) -> bool:
    """True iff no positive part value occurs e or more times."""
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
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
    """True iff no hook length of lam is divisible by e.

    Uses the abacus criterion: on any beta-set, removing a rim e-hook moves
    a bead from x down to the free position x - e, so lam is an e-core iff
    every bead x >= e has x - e occupied.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
    beads = set(beta_set(lam, max(1, len(lam))))
    return all(x < e or x - e in beads for x in beads)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    if n == 0:
        yield ()
        return

    def gen(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from gen(remaining - p, p, prefix)
            prefix.pop()

    yield from gen(n, n, [])


def enumerate_e_regular(n: int, e: int) -> Iterator[Partition]:
    """Partitions of n with no part repeated e or more times, reverse-lex order.

    Built directly, never by filtering: each step picks the next part value
    p below the last one and how often it repeats, at most e-1 times, more
    copies first, which is reverse-lex order.  A choice is taken only if the
    values below p, each e-1 times, can still make up the rest, so every
    branch ends in a partition.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
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
