"""Exact integer-partition combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, with no
trailing zeros (the empty tuple is the unique partition of 0).  Everything
here is pure and allocation-light; the hot crystal kernels build on these
conventions but live in mullineux._core.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Iterator

from mullineux.errors import PartitionTooLargeError, check_modulus

Partition = tuple[int, ...]

# The largest rank the entry points (parse_partition,
# level1.mullineux_kleshchev, engine.mullineux_conjectural) accept; larger
# input raises PartitionTooLargeError at once instead of running for hours.
# The kernels and walks, the hot path, do not check it.  At rank 10,000 the
# slowest input measured for the recursion, (10000,) at e = 2, took
# 0.44-0.58 s by the recursion (0.14-0.21 s at e = 3) and 0.03-0.05 s by
# Kleshchev's algorithm (2-core x86-64 Xeon host, Python 3.11.7).
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
    return beta_set_is_e_core(beta_set(lam, max(1, len(lam))), e)


def pad_beta_set(x: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The beta-set of the same partition at a length no smaller than len(x)."""
    d = length - len(x)
    if d < 0:
        raise ValueError(f"cannot pad a beta-set of length {len(x)} to {length}")
    return tuple([*range(d), *[v + d for v in x]]) if d else x


def minimal_beta_set(x: tuple[int, ...]) -> tuple[int, ...]:
    """x at minimal padding, beta_set(lam, max(1, len(lam))) for the lam it
    encodes: the staircase run 0, 1, ... that x starts with is dropped and
    the rest shifted down.

    x[i] - i never decreases along a beta-set, so the run is found by
    bisection.
    """
    if x and x[0] != 0:
        return x
    run, hi = 0, len(x)
    while run < hi:
        mid = (run + hi) // 2
        if x[mid] == mid:
            run = mid + 1
        else:
            hi = mid
    return tuple([v - run for v in x[run:]]) or (0,)


def conjugate_beta_set(x: tuple[int, ...]) -> tuple[int, ...]:
    """The beta-set of the conjugate partition at minimal padding.

    With N = max(x) + 1, the conjugate's beta-set of length N - len(x) is
    N - 1 - y over the gaps y of x below N.
    """
    top = x[-1]
    beads = set(x)
    return tuple([top - y for y in range(top, -1, -1) if y not in beads]) or (0,)


def beta_set_is_e_regular(x: tuple[int, ...], e: int) -> bool:
    """is_e_regular on a beta-set: no e consecutive beads above its staircase run.

    Equal parts are consecutive beads; the run 0, 1, ... stands for zero
    parts, which may repeat, and minimal padding has none.
    """
    x = minimal_beta_set(x)
    return e - 1 not in map(sub, x[e - 1 :], x)


def beta_set_is_e_core(x: tuple[int, ...], e: int) -> bool:
    """is_e_core on a beta-set, by the abacus criterion.

    Removing a rim e-hook moves a bead from b down to a free position
    b - e, so the partition is an e-core iff every bead b >= e has b - e
    occupied.  Any padding gives the same answer.
    """
    beads = set(x)
    return all(b < e or b - e in beads for b in x)


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
