"""The beta-set step and helpers on strictly increasing tuples, as references.

The package holds a beta-set as an int bitset (bit b set iff b is a bead)
everywhere it computes.  These are the tuple versions it ran before:
the greedy matching step and its inverse, with a bisection per element,
the five helpers the recursion uses, and the beta-set formula and its
sorted decoder.  The tests check the bitset kernels, helpers and codec
against them.
"""

from bisect import bisect_left, bisect_right
from operator import sub


def psi_step(e, x1, x2):
    """One beta-set crystal-isomorphism step (charge gap grows by e).

    Matches x1 into x2 greedily, smallest element first:  each a takes the
    largest unmatched b <= a, falling back to the largest unmatched b.
    Returns (y1, y2) where y1 is the matched image and y2 collects x1 + e,
    the unmatched part of x2 shifted by e, and the staircase 0..e-1.
    Both inputs must be strictly increasing.

    When x1 is a subset of x2 every a is matched to itself: by induction
    the elements of x1 below a took themselves, so a is still unmatched
    and is the largest unmatched b <= a.  Then y1 = x1 and y2 is the
    staircase followed by x2 + e, with no matching to do; this covers every
    first stage of a tower, where x1 == x2.
    """
    if len(x1) > len(x2):
        raise ValueError("psi_step needs |x1| <= |x2|")
    if set(x2).issuperset(x1):
        return tuple(x1), (*range(e), *[b + e for b in x2])
    avail = list(x2)
    taken = [False] * len(avail)
    y1 = []
    for a in x1:
        i = bisect_right(avail, a) - 1
        while i >= 0 and taken[i]:
            i -= 1
        if i < 0:
            i = len(avail) - 1
            while taken[i]:
                i -= 1
        taken[i] = True
        y1.append(avail[i])
    y1.sort()
    y2 = list(range(e))
    y2 += [a + e for a in x1]
    y2 += [b + e for i, b in enumerate(avail) if not taken[i]]
    y2.sort()
    return tuple(y1), tuple(y2)


def psi_step_inverse(e, y1, y2):
    """Inverse of psi_step; assumes y2 starts with the staircase 0..e-1.

    Drops the staircase, shifts the rest of y2 down by e, then matches y1
    into it smallest element first, each a taking the smallest unmatched
    b >= a with the smallest unmatched b as fallback.  Matches that do not
    fall back strictly increase, so each search starts after the last one;
    once an element falls back, no unmatched b is left above it, so every
    later element falls back too, to the smallest unmatched entries in order.
    """
    if len(y1) > len(y2) - e:
        raise ValueError("psi_step_inverse needs |y1| <= |y2| - e")
    avail = [y - e for y in y2[e:]]
    n = len(avail)
    taken = [False] * n
    x1 = []
    i = 0
    for a in y1:
        i = bisect_left(avail, a, i)
        if i == n:
            break
        taken[i] = True
        x1.append(avail[i])
        i += 1
    i = 0
    for _ in range(len(y1) - len(x1)):
        while taken[i]:
            i += 1
        taken[i] = True
        x1.append(avail[i])
    x1.sort()
    x2 = list(y1)
    x2 += [b for i, b in enumerate(avail) if not taken[i]]
    x2.sort()
    return tuple(x1), tuple(x2)


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


def beta_set(lam, length):
    """The formula {lam_j - j + length : 1 <= j <= length}, lam padded with zeros."""
    if length < len(lam):
        raise ValueError(f"beta-set length {length} < number of parts {len(lam)}")
    parts = [*lam, *[0] * (length - len(lam))]
    return tuple(sorted(parts[j - 1] - j + length for j in range(1, length + 1)))


def partition_from_beta_set(bset):
    """The sorted decoder: with d_1 > d_2 > ... > d_L the beads, part_j = d_j + j - L."""
    desc = sorted(bset, reverse=True)
    L = len(desc)
    parts = [d + j - L for j, d in enumerate(desc, start=1)]
    return tuple(p for p in parts if p > 0)
