"""Crystal isomorphisms computed on beta-sets.

A bipartition with bicharge (s1, s2), s1 <= s2, is encoded by a pair of
beta-sets of lengths (m + s1, m + s2) for a padding m large enough to hold
all parts.  One isomorphism step matches the shorter set into the longer
one greedily and re-shifts, producing the encoding of a bipartition at
bicharge (s1, s2 + e); composing steps into the stabilized regime computes
the map onto Kleshchev bipartitions.  A cheap inequality on the first part
and the charge gap detects when all remaining steps act as the identity,
which both stops the forward walk soundly and skips inert stages of the
inverse walk.

Both walks are the one stage generator `walk`: psi_tilde and
psi_tilde_inverse keep only where it ends, and the CLI renders every
stage of it.

All maps here are total on beta-sets / bipartitions; their crystal meaning
(commuting with the operators of mullineux.level2) only holds on Uglov
bipartitions, which is a tested property, not an input check.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from mullineux._core import kernels
from mullineux.errors import ChargeOrderError, NotInImageError, SizeOrderError
from mullineux.level2 import Bicharge, Bipartition, rank2, stable_shift
from mullineux.partitions import beta_set, partition_from_beta_set

# (stage bicharge, bipartition before the step, after it or None if skipped)
Stage = tuple[Bicharge, Bipartition, Bipartition | None]


def matching_pairs(x1: tuple[int, ...], x2: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The greedy injection behind the forward step, as ordered (a, b) pairs.

    Processes x1 smallest element first; each a takes the largest
    still-unmatched b <= a, falling back to the largest unmatched element.
    Kept independent of the kernels so it can cross-check them: the sorted
    second coordinates are exactly the first output of psi_step.
    """
    if len(x1) > len(x2):
        raise SizeOrderError(f"|x1| = {len(x1)} exceeds |x2| = {len(x2)}")
    remaining = list(x2)
    pairs = []
    for a in x1:
        below = [b for b in remaining if b <= a]
        b = max(below) if below else max(remaining)
        remaining.remove(b)
        pairs.append((a, b))
    return tuple(pairs)


def psi_step(e: int, x1: tuple[int, ...], x2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One forward step on a beta-set pair; requires |x1| <= |x2|.

    Each a in x1 (smallest first) is matched to the largest unmatched
    b <= a in x2, falling back to the largest unmatched element.  The
    matched image is y1; y2 is x1 + e, the unmatched rest of x2 + e, and
    the staircase 0..e-1, so |y2| = |x2| + e.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
    if len(x1) > len(x2):
        raise SizeOrderError(f"|x1| = {len(x1)} exceeds |x2| = {len(x2)}")
    return kernels.psi_step(e, tuple(x1), tuple(x2))


def psi_step_inverse(e: int, y1: tuple[int, ...], y2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse step: y2 must contain the staircase 0..e-1.

    The staircase is removed and the rest of y2 shifted down by e; each a
    in y1 (smallest first) is matched to the smallest unmatched b >= a,
    falling back to the smallest unmatched element.  The matched image is
    x1, and x2 collects y1 and the unmatched rest.
    """
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")
    if tuple(y2[:e]) != tuple(range(e)):
        raise NotInImageError(f"y2 must contain the staircase 0..{e - 1}")
    return kernels.psi_step_inverse(e, tuple(y1), tuple(y2))


def minimal_padding(blam: Bipartition, s: Bicharge) -> int:
    """Smallest padding m with m + s1 >= max(1, #parts1) and m + s2 >= #parts2."""
    return max(1 - s[0], len(blam[0]) - s[0], len(blam[1]) - s[1])


def encode_bipartition(blam: Bipartition, s: Bicharge, m: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Beta-set pair of blam at bicharge s with padding m (minimal by default)."""
    if m is None:
        m = minimal_padding(blam, s)
    return beta_set(blam[0], m + s[0]), beta_set(blam[1], m + s[1])


def psi_bipartition(e: int, s: Bicharge, blam: Bipartition, m: int | None = None) -> Bipartition:
    """One crystal-isomorphism step on bipartitions, (s1, s2) -> (s1, s2 + e).

    Rank-preserving and independent of the padding m, which is exposed
    only so the independence can be property-tested.
    """
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    x1, x2 = encode_bipartition(blam, s, m)
    y1, y2 = psi_step(e, x1, x2)
    return partition_from_beta_set(y1), partition_from_beta_set(y2)


def psi_bipartition_inverse(e: int, s: Bicharge, blam: Bipartition, m: int | None = None) -> Bipartition:
    """Inverse of psi_bipartition at stage s: undoes (s1, s2) -> (s1, s2 + e).

    The input is read at bicharge (s1, s2 + e); the padding must satisfy
    m + s2 >= #parts2 so that the encoding exposes the staircase, and the
    default picks the smallest such m.
    """
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    if m is None:
        m = minimal_padding(blam, s)
    y1, y2 = encode_bipartition(blam, (s1, s2 + e), m)
    x1, x2 = psi_step_inverse(e, y1, y2)
    return partition_from_beta_set(x1), partition_from_beta_set(x2)


def shortcut_applies(blam: Bipartition, s: Bicharge) -> bool:
    """Dominance test under which every remaining step is the identity.

    With h one more than the number of parts of the second component, the
    test is lam1_1 - 1 + s1 <= s2 - h.  It forces the first beta-set inside
    the staircase run of the second at every padding, hence the identity at
    this and at all larger charge gaps.
    """
    first = blam[0][0] if blam[0] else 0
    h = len(blam[1]) + 1
    return first - 1 + s[0] <= s[1] - h


def walk(e: int, s: Bicharge, blam: Bipartition, inverse: bool = False) -> Iterator[Stage]:
    """The stages of the stabilized isomorphism walk from blam at bicharge s.

    Yields (stage, before, after), where stage is the bicharge the step is
    taken at and after is None at a stage where shortcut_applies, which is
    an identity.  The forward walk steps upward from s and ends with its
    first shortcut stage: from there on every step is the identity.  It
    always terminates because steps preserve the rank n, which bounds the
    first part and the part count, while the charge gap grows by e each
    step; the shortcut inequality is forced once the gap exceeds 2n.

    The inverse walk starts above the charge gap 2n, where stages are
    provably inert for every bipartition of rank n, and yields all
    stable_shift(s, n, e) stages down to s itself; the first stage where
    the shortcut fails is inverted for real, and so on.
    """
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    cur = blam
    if inverse:
        for j in range(stable_shift(s, rank2(blam), e) - 1, -1, -1):
            stage = (s1, s2 + j * e)
            if shortcut_applies(cur, stage):
                yield stage, cur, None
            else:
                nxt = psi_bipartition_inverse(e, stage, cur)
                yield stage, cur, nxt
                cur = nxt
        return
    stage = (s1, s2)
    while not shortcut_applies(cur, stage):
        nxt = psi_bipartition(e, stage, cur)
        yield stage, cur, nxt
        cur = nxt
        stage = (s1, stage[1] + e)
    yield stage, cur, None


def walk_image(blam: Bipartition, stages: Iterable[Stage]) -> Bipartition:
    """Where a run of stages starting at blam ends (blam itself if it is empty)."""
    for _, before, after in stages:
        blam = before if after is None else after
    return blam


def psi_tilde(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """Compose steps from bicharge s upward into the stabilized regime.

    On Uglov bipartitions of (e, s) this computes the stabilized
    isomorphism onto Kleshchev bipartitions.
    """
    return walk_image(blam, walk(e, s, blam))


def psi_tilde_inverse(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """Inverse of psi_tilde: walk from the stabilized world down to s."""
    return walk_image(blam, walk(e, s, blam, inverse=True))
