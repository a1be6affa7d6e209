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

Both walks are psi_tilde_beta_sets, one plain loop per direction, which
runs on a beta-set pair and returns the pair it ends on: the recursion
in mullineux.engine keeps its partitions as beta-sets and calls it
directly, psi_tilde and psi_tilde_inverse call it on a bipartition
encoded at minimal padding, and the CLI passes it a list to collect
every stage for rendering.  The walk carries the pair as beta-sets from
stage to stage and never re-encodes it: a step's output is the next
step's input at the same padding, and the inverse walk pads only when
the next step needs a longer staircase.  The inverse walk reads the
first part and the part counts it needs off the pair, so its input may
come at any padding, and it starts at the highest stage the shortcut
does not skip.  Partitions are decoded only where one is needed, for the
final image and for rendering.

The walks and the kernels hold a beta-set as an int bitset, bit b set
iff b is a bead (see mullineux._core.kernels), so padding is a shift
and an or, and the shortcut is a few big-int operations: the largest
bead of the first set must lie in the staircase run 0, 1, ... that
starts the second (shortcut_on_beta_sets; shortcut_applies runs it on
the encoded bipartition).  Each public entry point converts once and
calls one kernel: a bipartition is encoded straight to a bitset pair
(encode_bits) and decoded straight back (decode_bits), and only
psi_step and psi_step_inverse, which take and return strictly increasing
tuples, go through pair_to_bits, which refuses a malformed set.
encode_bipartition and decode_bipartition give the tuple form.

All maps here are total on beta-sets / bipartitions; their crystal meaning
(commuting with the charged operators of the level-2 crystal, which the
tests keep as a reference in tests/crystal_reference.py) only holds on
Uglov bipartitions, which is a tested property, not an input check.
"""

from __future__ import annotations

from mullineux._core import kernels
from mullineux.errors import ChargeOrderError, NotInImageError, SizeOrderError, check_modulus
from mullineux.partitions import (
    Partition,
    beta_bits,
    beta_set,  # unused here; bench/layers.py wraps it on this module
    beta_set_from_bits,
    beta_set_to_bits,
    minimal_beta_set,
    pad_beta_set,
    partition_from_beta_set,
    partition_from_bits,
)

Bipartition = tuple[Partition, Partition]
Bicharge = tuple[int, int]
BetaPair = tuple[tuple[int, ...], tuple[int, ...]]
BitPair = tuple[int, int]
# (stage bicharge, bitset pair before the step, after it or None if skipped)
Stage = tuple[Bicharge, BitPair, BitPair | None]


def pair_to_bits(pair: BetaPair) -> BitPair:
    """The bitsets of a pair of beta-sets; raises ValueError unless both
    are strictly increasing nonnegative ints."""
    return beta_set_to_bits(pair[0]), beta_set_to_bits(pair[1])


def pair_from_bits(pair: BitPair) -> BetaPair:
    """The tuple form of a pair of bitset beta-sets."""
    return beta_set_from_bits(pair[0]), beta_set_from_bits(pair[1])


def psi_step(e: int, x1: tuple[int, ...], x2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One forward step on a beta-set pair; requires |x1| <= |x2|.

    Each a in x1 (smallest first) is matched to the largest unmatched
    b <= a in x2, falling back to the largest unmatched element.  The
    matched image is y1; y2 is x1 + e, the unmatched rest of x2 + e, and
    the staircase 0..e-1, so |y2| = |x2| + e.  Both inputs must be strictly
    increasing nonnegative ints (ValueError otherwise).
    """
    check_modulus(e)
    b1, b2 = pair_to_bits((x1, x2))
    if b1.bit_count() > b2.bit_count():
        raise SizeOrderError(f"|x1| = {b1.bit_count()} exceeds |x2| = {b2.bit_count()}")
    return pair_from_bits(kernels.psi_step(e, b1, b2))


def psi_step_inverse(e: int, y1: tuple[int, ...], y2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse step: y2 must contain the staircase 0..e-1.

    The staircase is removed and the rest of y2 shifted down by e; each a
    in y1 (smallest first) is matched to the smallest unmatched b >= a,
    falling back to the smallest unmatched element.  The matched image is
    x1, and x2 collects y1 and the unmatched rest.  Both inputs must be
    strictly increasing nonnegative ints (ValueError otherwise).
    """
    check_modulus(e)
    b1, b2 = pair_to_bits((y1, y2))
    staircase = (1 << e) - 1
    if b2 & staircase != staircase:
        raise NotInImageError(f"y2 must contain the staircase 0..{e - 1}")
    return pair_from_bits(kernels.psi_step_inverse(e, b1, b2))


def stable_shift(s: Bicharge, n: int, e: int) -> int:
    """Smallest k >= 0 with s2 + k*e - s1 > 2n.

    Beyond that gap every second-component candidate node outranks every
    first-component one in content (contents live within n of the
    component charge), so node order, signature words and the whole crystal
    structure on rank <= n bipartitions no longer depend on k.  The gap
    must be positive: a large gap of the opposite sign stabilizes too, but
    to a different crystal with the component roles exchanged.
    """
    return max(0, (2 * n - s[1] + s[0]) // e + 1)


def minimal_padding(blam: Bipartition, s: Bicharge) -> int:
    """Smallest padding m with m + s1 >= max(1, #parts1) and m + s2 >= #parts2."""
    return max(1 - s[0], len(blam[0]) - s[0], len(blam[1]) - s[1])


def encode_bits(blam: Bipartition, s: Bicharge, m: int | None = None) -> BitPair:
    """Bitset beta-set pair of blam at bicharge s with padding m (minimal by default)."""
    if m is None:
        m = minimal_padding(blam, s)
    return beta_bits(blam[0], m + s[0]), beta_bits(blam[1], m + s[1])


def encode_bipartition(blam: Bipartition, s: Bicharge, m: int | None = None) -> BetaPair:
    """Beta-set pair of blam at bicharge s with padding m (minimal by default)."""
    return pair_from_bits(encode_bits(blam, s, m))


def decode_bipartition(pair: BetaPair) -> Bipartition:
    """The bipartition a beta-set pair encodes, at whatever bicharge and padding."""
    return partition_from_beta_set(pair[0]), partition_from_beta_set(pair[1])


def decode_bits(pair: BitPair) -> Bipartition:
    """The bipartition a bitset pair encodes, at whatever bicharge and padding."""
    return partition_from_bits(pair[0]), partition_from_bits(pair[1])


def psi_bipartition(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """One crystal-isomorphism step on bipartitions, (s1, s2) -> (s1, s2 + e).

    Rank-preserving and independent of the padding of the encoding, which
    the tests check on psi_step directly.  s1 <= s2 gives |x1| <= |x2|.
    """
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    check_modulus(e)
    return decode_bits(kernels.psi_step(e, *encode_bits(blam, s)))


def psi_bipartition_inverse(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """Inverse of psi_bipartition at stage s: undoes (s1, s2) -> (s1, s2 + e).

    The input is read at bicharge (s1, s2 + e), at the minimal padding of
    stage s: m + s2 >= #parts2, so that the encoding exposes the staircase.
    """
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    check_modulus(e)
    pair = encode_bits(blam, (s1, s2 + e), minimal_padding(blam, s))
    return decode_bits(kernels.psi_step_inverse(e, *pair))


def shortcut_applies(blam: Bipartition, s: Bicharge) -> bool:
    """Dominance test under which every remaining step is the identity.

    With h one more than the number of parts of the second component, the
    test is lam1_1 - 1 + s1 <= s2 - h.  It forces the first beta-set inside
    the staircase run of the second at every padding, hence the identity at
    this and at all larger charge gaps: shortcut_on_beta_sets on blam
    encoded at s.
    """
    return shortcut_on_beta_sets(*encode_bits(blam, s))


def shortcut_on_beta_sets(x1: int, x2: int, shift: int = 0) -> bool:
    """shortcut_applies(blam, (s1, s2)) for blam encoded at bicharge (s1, s2 + shift).

    The inequality says that the largest bead of the first set, plus
    shift, falls in the staircase run 0, 1, ... that starts the second set;
    the padding cancels from both sides, so any valid padding gives the
    same answer.  x2 ^ (x2 + 1) is a mask one bit longer than that run.
    An empty first set meets it.  The forward walk reads its pair at the
    stage (shift 0), the inverse walk at the bicharge above it (shift e).
    """
    return (x2 ^ (x2 + 1)) >> (x1.bit_length() + shift) != 0


def psi_tilde_beta_sets(
    e: int, s: Bicharge, pair: BitPair, inverse: bool = False, stages: list[Stage] | None = None
) -> BitPair:
    """The stabilized isomorphism walk from a bitset pair at bicharge s: the pair it ends on.

    This is psi_tilde (or psi_tilde_inverse) on beta-sets held as int
    bitsets; the result's padding is not fixed.  When stages is a list,
    every stage is appended to it as (stage, before, after), where stage
    is the bicharge the step is taken at, before and after are bitset
    pairs and after is None at a stage where the shortcut applies, which
    is an identity.  The forward walk takes pair as the encoding of a
    bipartition at s, at any padding, steps upward and ends with its first
    shortcut stage: from there on every step is the identity.  It always
    terminates because steps preserve the rank n, which bounds the first
    part and the part count, while the charge gap grows by e each step; the
    shortcut inequality is forced once the gap exceeds 2n.

    The inverse walk reads only the two partitions off pair, whose sets may
    have any padding each, and runs over the stable_shift(s, n, e) stages
    from above the charge gap 2n, where they are inert for every
    bipartition of rank n, down to s itself.  The shortcut inequality gives
    the first stage top where it fails, so the stages above are inert
    without a test: they are recorded only when stages is a list, and the
    pair is padded once, to the minimal padding of stage top read at the
    bicharge above it.  The first part and the part count that fix top are
    at most n, so top is below stable_shift(s, n, e) without computing n,
    which only a recorded walk needs.  From there each stage is tested on
    the pair and inverted for real where the shortcut fails, padding the
    pair first if its second set lacks the staircase 0..e-1 the step
    removes.  A modulus below 2 is refused at entry: at e = 0 the forward
    walk's charge gap never grows.
    """
    check_modulus(e)
    s1, s2 = s
    if s1 > s2:
        raise ChargeOrderError(f"bicharge must satisfy s1 <= s2, got {s}")
    if not inverse:
        while not shortcut_on_beta_sets(*pair):
            nxt = kernels.psi_step(e, *pair)
            if stages is not None:
                stages.append(((s1, s2), pair, nxt))
            pair = nxt
            s2 += e
        if stages is not None:
            stages.append(((s1, s2), pair, None))
        return pair
    a, b = minimal_beta_set(pair[0]), minimal_beta_set(pair[1])
    # at minimal padding only 1, the empty partition's set (0,), has bead 0
    parts1 = 0 if a & 1 else a.bit_count()
    parts2 = 0 if b & 1 else b.bit_count()
    # shortcut_applies(blam, (s1, s2 + j*e)) fails exactly for j*e < gap,
    # where the top bead less the bead count, plus one, is the first part
    # of the first partition
    gap = a.bit_length() - a.bit_count() + parts2 + s1 - s2
    top = max(-1, (gap - 1) // e)
    low = s2 + max(top, 0) * e
    m = max(1 - s1, parts1 - s1, parts2 - low)
    pair = pad_beta_set(a, m + s1), pad_beta_set(b, m + low + e)
    if stages is not None:
        k = stable_shift(s, sum(map(sum, decode_bits(pair))), e)
        stages.extend(((s1, s2 + j * e), pair, None) for j in range(k - 1, top, -1))
    staircase = (1 << e) - 1
    for j in range(top, -1, -1):
        if shortcut_on_beta_sets(pair[0], pair[1], e):
            if stages is not None:
                stages.append(((s1, s2 + j * e), pair, None))
            continue
        y1, y2 = pair
        if y2 & staircase != staircase:
            pad = e - (y2 ^ (y2 + 1)).bit_length() + 1  # e less the run 0, 1, ... y2 starts with
            y1, y2 = pad_beta_set(y1, y1.bit_count() + pad), pad_beta_set(y2, y2.bit_count() + pad)
        nxt = kernels.psi_step_inverse(e, y1, y2)
        if stages is not None:
            stages.append(((s1, s2 + j * e), pair, nxt))
        pair = nxt
    return pair


def _walk(e: int, s: Bicharge, blam: Bipartition, inverse: bool) -> Bipartition:
    """psi_tilde_beta_sets on blam encoded at minimal padding, decoded."""
    return decode_bits(psi_tilde_beta_sets(e, s, encode_bits(blam, s), inverse))


def psi_tilde(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """Compose steps from bicharge s upward into the stabilized regime.

    On Uglov bipartitions of (e, s) this computes the stabilized
    isomorphism onto Kleshchev bipartitions.
    """
    return _walk(e, s, blam, False)


def psi_tilde_inverse(e: int, s: Bicharge, blam: Bipartition) -> Bipartition:
    """Inverse of psi_tilde: walk from the stabilized world down to s."""
    return _walk(e, s, blam, True)
