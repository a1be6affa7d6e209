"""Beta-set isomorphism steps, their inverses, and the stabilized walks.

The greedy matching conventions are pinned by the four published tower
symbols and the published inverse symbol; everything else is property
coverage: round trips, rank preservation, padding independence,
equivariance with the charged crystal operators, and identity in the
stabilized regime.
"""

import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mullineux
from mullineux._core import kernels
from mullineux.betamaps import (
    decode_bipartition,
    decode_bits,
    encode_bipartition,
    encode_bits,
    minimal_padding,
    pair_from_bits,
    pair_to_bits,
    psi_bipartition,
    psi_bipartition_inverse,
    psi_step,
    psi_step_inverse,
    psi_tilde,
    psi_tilde_beta_sets,
    psi_tilde_inverse,
    shortcut_applies,
    shortcut_on_beta_sets,
    stable_shift,
)
from mullineux.engine import conjecture_tower, mullineux_conjectural
from mullineux.errors import ChargeOrderError, NotInImageError, SizeOrderError
from mullineux.partitions import beta_set, enumerate_bipartitions, enumerate_e_regular, enumerate_partitions

import beta_reference
from conftest import beta_sets
from crystal_reference import (
    f_tilde2,
    is_very_dominant,
    matching_pairs,
    rank2,
    uglov_bipartitions,
)

X_STAR = (0, 3, 5, 6, 10, 12, 15, 18, 20)


# ---------------------------------------------------------------------------
# forward step: published symbols


def test_tower_symbols_pinned():
    y1, y2 = psi_step(3, X_STAR, X_STAR)
    assert y1 == X_STAR
    assert y2 == (0, 1, 2, 3, 6, 8, 9, 13, 15, 18, 21, 23)

    y1, y2 = psi_step(3, y1, y2)
    assert y1 == (0, 2, 3, 6, 8, 9, 13, 15, 18)
    assert y2 == (0, 1, 2, 3, 4, 6, 8, 9, 13, 15, 18, 21, 23, 24, 26)
    assert set(y1) <= set(y2)

    y1, y2 = psi_step(3, y1, y2)
    assert y1 == (0, 2, 3, 6, 8, 9, 13, 15, 18)
    assert y2 == (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 16, 18, 21, 24, 26, 27, 29)
    assert not set(y1) <= set(y2)

    y1, y2 = psi_step(3, y1, y2)
    assert y1 == (0, 2, 3, 6, 7, 9, 11, 12, 18)
    assert y2[:14] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 18)
    assert set(y1) <= set(y2)


def test_matching_pairs_drive_the_step():
    # the published second symbol, pair by pair
    top = (0, 1, 2, 3, 6, 8, 9, 13, 15, 18, 21, 23)
    pairs = matching_pairs(X_STAR, top)
    assert pairs == (
        (0, 0), (3, 3), (5, 2), (6, 6), (10, 9), (12, 8), (15, 15), (18, 18), (20, 13),
    )
    matched = tuple(sorted(b for _, b in pairs))
    assert matched == psi_step(3, X_STAR, top)[0]


@given(beta_sets(), beta_sets())
@settings(max_examples=300)
def test_matching_is_injective_and_matches_kernel(a, b):
    x1, x2 = (a, b) if len(a) <= len(b) else (b, a)
    pairs = matching_pairs(x1, x2)
    firsts = [p[0] for p in pairs]
    seconds = [p[1] for p in pairs]
    assert firsts == list(x1)
    assert len(set(seconds)) == len(seconds)
    assert set(seconds) <= set(x2)
    for e in (2, 5):
        assert tuple(sorted(seconds)) == psi_step(e, x1, x2)[0]


def test_step_matches_matching_pairs_exhaustively():
    # every x1, x2 inside range(7): the closed form when x1 is a subset of
    # x2 and the greedy matching otherwise give matching_pairs' outputs
    subsets = [tuple(b for b in range(7) if mask >> b & 1) for mask in range(1 << 7)]
    for x2 in subsets:
        for x1 in subsets:
            if len(x1) > len(x2):
                continue
            matched = {b for _, b in matching_pairs(x1, x2)}
            y1 = tuple(sorted(matched))
            for e in (2, 3, 4):
                y2 = tuple(sorted({*range(e), *(a + e for a in x1), *(b + e for b in x2 if b not in matched)}))
                assert pair_from_bits(kernels.psi_step(e, *pair_to_bits((x1, x2)))) == (y1, y2), (e, x1, x2)


def test_step_identity_branch():
    # when x1 is contained in x2 the matching is the identity
    y1, y2 = psi_step(4, (1, 5), (0, 1, 5, 9))
    assert y1 == (1, 5)
    assert y2 == (0, 1, 2, 3) + tuple(x + 4 for x in (0, 1, 5, 9))


def test_step_size_check():
    with pytest.raises(SizeOrderError):
        psi_step(3, (0, 1, 2), (0, 1))
    # the kernels check sizes too, for callers that skip the typed check
    with pytest.raises(ValueError):
        kernels.psi_step(3, *pair_to_bits(((0, 1), (5,))))
    with pytest.raises(ValueError):
        kernels.psi_step_inverse(2, *pair_to_bits(((0, 1, 2), (0, 1, 4))))


def test_inverse_symbol_pinned():
    # unshifted second row: staircase 0..5 plus the published row shifted by 6
    y2 = tuple(range(6)) + tuple(y + 6 for y in (0, 1, 2, 5, 13, 16))
    x1, x2 = psi_step_inverse(6, (2, 5, 8), y2)
    assert x1 == (2, 5, 13)
    assert x2 == (0, 1, 2, 5, 8, 16)


def test_inverse_identity_branch():
    y2 = tuple(range(3)) + tuple(y + 3 for y in (1, 5, 7))
    x1, x2 = psi_step_inverse(3, (1, 5), y2)
    assert x1 == (1, 5)
    assert x2 == (1, 5, 7)


def test_inverse_staircase_check():
    with pytest.raises(NotInImageError):
        psi_step_inverse(3, (1,), (0, 1, 3, 7))


@pytest.mark.parametrize("bad", [(1, 1), (3, 1), (-1,)])
def test_malformed_beta_sets_are_refused(bad):
    # a bitset would merge a repeated element and place the others anywhere,
    # so the tuple entry points refuse any set that is not strictly
    # increasing and nonnegative
    with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
        conjecture_tower(2, bad, 3)
    with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
        psi_step(2, bad, (0, 3, 5))
    with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
        psi_step(2, (0,), bad)
    with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
        psi_step_inverse(2, bad, (0, 1, 3, 5, 7))
    with pytest.raises(ValueError, match="strictly increasing nonnegative ints"):
        psi_step_inverse(2, (1,), (0, 1, *(b + 2 for b in bad)))


# ---------------------------------------------------------------------------
# the bitset kernels against the tuple references


def inverse_matching_pairs(y1, avail):
    """The greedy injection behind the inverse step, as ordered (a, b) pairs:
    each a in y1, smallest first, takes the smallest unmatched b >= a in
    avail, falling back to the smallest unmatched element."""
    remaining = list(avail)
    pairs = []
    for a in y1:
        above = [b for b in remaining if b >= a]
        b = min(above) if above else min(remaining)
        remaining.remove(b)
        pairs.append((a, b))
    return pairs


class Checked:
    """Each kernel call checked against the tuple reference, with a count of
    the calls whose matching falls back."""

    def __init__(self, monkeypatch):
        self.calls = {"psi_step": 0, "psi_step_inverse": 0}
        self.fallbacks = {"psi_step": 0, "psi_step_inverse": 0}
        for name in self.calls:
            monkeypatch.setattr(kernels, name, self.wrap(name, getattr(kernels, name)))

    def wrap(self, name, kernel):
        reference = getattr(beta_reference, name)

        def checked(e, x1, x2):
            out = kernel(e, x1, x2)
            self.check(name, e, pair_from_bits((x1, x2)), out, reference)
            return out

        return checked

    def check(self, name, e, pair, out, reference):
        assert pair_from_bits(out) == reference(e, *pair), (name, e, pair)
        self.calls[name] += 1
        if name == "psi_step":
            fell_back = any(b > a for a, b in matching_pairs(*pair))
        else:
            fell_back = any(b < a for a, b in inverse_matching_pairs(pair[0], [y - e for y in pair[1][e:]]))
        self.fallbacks[name] += fell_back


def test_kernels_match_the_tuple_references_on_every_walk_and_tower_stage(monkeypatch):
    checked = Checked(monkeypatch)
    for e in (2, 3, 4, 5):
        for n in range(13):
            for lam in enumerate_partitions(n):
                conjecture_tower(e, beta_set(lam, max(1, len(lam))), 9)
            # the recursion walks forward and back at moduli 2e, 4e, ...
            for lam in enumerate_e_regular(n, e):
                mullineux_conjectural(lam, e)
    for e, s in WALK_GRID:
        for n in range(7):
            for blam in enumerate_bipartitions(n):
                psi_tilde(e, s, blam)
                psi_tilde_inverse(e, s, blam)
    assert all(checked.calls.values()), checked.calls
    # both kernels fall back at some stage, so the fallback branches ran
    assert all(checked.fallbacks.values()), checked.fallbacks


def test_kernels_match_the_tuple_references_on_random_pairs(rng, monkeypatch):
    checked = Checked(monkeypatch)
    for _ in range(3000):
        e = rng.randint(2, 9)
        top = rng.choice((12, 60, 200))
        x2 = sorted(rng.sample(range(top), rng.randint(1, min(top, 60))))
        x1 = sorted(rng.sample(range(top), rng.randint(0, len(x2))))
        checked.check("psi_step", e, (tuple(x1), tuple(x2)), kernels.psi_step(e, *pair_to_bits((x1, x2))),
                      beta_reference.psi_step)
        y2 = (*range(e), *(b + e for b in x2))
        out = kernels.psi_step_inverse(e, *pair_to_bits((x1, y2)))
        checked.check("psi_step_inverse", e, (tuple(x1), y2), out, beta_reference.psi_step_inverse)
    assert all(checked.fallbacks.values()), checked.fallbacks


def test_kernels_keep_the_size_contract():
    # |x1| <= |x2| going forward and |y1| <= |y2| - e going back, at the edge
    x1, x2 = pair_to_bits(((1, 4, 6), (0, 2, 3)))
    assert kernels.psi_step(2, x1, x2)[0].bit_count() == 3
    with pytest.raises(ValueError, match=r"psi_step needs \|x1\| <= \|x2\|"):
        kernels.psi_step(2, x1 | 1 << 9, x2)
    y1, y2 = pair_to_bits(((1, 4, 6), (0, 1, 3, 4, 8)))
    assert kernels.psi_step_inverse(2, y1, y2)[0].bit_count() == 3
    with pytest.raises(ValueError, match=r"psi_step_inverse needs \|y1\| <= \|y2\| - e"):
        kernels.psi_step_inverse(2, y1 | 1 << 9, y2)


@given(beta_sets(), beta_sets())
@settings(max_examples=500)
def test_step_round_trip(a, b):
    x1, x2 = (a, b) if len(a) <= len(b) else (b, a)
    for e in (2, 3, 7):
        y1, y2 = psi_step(e, x1, x2)
        assert len(y1) == len(x1)
        assert len(y2) == len(x2) + e
        assert psi_step_inverse(e, y1, y2) == (x1, x2)


@given(beta_sets(), beta_sets())
@settings(max_examples=300)
def test_step_surjectivity_round_trip(a, b):
    """Any pair (y1, staircase + shifted y2) is hit by the forward step."""
    y1, raw = (a, b) if len(a) <= len(b) else (b, a)
    for e in (2, 4):
        y2 = tuple(range(e)) + tuple(y + e for y in raw)
        x1, x2 = psi_step_inverse(e, y1, y2)
        assert psi_step(e, x1, x2) == (y1, y2)


def probing_step_inverse(e, y1, y2):
    """psi_step_inverse as first written: every search probes past taken
    entries one at a time, and every fallback scans from the start."""
    avail = [y - e for y in y2[e:]]
    taken = [False] * len(avail)
    x1 = []
    for a in y1:
        i = bisect_left(avail, a)
        while i < len(avail) and taken[i]:
            i += 1
        if i == len(avail):
            i = 0
            while taken[i]:
                i += 1
        taken[i] = True
        x1.append(avail[i])
    x1.sort()
    x2 = list(y1)
    x2 += [b for i, b in enumerate(avail) if not taken[i]]
    x2.sort()
    return tuple(x1), tuple(x2)


def test_step_inverse_matches_the_probing_loop_exhaustively():
    subsets = [tuple(b for b in range(7) if mask >> b & 1) for mask in range(1 << 7)]
    for e in (1, 2, 3):
        for raw in subsets:
            y2 = tuple(range(e)) + tuple(y + e for y in raw)
            for y1 in subsets:
                if len(y1) <= len(raw):
                    got = pair_from_bits(kernels.psi_step_inverse(e, *pair_to_bits((y1, y2))))
                    assert got == probing_step_inverse(e, y1, y2)


@given(beta_sets(max_value=60, max_size=20), beta_sets(max_value=60, max_size=20), st.integers(1, 6))
@settings(max_examples=500)
def test_step_inverse_matches_the_probing_loop(a, b, e):
    y1, raw = (a, b) if len(a) <= len(b) else (b, a)
    y2 = tuple(range(e)) + tuple(y + e for y in raw)
    got = pair_from_bits(kernels.psi_step_inverse(e, *pair_to_bits((y1, y2))))
    assert got == probing_step_inverse(e, y1, y2)


# ---------------------------------------------------------------------------
# bipartition-level step


def test_psi_bipartition_pinned():
    lam = (6, 5, 2, 2, 1, 1)
    assert psi_bipartition(6, (0, 3), (lam, lam)) == ((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1))
    assert psi_bipartition(4, (0, 2), ((), ())) == ((), ())
    with pytest.raises(ChargeOrderError):
        psi_bipartition(3, (2, 0), ((1,), ()))


def test_psi_bipartition_encoding_matches_published_symbol():
    lam = (6, 5, 2, 2, 1, 1)
    x1, x2 = encode_bipartition((lam, lam), (0, 3), 6)
    assert x1 == (1, 2, 4, 5, 9, 11)
    assert x2 == (0, 1, 2, 4, 5, 7, 8, 12, 14)
    assert minimal_padding((lam, lam), (0, 3)) == 6


def test_psi_bipartition_rank_and_padding_independence():
    for e, s in [(2, (0, 0)), (3, (0, 2)), (6, (0, 3))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                base = psi_bipartition(e, s, blam)
                assert rank2(base) == n
                m = minimal_padding(blam, s)
                for k in (1, 5):
                    assert decode_bipartition(psi_step(e, *encode_bipartition(blam, s, m + k))) == base


def test_psi_bipartition_inverse_round_trip():
    for e, s in [(2, (0, 0)), (3, (0, 2)), (6, (0, 3))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                image = psi_bipartition(e, s, blam)
                assert psi_bipartition_inverse(e, s, image) == blam


def test_encode_bits_matches_the_formula():
    # the bitset encoder against the tuple formula of tests/beta_reference.py
    for s in [(0, 0), (0, 2), (-2, 1), (-1, 3)]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                m0 = minimal_padding(blam, s)
                assert encode_bits(blam, s) == encode_bits(blam, s, m0)
                for m in range(m0, m0 + 4):
                    expected = tuple(beta_reference.beta_set(lam, m + c) for lam, c in zip(blam, s))
                    assert pair_from_bits(encode_bits(blam, s, m)) == expected, (blam, s, m)
                    assert encode_bipartition(blam, s, m) == expected, (blam, s, m)


def test_psi_bipartition_matches_the_tuple_composition():
    # the steps encode straight to bitsets; the tuple steps on tuple pairs
    # must give the same bipartitions
    for e, s in [(2, (0, 0)), (3, (0, 2)), (3, (-1, 1)), (6, (0, 3))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                expected = decode_bipartition(psi_step(e, *encode_bipartition(blam, s)))
                assert psi_bipartition(e, s, blam) == expected, (e, s, blam)
                pair = encode_bipartition(blam, (s[0], s[1] + e), minimal_padding(blam, s))
                expected = decode_bipartition(psi_step_inverse(e, *pair))
                assert psi_bipartition_inverse(e, s, blam) == expected, (e, s, blam)
    for step in (psi_bipartition, psi_bipartition_inverse):
        with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
            step(1, (0, 0), ((1,), ()))
        with pytest.raises(ChargeOrderError):
            step(1, (2, 0), ((1,), ()))


def test_identity_branch_when_first_encoding_is_contained():
    # containment of the beta-sets forces the bipartition map to act trivially
    blam = ((1,), (3, 2))
    s = (0, 4)
    x1, x2 = encode_bipartition(blam, s)
    assert set(x1) <= set(x2)
    assert psi_bipartition(3, s, blam) == blam


# ---------------------------------------------------------------------------
# equivariance with crystal operators


def test_crystal_equivariance():
    for e, s in [(2, (0, 0)), (3, (0, 1)), (4, (1, 3))]:
        for blam in uglov_bipartitions(e, s, 8):
            image = psi_bipartition(e, s, blam)
            up = (s[0], s[1] + e)
            for i in range(e):
                moved = f_tilde2(blam, i, e, s)
                moved_image = f_tilde2(image, i, e, up)
                if moved is None:
                    assert moved_image is None
                else:
                    assert moved_image == psi_bipartition(e, s, moved)


# ---------------------------------------------------------------------------
# stabilized regime and walks


def test_identity_in_stabilized_regime():
    # charge gap above twice the rank forces the step to be the identity
    for e in (2, 3, 4):
        s = (0, 17)
        for blam in uglov_bipartitions(e, s, 8):
            assert psi_bipartition(e, s, blam) == blam
            assert psi_tilde(e, s, blam) == blam


def test_published_dominance_inequality_is_not_sufficient():
    # regression: the traditional inequality admits small counterexamples,
    # which is why the walks rely on the shortcut and the 2n gap instead
    blam = ((2, 1), (2, 1))
    assert is_very_dominant((0, 3), rank2(blam), 6)
    assert psi_bipartition(6, (0, 3), blam) == ((1, 1), (2, 1, 1))


def test_shortcut_pinned():
    assert shortcut_applies(((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1)), (0, 9))
    assert shortcut_applies(((1,), ()), (0, 5))
    assert not shortcut_applies(((6, 5, 2, 2, 1, 1), (6, 5, 2, 2, 1, 1)), (0, 3))


def test_shortcut_implies_identity_forever():
    for e, s2 in [(2, 3), (3, 4)]:
        for n in range(8):
            for blam in enumerate_bipartitions(n):
                if not shortcut_applies(blam, (0, s2)):
                    continue
                cur = blam
                for k in range(4):
                    cur = psi_bipartition(e, (0, s2 + k * e), cur)
                    assert cur == blam


@st.composite
def shortcut_pairs(draw, max_value=40, max_size=12):
    """(x1, x2), both strictly increasing, with x2 containing 0..max(x1)."""
    top = draw(st.integers(0, max_value))
    x1 = draw(st.sets(st.integers(0, top), max_size=max_size)) | {top}
    above = draw(st.sets(st.integers(top + 1, top + 1 + max_value), max_size=max_size))
    return tuple(sorted(x1)), tuple(range(top + 1)) + tuple(sorted(above))


@given(shortcut_pairs(), st.integers(2, 8))
@settings(max_examples=300)
def test_step_after_the_shortcut_is_an_inclusion_that_keeps_it(pair, e):
    # the lemma conjecture_tower(..., stop_at_shortcut=True) rests on, for the
    # kernel the tower runs
    x1, x2 = pair
    b1, b2 = pair_to_bits(pair)
    assert len(x1) <= len(x2) and shortcut_on_beta_sets(b1, b2)
    c1, c2 = kernels.psi_step(e, b1, b2)
    y1, y2 = pair_from_bits((c1, c2))
    assert y1 == x1
    assert y2 == tuple(range(e)) + tuple(b + e for b in x2)
    assert shortcut_on_beta_sets(c1, c2)
    assert set(y1) <= set(y2)


def test_shortcut_on_beta_sets_matches_shortcut_applies():
    # shortcut_applies calls shortcut_on_beta_sets, so both answer to the
    # published inequality lam1_1 - 1 + s1 <= s2 - h, h one more than the
    # second component's part count; forward pairs are read at the stage,
    # inverse pairs at the bicharge above it
    for n in range(8):
        for blam in enumerate_bipartitions(n):
            first = blam[0][0] if blam[0] else 0
            h = len(blam[1]) + 1
            for e in (2, 3):
                for s1 in (0, -2):
                    for gap in range(2 * n + e + 1):
                        s = (s1, s1 + gap)
                        expected = first - 1 + s1 <= s1 + gap - h
                        assert shortcut_applies(blam, s) == expected, (blam, s)
                        up = (s1, s1 + gap + e)
                        m = minimal_padding(blam, s)
                        for pad in range(m, m + 4):
                            x1, x2 = pair_to_bits(encode_bipartition(blam, s, pad))
                            assert shortcut_on_beta_sets(x1, x2) == expected
                            y1, y2 = pair_to_bits(encode_bipartition(blam, up, pad))
                            assert shortcut_on_beta_sets(y1, y2, e) == expected


def test_psi_tilde_pinned():
    lam = (6, 5, 2, 2, 1, 1)
    assert psi_tilde(6, (0, 3), (lam, lam)) == ((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1))
    assert psi_tilde_inverse(6, (0, 3), ((6, 4, 2), (11, 9, 2))) == ((11, 4, 2), (11, 4, 2))
    # the walked image already satisfies the shortcut at its new bicharge,
    # so walking it again from there changes nothing
    image = ((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1))
    assert psi_tilde(6, (0, 9), image) == image
    with pytest.raises(ChargeOrderError):
        psi_tilde(3, (1, 0), ((), ()))
    with pytest.raises(ChargeOrderError):
        psi_tilde_inverse(3, (1, 0), ((), ()))


WALK_GRID = [(2, (0, 0)), (2, (-1, 2)), (3, (0, 1)), (4, (1, 1))]


def decoded_walk(e, s, blam, inverse=False):
    """The walk's recorded stages with both bitset pairs decoded to bipartitions."""
    walked = []
    psi_tilde_beta_sets(e, s, pair_to_bits(encode_bipartition(blam, s)), inverse, walked)
    return [
        (stage, decode_bits(before), None if after is None else decode_bits(after))
        for stage, before, after in walked
    ]


def test_forward_walk_stages():
    for e, s in WALK_GRID:
        for n in range(6):
            for blam in enumerate_bipartitions(n):
                stages = decoded_walk(e, s, blam)
                # s2 advances by e per stage, and only the last stage is a shortcut
                assert [stage for stage, _, _ in stages] == [
                    (s[0], s[1] + k * e) for k in range(len(stages))
                ]
                assert [after is None for _, _, after in stages] == [False] * (len(stages) - 1) + [True]
                assert stages[0][1] == blam
                for (_, _, after), (_, before, _) in zip(stages, stages[1:]):
                    assert before == after
                assert stages[-1][1] == psi_tilde(e, s, blam)


def test_inverse_walk_stages():
    for e, s in WALK_GRID:
        for n in range(6):
            for blam in enumerate_bipartitions(n):
                stages = decoded_walk(e, s, blam, inverse=True)
                k = stable_shift(s, rank2(blam), e)
                # every stage from the stabilized gap down to s, none skipped
                assert [stage for stage, _, _ in stages] == [
                    (s[0], s[1] + j * e) for j in range(k - 1, -1, -1)
                ]
                cur = blam
                for stage, before, after in stages:
                    assert before == cur
                    assert (after is None) == shortcut_applies(before, stage)
                    cur = before if after is None else after
                assert cur == psi_tilde_inverse(e, s, blam)


def test_pair_walks_match_the_bipartition_walks_at_any_padding():
    # the forward walk takes a pair encoded at s, at any padding m; the
    # inverse walk reads the two partitions off sets padded independently
    for e, s in WALK_GRID:
        for n in range(6):
            for blam in enumerate_bipartitions(n):
                m = minimal_padding(blam, s)
                for extra in (0, 1, e + 2):
                    pair = pair_to_bits(encode_bipartition(blam, s, m + extra))
                    assert decode_bits(psi_tilde_beta_sets(e, s, pair)) == psi_tilde(e, s, blam)
                    loose = pair_to_bits((
                        beta_set(blam[0], len(blam[0]) + extra),
                        beta_set(blam[1], max(1, len(blam[1])) + 2 * extra),
                    ))
                    back = psi_tilde_beta_sets(e, s, loose, inverse=True)
                    assert decode_bits(back) == psi_tilde_inverse(e, s, blam), (e, s, blam, extra)


def test_walk_checks_charge_order_on_call():
    for inverse in (False, True):
        stages = []
        with pytest.raises(ChargeOrderError):
            psi_tilde_beta_sets(3, (1, 0), (1, 1), inverse, stages)
        assert stages == []


def test_walk_refuses_a_modulus_below_two():
    blam = ((2,), (1,))
    for e in (-2, -1, 0, 1):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
            psi_tilde_inverse(e, (0, 0), blam)
        if e:
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                psi_tilde(e, (0, 0), blam)
    # without the check the e = 0 forward walk never ends, since the charge
    # gap never grows; a child process turns that into a failure, not a hang
    code = "from mullineux.betamaps import psi_tilde; psi_tilde(0, (0, 0), ((2,), (1,)))"
    src = str(Path(mullineux.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert "ValueError: modulus must be >= 2, got 0" in done.stderr


def test_psi_tilde_round_trip_on_members():
    for e, s in [(2, (0, 0)), (3, (0, 1)), (3, (0, 2))]:
        for blam in uglov_bipartitions(e, s, 8):
            image = psi_tilde(e, s, blam)
            assert rank2(image) == rank2(blam)
            assert psi_tilde_inverse(e, s, image) == blam


def test_psi_tilde_round_trip_on_arbitrary_bipartitions():
    for e, s in [(2, (0, 1)), (4, (0, 2))]:
        for n in range(8):
            for blam in enumerate_bipartitions(n):
                image = psi_tilde(e, s, blam)
                assert psi_tilde_inverse(e, s, image) == blam


def test_diagonal_images_agree_between_moduli():
    """The stabilized image of (lam, lam) is the same computed at modulus e
    from (0, 0) and at modulus 2e from (0, e)."""
    for e in (2, 3, 4, 5):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                assert psi_tilde(2 * e, (0, e), (lam, lam)) == psi_tilde(e, (0, 0), (lam, lam))
