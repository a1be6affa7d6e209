"""Beta-set isomorphism steps, their inverses, and the stabilized walks.

The greedy matching conventions are pinned by the four published tower
symbols and the published inverse symbol; everything else is property
coverage: round trips, rank preservation, padding independence,
equivariance with the charged crystal operators, and identity in the
stabilized regime.
"""

import pytest
from hypothesis import given, settings

from mullineux.betamaps import (
    encode_bipartition,
    matching_pairs,
    minimal_padding,
    psi_bipartition,
    psi_bipartition_inverse,
    psi_step,
    psi_step_inverse,
    psi_tilde,
    psi_tilde_inverse,
    shortcut_applies,
    walk,
)
from mullineux.errors import ChargeOrderError, NotInImageError, SizeOrderError
from mullineux.level2 import (
    f_tilde2,
    is_very_dominant,
    rank2,
    stable_shift,
    uglov_bipartitions,
)
from mullineux.partitions import enumerate_bipartitions, enumerate_e_regular

from conftest import beta_sets

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


def test_step_identity_branch():
    # when x1 is contained in x2 the matching is the identity
    y1, y2 = psi_step(4, (1, 5), (0, 1, 5, 9))
    assert y1 == (1, 5)
    assert y2 == (0, 1, 2, 3) + tuple(x + 4 for x in (0, 1, 5, 9))


def test_step_size_check():
    with pytest.raises(SizeOrderError):
        psi_step(3, (0, 1, 2), (0, 1))


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
                assert psi_bipartition(e, s, blam, m + 1) == base
                assert psi_bipartition(e, s, blam, m + 5) == base


def test_psi_bipartition_inverse_round_trip():
    for e, s in [(2, (0, 0)), (3, (0, 2)), (6, (0, 3))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                image = psi_bipartition(e, s, blam)
                assert psi_bipartition_inverse(e, s, image) == blam


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


def test_forward_walk_stages():
    for e, s in WALK_GRID:
        for n in range(6):
            for blam in enumerate_bipartitions(n):
                stages = list(walk(e, s, blam))
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
                stages = list(walk(e, s, blam, inverse=True))
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


def test_walk_checks_charge_order_when_iterated():
    stages = walk(3, (1, 0), ((), ()))
    with pytest.raises(ChargeOrderError):
        next(stages)


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
