"""Level-2 crystal: node order, operators, Uglov membership, Mullineux map.

The charged operators are cross-checked against the level-1 oracle through
the diagonal and interleaved replays, and the level-2 Mullineux map against
its known componentwise description.
"""

import pytest

from mullineux.betamaps import stable_shift
from mullineux.level1 import mullineux_kleshchev, residue_path_to_empty
from mullineux.partitions import enumerate_bipartitions, enumerate_e_regular

from crystal_reference import (
    NotKleshchevError,
    NotUglovError,
    e_tilde2,
    f_tilde2,
    is_kleshchev,
    is_uglov,
    is_very_dominant,
    mullineux_level2,
    node_less,
    replay_path2,
    residue_path_to_empty2,
    signature_word2,
    uglov_bipartitions,
)


def test_node_less():
    s = (0, 0)
    # content comparison first
    assert node_less((1, 3, 1), (1, 6, 1), s)  # contents 2 < 5
    # equal content: component 2 is smaller
    assert node_less((2, 2, 2), (2, 2, 1), s)
    assert not node_less((2, 2, 1), (2, 2, 2), s)
    # irreflexive
    assert not node_less((1, 1, 1), (1, 1, 1), s)
    # charges shift contents
    assert node_less((1, 1, 1), (1, 1, 2), (0, 3))


def test_empty_bipartition_moves():
    for e in (2, 3, 5):
        for s in [(0, 0), (0, 1), (1, 4), (-1, 2)]:
            allowed = {s[0] % e, s[1] % e}
            for i in range(e):
                image = f_tilde2(((), ()), i, e, s)
                if i in allowed:
                    assert image is not None
                else:
                    assert image is None


def test_word_interleaving_on_diagonal():
    # at s = (0, 0) the same cell in both components ties, component 2 first
    word = signature_word2(((1,), (1,)), 1, 3, (0, 0))
    kinds_and_components = [(kind, node[2]) for kind, node in word]
    assert kinds_and_components[:2] == [("A", 2), ("A", 1)]


def test_adjointness_level2_exhaustive():
    for e, s in [(2, (0, 0)), (3, (0, 1))]:
        for n in range(9):
            for blam in enumerate_bipartitions(n):
                for i in range(e):
                    up = f_tilde2(blam, i, e, s)
                    if up is not None:
                        assert e_tilde2(up, i, e, s) == blam
                    down = e_tilde2(blam, i, e, s)
                    if down is not None:
                        assert f_tilde2(down, i, e, s) == blam


def test_uglov_membership_small():
    assert is_uglov(((), ()), 2, (0, 0))
    # exhaustive strip of the five rank-2 bipartitions at e=2, s=(0,0)
    members = [b for b in enumerate_bipartitions(2) if is_uglov(b, 2, (0, 0))]
    assert members == [((2,), ()), ((1,), (1,))]
    assert not is_uglov(((1, 1), ()), 2, (0, 0))
    with pytest.raises(NotUglovError):
        residue_path_to_empty2(((1, 1), ()), 2, (0, 0))


def test_uglov_bfs_agrees_with_stripping():
    for e, s in [(2, (0, 0)), (3, (0, 2))]:
        reachable = set(uglov_bipartitions(e, s, 6))
        for n in range(7):
            for blam in enumerate_bipartitions(n):
                assert (blam in reachable) == is_uglov(blam, e, s)


def test_residue_path_round_trip():
    for e, s in [(2, (0, 0)), (3, (0, 1))]:
        for blam in uglov_bipartitions(e, s, 6):
            path = residue_path_to_empty2(blam, e, s)
            assert replay_path2(path, e, s) == blam


def test_diagonal_doubled_replay():
    """Doubling every operator of a level-1 path lands on the diagonal pair."""
    for e in (2, 3):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                path = residue_path_to_empty(lam, e)
                doubled = tuple(j for j in path for _ in range(2))
                assert replay_path2(doubled, e, (0, 0)) == (lam, lam)


def test_interleaved_replay_at_doubled_modulus():
    """Interleaving i, i+e at modulus 2e and bicharge (0, e) does the same."""
    for e in (2, 3):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                path = residue_path_to_empty(lam, e)
                interleaved = tuple(x for j in path for x in (j, j + e))
                assert replay_path2(interleaved, 2 * e, (0, e)) == (lam, lam)


def test_diagonal_membership():
    for e in (2, 3):
        for n in range(7):
            for lam in enumerate_e_regular(n, e):
                assert is_uglov((lam, lam), e, (0, 0))
                assert is_uglov((lam, lam), 2 * e, (0, e))


def test_very_dominant_inequality():
    assert is_very_dominant((0, 31), 17, 3)
    assert is_very_dominant((0, 0), 2, 3)
    assert not is_very_dominant((0, 3), 17, 3)


def test_stable_shift_bounds():
    assert stable_shift((0, 9), 4, 3) == 0
    k = stable_shift((0, 0), 5, 2)
    assert abs(0 + k * 2 - 0) > 10
    assert abs(0 + (k - 1) * 2 - 0) <= 10


def test_stable_shift_is_the_smallest_stabilizing_shift():
    for s1 in range(-4, 5):
        for s2 in range(s1, 14):
            for n in range(12):
                for e in range(1, 7):
                    k = stable_shift((s1, s2), n, e)
                    assert k >= 0 and s2 + k * e - s1 > 2 * n
                    assert k == 0 or s2 + (k - 1) * e - s1 <= 2 * n


def test_mullineux_level2_pinned():
    assert mullineux_level2(((), ()), 4, (0, 2)) == ((), ())
    got = mullineux_level2(((3, 3, 2, 2, 1, 1), (6, 5, 5, 4, 1, 1)), 6, (0, 9))
    assert got == ((6, 4, 2), (11, 9, 2))
    with pytest.raises(NotKleshchevError):
        mullineux_level2(((1, 1), ()), 2, (0, 0))


def test_mullineux_level2_componentwise():
    for e, s in [(2, (0, 0)), (3, (0, 1))]:
        for n in range(9):
            count = 0
            for blam in enumerate_bipartitions(n):
                if not is_kleshchev(blam, e, s):
                    continue
                count += 1
                got = mullineux_level2(blam, e, s)
                want = (
                    mullineux_kleshchev(blam[0], e),
                    mullineux_kleshchev(blam[1], e),
                )
                assert got == want, (blam, e, s)
            assert count > 0 or n == 0


def test_mullineux_level2_representative_independence():
    # computing at higher stabilized representatives cannot change the answer
    for e, s in [(2, (0, 0)), (3, (0, 2))]:
        for n in range(7):
            for blam in enumerate_bipartitions(n):
                if not is_kleshchev(blam, e, s):
                    continue
                base = mullineux_level2(blam, e, s)
                bumped = mullineux_level2(blam, e, (s[0], s[1] + e))
                assert base == bumped
