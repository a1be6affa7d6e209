"""Level-1 crystal and the Mullineux oracle.

Signature words are checked against a brute-force node scan straight off
the diagram definition, and the path machinery against known involution
values, adjointness, and randomized stripping orders.
"""

import pytest
from hypothesis import given, settings

from mullineux._core import kernels
from mullineux.errors import NotRegularError
from mullineux.level1 import (
    addable_nodes,
    crystal_graph,
    e_tilde,
    f_tilde,
    good_addable,
    good_removable,
    mullineux_kleshchev,
    removable_nodes,
    replay_path,
    residue_path_to_empty,
    signature_word,
)
from mullineux.partitions import (
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
)

from conftest import partitions

# ---------------------------------------------------------------------------
# oracles


def diagram(lam):
    return {(a, b) for a in range(1, len(lam) + 1) for b in range(1, lam[a - 1] + 1)}


def is_diagram(cells):
    """True iff a set of cells is the Young diagram of some partition."""
    if not cells:
        return True
    rows = {}
    for a, b in cells:
        rows[a] = max(rows.get(a, 0), b)
    r = max(rows)
    parts = [rows.get(a, 0) for a in range(1, r + 1)]
    if sorted(parts, reverse=True) != parts or min(parts) <= 0:
        return False
    return len(cells) == sum(parts)


def brute_force_word(lam, j, e):
    """Addable/removable j-nodes found by trying every single-cell change."""
    cells = diagram(lam)
    found = []
    max_row = len(lam) + 1
    max_col = (lam[0] if lam else 0) + 1
    for a in range(1, max_row + 1):
        for b in range(1, max_col + 1):
            if (b - a) % e != j:
                continue
            if (a, b) not in cells and is_diagram(cells | {(a, b)}):
                found.append(("A", (a, b)))
            if (a, b) in cells and is_diagram(cells - {(a, b)}):
                found.append(("R", (a, b)))
    found.sort(key=lambda x: -x[1][0])
    return found


def random_strip(lam, e, rng):
    """Strip with random residue choices; any valid order is a valid path."""
    cur = lam
    out = []
    while cur:
        options = [j for j in range(e) if e_tilde(cur, j, e) is not None]
        j = rng.choice(options)
        cur = e_tilde(cur, j, e)
        out.append(j)
    return tuple(out)


# ---------------------------------------------------------------------------
# signature words and good nodes


def test_signature_word_pinned():
    assert signature_word((), 0, 3) == [("A", (1, 1))]
    assert signature_word((1,), 0, 3) == [("R", (1, 1))]
    word = signature_word((2, 1), 1, 3)
    assert ("A", (3, 1)) in word


@given(partitions(max_rank=18))
@settings(max_examples=200)
def test_signature_word_matches_brute_force(lam):
    for e in (2, 3, 5):
        for j in range(e):
            assert signature_word(lam, j, e) == brute_force_word(lam, j, e)


def test_good_nodes_pinned():
    assert good_addable((), 0, 4) == (1, 1)
    assert good_removable((), 0, 4) is None
    # first node stripped from (5,2,1,1) on the canonical path is validated
    # by replaying the produced path
    lam = (5, 2, 1, 1)
    path = residue_path_to_empty(lam, 3)
    j = path[0]  # last operator applied, so the first node removed
    node = good_removable(lam, j, 3)
    assert node is not None
    assert e_tilde(lam, j, 3) is not None
    assert replay_path(path, 3) == lam


# ---------------------------------------------------------------------------
# operators


def test_f_tilde_pinned():
    assert f_tilde((), 0, 3) == (1,)
    assert f_tilde((), 1, 3) is None
    # displayed operator sequence, rightmost factor applied first
    assert replay_path((0, 0, 1, 1, 0, 2, 2, 1, 0), 3) == (5, 2, 1, 1)
    assert replay_path((0, 0, 2, 2, 0, 1, 1, 2, 0), 3) == (4, 2, 2, 1)
    assert replay_path((0, 3, 4, 4, 3, 2, 1, 5, 0), 6) == (5, 2, 1, 1)
    assert replay_path((0, 3, 2, 2, 3, 4, 5, 1, 0), 6) == (4, 2, 1, 1, 1)


def test_adjointness_exhaustive():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for e in (2, 3, 4):
                for j in range(e):
                    up = f_tilde(lam, j, e)
                    if up is not None:
                        assert e_tilde(up, j, e) == lam
                    down = e_tilde(lam, j, e)
                    if down is not None:
                        assert f_tilde(down, j, e) == lam


# ---------------------------------------------------------------------------
# residue paths and the Mullineux map


def test_residue_path_pinned():
    assert residue_path_to_empty((), 4) == ()
    path = residue_path_to_empty((5, 2, 1, 1), 3)
    assert replay_path(path, 3) == (5, 2, 1, 1)
    with pytest.raises(NotRegularError):
        residue_path_to_empty((1, 1, 1), 3)
    with pytest.raises(NotRegularError):
        mullineux_kleshchev((1, 1, 1), 3)
    assert replay_path((1,), 3) is None
    assert replay_path((0, 0), 2) is None  # the second move stalls
    assert replay_path((0, 1, 0), 2) == (3,)


def test_mullineux_pinned():
    assert mullineux_kleshchev((5, 2, 1, 1), 3) == (4, 2, 2, 1)
    assert mullineux_kleshchev((5, 2, 1, 1), 6) == (4, 2, 1, 1, 1)
    assert mullineux_kleshchev((6, 5, 5, 4, 1, 1), 6) == (11, 9, 2)
    assert mullineux_kleshchev((6, 5, 2, 2, 1, 1), 3) == (11, 4, 2)
    assert mullineux_kleshchev((), 5) == ()
    # no limit on rank: a residue path 3000 steps long
    assert mullineux_kleshchev((3000,), 2) == (3000,)


def test_mullineux_involution_and_preservation():
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_e_regular(n, e):
                image = mullineux_kleshchev(lam, e)
                assert sum(image) == n
                assert is_e_regular(image, e)
                assert mullineux_kleshchev(image, e) == lam


def test_core_maps_to_conjugate():
    for e in range(2, 8):
        for n in range(16):
            for lam in enumerate_e_regular(n, e):
                if is_e_core(lam, e):
                    assert mullineux_kleshchev(lam, e) == conjugate(lam)


def canonical_strip(lam, e):
    """The canonical residue path from signature words, without the kernels.

    Each step removes the good removable node of the smallest residue that
    has one; None when no residue has one before the partition is empty.
    """
    path = []
    while lam:
        for j in range(e):
            node = good_removable(lam, j, e)
            if node is not None:
                break
        else:
            return None
        a, _ = node
        lam = tuple(p for p in lam[: a - 1] + (lam[a - 1] - 1,) + lam[a:] if p)
        path.append(j)
    return tuple(path)


def test_strip_residues_matches_signature_words():
    for e in range(2, 8):
        for n in range(15):
            for lam in enumerate_partitions(n):
                path = canonical_strip(lam, e)
                assert kernels.strip_residues(lam, e) == path
                assert (path is None) == (not is_e_regular(lam, e))


def test_path_choice_does_not_matter(rng):
    for e in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                strip = random_strip(lam, e, rng)
                assert replay_path(strip, e) == lam
                negated = tuple((-j) % e for j in strip)
                assert replay_path(negated, e) == mullineux_kleshchev(lam, e)


# ---------------------------------------------------------------------------
# crystal graph


def test_crystal_graph_pinned():
    g = crystal_graph(3, 0)
    assert g.vertices == ((),)
    assert g.edges == ()

    g = crystal_graph(2, 3)
    assert set(g.vertices) == {(), (1,), (2,), (2, 1), (3,)}


def test_crystal_graph_counts_and_reachability():
    for e in (2, 3):
        for n_max in (3, 4, 5):
            g = crystal_graph(e, n_max)
            expected = [
                lam for n in range(n_max + 1) for lam in enumerate_e_regular(n, e)
            ]
            assert list(g.vertices) == expected
            # every nonempty vertex is reached by some edge
            targets = {b for _, _, b in g.edges}
            assert targets == {v for v in g.vertices if v != ()}
            # edges stay inside the vertex set and add one box
            vertex_set = set(g.vertices)
            for a, j, b in g.edges:
                assert a in vertex_set and b in vertex_set
                assert sum(b) == sum(a) + 1
                assert f_tilde(a, j, e) == b


def test_crystal_graph_not_a_tree():
    # (3,2) at e=4 has two parents, so the component is not a tree
    assert f_tilde((3, 1), 0, 4) == (3, 2)
    assert f_tilde((2, 2), 2, 4) == (3, 2)
    g = crystal_graph(4, 5)
    parents = [(a, j) for a, j, b in g.edges if b == (3, 2)]
    assert len(parents) == 2


def test_node_listing_matches_word():
    for lam in [(4, 2, 1), (3, 3), (5,), ()]:
        for e in (2, 3):
            for j in range(e):
                word = signature_word(lam, j, e)
                adds = [node for kind, node in word if kind == "A"]
                rems = [node for kind, node in word if kind == "R"]
                assert adds == addable_nodes(lam, j, e)
                assert rems == removable_nodes(lam, j, e)
