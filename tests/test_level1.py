"""Level-1 crystal and the Mullineux oracle.

Signature words are checked against a brute-force node scan straight off
the diagram definition, and the path machinery against known involution
values, adjointness, and randomized stripping orders.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullineux import engine
from mullineux._core import kernels
from mullineux.betamaps import psi_step, psi_step_inverse
from mullineux.engine import conjecture_tower, mullineux_conjectural
from mullineux.errors import NotRegularError
from mullineux.level1 import (
    crystal_graph,
    e_tilde,
    f_tilde,
    mullineux_kleshchev,
    replay_path,
    residue_path_to_empty,
)
from mullineux.partitions import (
    beta_set,
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
    minimal_bits,
    partition_from_bits,
)

from conftest import partitions
import crystal_reference
from crystal_reference import (
    addable_nodes,
    good_addable,
    good_removable,
    removable_nodes,
    signature_word,
)

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
                if path is None:
                    with pytest.raises(NotRegularError):
                        residue_path_to_empty(lam, e)
                else:
                    assert residue_path_to_empty(lam, e) == path
                assert (path is None) == (not is_e_regular(lam, e))


def test_path_choice_does_not_matter(rng):
    for e in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                strip = random_strip(lam, e, rng)
                assert replay_path(strip, e) == lam
                negated = tuple((-j) % e for j in strip)
                assert replay_path(negated, e) == mullineux_kleshchev(lam, e)


def add_node(lam, a):
    """lam with one node added at the end of row a."""
    return lam + (1,) if a > len(lam) else lam[: a - 1] + (lam[a - 1] + 1,) + lam[a:]


def node_by_node_replay(residues, e):
    """Add one good addable node per residue, in order, from signature words;
    None as soon as a residue has none."""
    lam = ()
    for j in residues:
        node = good_addable(lam, j, e)
        if node is None:
            return None
        lam = add_node(lam, node[0])
    return lam


def node_by_node_mullineux(lam, e):
    """Kleshchev's algorithm one node at a time, without the kernels."""
    path = canonical_strip(lam, e)
    if path is None:
        return None
    return node_by_node_replay([(-j) % e for j in reversed(path)], e)


def test_string_kernel_matches_node_by_node_reference():
    for e in range(2, 8):
        for n in range(15):
            for lam in enumerate_partitions(n):
                image = kernels.mullineux(lam, e)
                assert image == node_by_node_mullineux(lam, e), (lam, e)
                assert (image is None) == (not is_e_regular(lam, e)), (lam, e)


def test_a_string_is_q_sequential_moves():
    assert replay_path((0, 0), 2) is None  # the second move stalls
    assert replay_path((1, 1, 0), 2) == (2, 1)  # f_1^2 adds both addable 1-nodes of (1,)
    assert replay_path((1, 1, 1, 0), 2) is None
    for e in (2, 3, 4, 5):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                start = tuple(reversed(residue_path_to_empty(lam, e)))  # application order
                for j in range(e):
                    expected = lam
                    for q in range(1, 5):
                        if expected is not None:
                            expected = f_tilde(expected, j, e)
                        # residues are read mod e, so j - e runs as one j-string
                        assert replay_path((j - e,) * q + start[::-1], e) == expected, (lam, j, q)
                        assert replay_path((j,) * q + start[::-1], e) == expected, (lam, j, q)


@given(st.lists(st.integers(0, 6), max_size=24), st.integers(2, 7))
@settings(max_examples=300)
def test_replay_matches_node_by_node_reference(residues, e):
    residues = [j % e for j in residues]
    assert replay_path(tuple(reversed(residues)), e) == node_by_node_replay(residues, e)


def test_string_kernel_matches_the_symbol_on_many_rows():
    staircase = tuple(range(140, 0, -1))  # rank 9,870
    many_rows = tuple(p for p in range(60, 0, -1) for _ in range(4))  # 240 rows
    for lam, e in ((staircase, 2), (staircase, 5), (many_rows, 5)):
        assert_passes_the_symbol_check(lam, e)
    assert mullineux_kleshchev(staircase, 2) == staircase


def test_modulus_below_two_is_refused():
    for e in (-1, 0, 1):
        for lam in ((), (1,)):
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                mullineux_kleshchev(lam, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                residue_path_to_empty(lam, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                f_tilde(lam, 0, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                e_tilde(lam, 0, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                replay_path((0,) * len(lam), e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                conjecture_tower(e, beta_set(lam, max(1, len(lam))), 3)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                is_e_regular(lam, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                is_e_core(lam, e)
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                psi_step(e, beta_set(lam, 1), beta_set(lam, 1))
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                psi_step_inverse(e, beta_set(lam, 1), beta_set(lam, 1))
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {e}"):
                mullineux_conjectural(lam, e)


# ---------------------------------------------------------------------------
# the e-rim symbol check


def symbols(lam, e):
    """lam's e-rim symbol and its dual as lists of columns (A, R), read off
    the memo entry the symbol check reads."""
    symbol, dual = engine._symbol_entry(minimal_bits(lam), e)
    return crystal_reference.columns(symbol), crystal_reference.columns(dual)


def assert_passes_the_symbol_check(lam, e):
    """The check cross-validation runs, on Kleshchev's image of lam: it is
    e-regular and its e-rim symbol is the dual of lam's."""
    image = kernels.mullineux(lam, e)
    assert is_e_regular(image, e), (lam, e)
    symbol = engine._symbol_entry(minimal_bits(image), e)[0]
    assert engine._same_columns(symbol, engine._symbol_entry(minimal_bits(lam), e)[1]), (lam, e)


def remove_rim(lam, e):
    """(rest, nodes removed) of lam's e-rim, by the bitset kernel."""
    size, rows, rest = kernels.remove_e_rim(minimal_bits(lam), e)
    assert rows == len(lam), (lam, e)
    return partition_from_bits(rest), size


def brute_force_e_rim(lam, e):
    """The cells of the e-rim, read off the diagram.

    Rim cells have no cell diagonally below them; read along the rim from
    the end of row 1, they come row by row, right to left.  A segment takes
    the next e of them, or what is left; the next segment starts at the end
    of the row below the last one the previous segment touched.
    """
    cells = diagram(lam)
    rim = sorted((c for c in cells if (c[0] + 1, c[1] + 1) not in cells), key=lambda c: (c[0], -c[1]))
    taken, i = [], 0
    while i < len(rim):
        segment = rim[i : i + e]
        taken += segment
        below = segment[-1][0] + 1
        i = next((k for k, c in enumerate(rim) if c[0] == below), len(rim))
    return set(taken)


def random_e_regular(rng, n, e):
    """A seeded random e-regular partition of n.  Each part value, below the
    last, repeats at most e-1 times and is chosen so that the values below
    it can still make up the rest."""
    parts, cap = [], n
    while n:
        low = next(p for p in range(1, cap + 1) if (e - 1) * p * (p + 1) // 2 >= n)
        p = rng.randint(low, min(cap, n))
        most = min(e - 1, n // p)
        least = next(m for m in range(1, most + 1) if n - m * p <= (e - 1) * (p - 1) * p // 2)
        m = rng.randint(least, most)
        parts += [p] * m
        n -= m * p
        cap = p - 1
    return tuple(parts)


# every e-regular partition of rank <= 20 at e = 2..5 and of rank <= 16 at e = 6, 7
SYMBOL_GRID = [
    (lam, e)
    for e, n_max in ((2, 20), (3, 20), (4, 20), (5, 20), (6, 16), (7, 16))
    for n in range(n_max + 1)
    for lam in enumerate_e_regular(n, e)
]


def test_remove_e_rim_matches_the_diagram():
    # the kernel needs a partition with a rim, so rank 0 is left out
    for e in range(2, 6):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                rim = brute_force_e_rim(lam, e)
                for rest, size in (remove_rim(lam, e), crystal_reference.remove_rim(lam, e)):
                    assert diagram(rest) == diagram(lam) - rim, (lam, e)
                    assert size == len(rim), (lam, e)


def test_bitset_rim_matches_the_row_by_row_reference():
    # every e-regular partition of rank <= 20 at e = 2..5, then every
    # partition of rank <= 15 at e = 2..5, rims and whole symbols
    grid = [(lam, e) for lam, e in SYMBOL_GRID if e <= 5]
    grid += [(lam, e) for e in range(2, 6) for n in range(16) for lam in enumerate_partitions(n)]
    assert len(grid) == 4803 + 4 * 684
    for lam, e in grid:
        symbol, dual = symbols(lam, e)
        assert symbol == crystal_reference.e_rim_symbol(lam, e), (lam, e)
        assert dual == crystal_reference.dual_symbol(symbol, e), (lam, e)
        if lam:
            rest, size = crystal_reference.remove_rim(lam, e)
            assert kernels.remove_e_rim(minimal_bits(lam), e) == (size, len(lam), minimal_bits(rest)), (lam, e)


def test_symbol_matches_kleshchev():
    assert len(SYMBOL_GRID) == 6381  # Glaisher: as many as partitions with no part divisible by e
    for lam, e in SYMBOL_GRID:
        assert_passes_the_symbol_check(lam, e)


def test_symbol_matches_kleshchev_at_large_rank(rng):
    for _ in range(40):
        e = rng.randint(2, 7)
        lam = random_e_regular(rng, rng.randint(150, 300), e)
        assert is_e_regular(lam, e)
        assert_passes_the_symbol_check(lam, e)


def test_symbol_check_accepts_exactly_the_rebuilt_image():
    # the sweep accepts an e-regular mu when its symbol is the dual of lam's;
    # that is exact when the dual is the symbol of the image Kleshchev's
    # algorithm rebuilds and no two e-regular partitions of a rank share a
    # symbol
    checked = 0
    for e in range(2, 8):
        for n in range(19):
            seen = {}
            for lam in enumerate_e_regular(n, e):
                symbol, dual = symbols(lam, e)
                assert crystal_reference.dual_symbol(symbol, e) == dual, (lam, e)
                assert crystal_reference.dual_symbol(dual, e) == symbol, (lam, e)
                assert symbols(kernels.mullineux(lam, e), e)[0] == dual, (lam, e)
                assert seen.setdefault(tuple(symbol), lam) == lam, (lam, seen[tuple(symbol)], e)
                checked += 1
    assert checked == 5693  # Glaisher: as many as partitions with no part divisible by e


def test_long_rims_are_removed_in_one_pass():
    # one 2-rim of this staircase has 1,100 segments
    staircase = tuple(range(1100, 0, -1))
    assert remove_rim(staircase, 2) == (tuple(range(1098, 0, -1)), 2199)
    assert remove_rim((3000,), 2) == ((2998,), 2)
    assert kernels.mullineux((3000,), 2) == (3000,)
    assert_passes_the_symbol_check((3000,), 2)


# ---------------------------------------------------------------------------
# crystal graph


def test_crystal_graph_pinned():
    g = crystal_graph(3, 0)
    assert g.vertices == ((),)
    assert g.edges == ()

    g = crystal_graph(2, 3)
    assert set(g.vertices) == {(), (1,), (2,), (2, 1), (3,)}
    with pytest.raises(AttributeError):
        g.e = 3
    assert pickle.loads(pickle.dumps(g)) == g


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
