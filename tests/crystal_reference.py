"""Reference crystals that the tests check the package's maps against.

The package computes with the beta-set isomorphisms, their stabilizing
walks and the two Mullineux oracles, whose kernels scan the rows of a
diagram directly.  This module spells out the definitions those maps are
checked against, and nothing in the package imports it:

- the level-1 signature words of single residues, with their good nodes;
- Mullineux's e-rim, removed row by row, and the e-rim symbol;
- the greedy matching behind the beta-set step, pair by pair;
- the level-2 Fock-space crystal on bipartitions, parameterized by a
  bicharge.

Level 1.  Kashiwara operators act by adding or removing "good" nodes
selected from the signature word of a residue: all addable and removable
j-nodes are read from the bottom row of the diagram up (larger row index
first), encoded as A and R, and every factor RA is cancelled.  The
rightmost surviving A is the good addable node, the leftmost surviving R
the good removable node.

Level 2.  A node (a, b, c) of a bipartition has content b - a + s_c and
residue content mod e.  Same-residue addable/removable nodes are ordered
by content, with ties broken so the second component comes first;
signature words, good nodes and the operators f_tilde2/e_tilde2 then work
exactly as at level 1.  Bipartitions reachable from the empty pair are the
Uglov bipartitions of the bicharge; once the charge gap is large relative
to the rank ("very dominant") the reachable set stabilizes and is called
the set of Kleshchev bipartitions.
"""

from __future__ import annotations

from mullineux.betamaps import Bicharge, Bipartition, stable_shift
from mullineux.errors import SizeOrderError
from mullineux.partitions import Partition

# ---------------------------------------------------------------------------
# level-1 signature words

Node = tuple[int, int]


def addable_nodes(lam: Partition, j: int, e: int) -> list[Node]:
    """Addable j-nodes of lam, bottom row first."""
    r = len(lam)
    out = []
    for a in range(r + 1, 0, -1):
        row_len = lam[a - 1] if a <= r else 0
        if (a > r or a == 1 or lam[a - 2] > row_len) and (row_len + 1 - a) % e == j:
            out.append((a, row_len + 1))
    return out


def removable_nodes(lam: Partition, j: int, e: int) -> list[Node]:
    """Removable j-nodes of lam, bottom row first."""
    r = len(lam)
    out = []
    for a in range(r, 0, -1):
        if (a == r or lam[a - 1] > lam[a]) and (lam[a - 1] - a) % e == j:
            out.append((a, lam[a - 1]))
    return out


def signature_word(lam: Partition, j: int, e: int) -> list[tuple[str, Node]]:
    """The A/R word of the addable and removable j-nodes in reading order."""
    word = [("A", node) for node in addable_nodes(lam, j, e)]
    word += [("R", node) for node in removable_nodes(lam, j, e)]
    word.sort(key=lambda letter: -letter[1][0])  # larger row index reads first
    return word


def reduce_signature(word: list[tuple[str, Node]]) -> list[tuple[str, Node]]:
    """Cancel RA factors until the word has shape A^p R^q."""
    stack: list[tuple[str, Node]] = []
    for letter in word:
        if letter[0] == "A" and stack and stack[-1][0] == "R":
            stack.pop()
        else:
            stack.append(letter)
    return stack


def good_addable(lam: Partition, j: int, e: int) -> Node | None:
    """Rightmost A of the reduced signature word, or None."""
    reduced = reduce_signature(signature_word(lam, j, e))
    best = None
    for kind, node in reduced:
        if kind == "A":
            best = node
    return best


def good_removable(lam: Partition, j: int, e: int) -> Node | None:
    """Leftmost R of the reduced signature word, or None."""
    for kind, node in reduce_signature(signature_word(lam, j, e)):
        if kind == "R":
            return node
    return None


# ---------------------------------------------------------------------------
# the e-rim symbol


def remove_rim(lam: Partition, e: int) -> tuple[Partition, int]:
    """(rest, nodes removed) of lam's e-rim, removed row by row.

    The e-rim is cut into segments of at most e rim nodes.  The first
    starts at the last node of row 1; each runs down the rim, taking
    min(left, rim_r) nodes in row r, where rim_r = parts_r - parts_{r+1} + 1
    (parts_r in the last row), and the next starts on the row after the one
    where the previous ran out.  Every row loses at least one node.
    """
    cur = list(lam)
    last = len(cur) - 1
    left, size = e, 0
    for r in range(last):
        take = min(cur[r] - cur[r + 1] + 1, left)
        cur[r] -= take
        size += take
        left = left - take or e
    if last >= 0:
        take = min(cur[last], left)
        cur[last] -= take
        size += take
    while cur and not cur[-1]:
        cur.pop()
    return tuple(cur), size


def e_rim_symbol(lam: Partition, e: int) -> list[tuple[int, int]]:
    """One column (A, R) per e-rim removed down to the empty partition, A
    nodes removed from a partition of R rows."""
    columns = []
    while lam:
        rows = len(lam)
        lam, size = remove_rim(lam, e)
        columns.append((size, rows))
    return columns


def dual_symbol(columns: list[tuple[int, int]], e: int) -> list[tuple[int, int]]:
    """The columns (A, A - R + eps), eps = 0 if e divides A and 1 otherwise:
    the symbol of the Mullineux image (an involution)."""
    return [(size, size - rows + (1 if size % e else 0)) for size, rows in columns]


def columns(cells) -> list[tuple[int, int]]:
    """The columns (A, R) of a symbol held as cons cells (A, R, tail), the
    form engine._symbols keeps."""
    out = []
    while cells:
        size, rows, cells = cells
        out.append((size, rows))
    return out


# ---------------------------------------------------------------------------
# the greedy matching of the beta-set step


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


# ---------------------------------------------------------------------------
# level-2 crystal


class NotUglovError(ValueError):
    """Bipartition is not reachable from the empty bipartition at the given bicharge."""


class NotKleshchevError(ValueError):
    """Bipartition is not Kleshchev for the given modulus and bicharge class."""


Node3 = tuple[int, int, int]  # (row, col, component)

EMPTY: Bipartition = ((), ())


def rank2(blam: Bipartition) -> int:
    return sum(blam[0]) + sum(blam[1])


def content(node: Node3, s: Bicharge) -> int:
    a, b, c = node
    return b - a + s[c - 1]


def node_less(node: Node3, other: Node3, s: Bicharge) -> bool:
    """Strict node order: smaller content first, component 2 before 1 on ties."""
    return (content(node, s), -node[2]) < (content(other, s), -other[2])


def _candidates(blam: Bipartition, i: int, e: int, s: Bicharge) -> list[tuple[str, Node3, int]]:
    """Addable/removable i-nodes with their contents, in increasing node order."""
    found = []
    for c in (1, 2):
        lam = blam[c - 1]
        r = len(lam)
        for a in range(1, r + 2):
            row_len = lam[a - 1] if a <= r else 0
            if a > r or a == 1 or lam[a - 2] > row_len:
                cont = row_len + 1 - a + s[c - 1]
                if cont % e == i:
                    found.append(("A", (a, row_len + 1, c), cont))
            if a <= r and (a == r or row_len > lam[a]):
                cont = row_len - a + s[c - 1]
                if cont % e == i:
                    found.append(("R", (a, row_len, c), cont))
    found.sort(key=lambda entry: (entry[2], -entry[1][2]))
    return found


def signature_word2(blam: Bipartition, i: int, e: int, s: Bicharge) -> list[tuple[str, Node3]]:
    return [(kind, node) for kind, node, _ in _candidates(blam, i, e, s)]


def _good_nodes(blam: Bipartition, i: int, e: int, s: Bicharge) -> tuple[Node3 | None, Node3 | None]:
    stack: list[tuple[str, Node3]] = []
    for kind, node, _ in _candidates(blam, i, e, s):
        if kind == "A" and stack and stack[-1][0] == "R":
            stack.pop()
        else:
            stack.append((kind, node))
    good_add = None
    good_rem = None
    for kind, node in stack:
        if kind == "A":
            good_add = node
        else:
            good_rem = node
            break
    return good_add, good_rem


def good_addable2(blam: Bipartition, i: int, e: int, s: Bicharge) -> Node3 | None:
    return _good_nodes(blam, i, e, s)[0]


def good_removable2(blam: Bipartition, i: int, e: int, s: Bicharge) -> Node3 | None:
    return _good_nodes(blam, i, e, s)[1]


def _add_node(blam: Bipartition, node: Node3) -> Bipartition:
    a, _, c = node
    lam = blam[c - 1]
    new = lam + (1,) if a == len(lam) + 1 else lam[: a - 1] + (lam[a - 1] + 1,) + lam[a:]
    return (new, blam[1]) if c == 1 else (blam[0], new)


def _remove_node(blam: Bipartition, node: Node3) -> Bipartition:
    a, _, c = node
    lam = blam[c - 1]
    new = lam[:-1] if lam[a - 1] == 1 else lam[: a - 1] + (lam[a - 1] - 1,) + lam[a:]
    return (new, blam[1]) if c == 1 else (blam[0], new)


def f_tilde2(blam: Bipartition, i: int, e: int, s: Bicharge) -> Bipartition | None:
    """Add the good addable i-node under the bicharge order, or None."""
    node = good_addable2(blam, i % e, e, s)
    return None if node is None else _add_node(blam, node)


def e_tilde2(blam: Bipartition, i: int, e: int, s: Bicharge) -> Bipartition | None:
    """Remove the good removable i-node under the bicharge order, or None."""
    node = good_removable2(blam, i % e, e, s)
    return None if node is None else _remove_node(blam, node)


def strip_residues2(blam: Bipartition, e: int, s: Bicharge) -> tuple[int, ...] | None:
    """Strip good removable nodes (residues scanned 0..e-1) down to the empty pair.

    Returns the residues in removal order, or None if the stripping stalls
    on a nonempty bipartition (then blam is not Uglov for (e, s)).
    """
    cur = blam
    out = []
    while cur != EMPTY:
        for i in range(e):
            nxt = e_tilde2(cur, i, e, s)
            if nxt is not None:
                cur = nxt
                out.append(i)
                break
        else:
            return None
    return tuple(out)


def is_uglov(blam: Bipartition, e: int, s: Bicharge) -> bool:
    """True iff blam is reachable from the empty bipartition at bicharge s."""
    return strip_residues2(blam, e, s) is not None


def residue_path_to_empty2(blam: Bipartition, e: int, s: Bicharge) -> tuple[int, ...]:
    """A residue path replaying to blam at bicharge s (last entry applied first)."""
    strip = strip_residues2(blam, e, s)
    if strip is None:
        raise NotUglovError(f"{blam} is not an Uglov bipartition for e={e}, s={s}")
    return strip


def replay_path2(path: tuple[int, ...], e: int, s: Bicharge) -> Bipartition | None:
    """Replay f_tilde2 along a residue path from the empty pair, last entry first."""
    cur = EMPTY
    for i in reversed(path):
        cur = f_tilde2(cur, i, e, s)
        if cur is None:
            return None
    return cur


def is_very_dominant(s: Bicharge, n: int, e: int) -> bool:
    """The dominance inequality |s2 - s1| > n - 1 - e, as traditionally stated.

    Caution: this inequality understates the charge gap actually needed for
    the rank-n crystal to stabilize (small counterexamples exist and are
    kept as regression tests), so the stabilization machinery relies on
    betamaps.stable_shift instead.
    """
    return abs(s[1] - s[0]) > n - 1 - e


def is_kleshchev(blam: Bipartition, e: int, s: Bicharge) -> bool:
    """Membership at a stabilized representative of the bicharge class."""
    k = stable_shift(s, rank2(blam), e)
    return is_uglov(blam, e, (s[0], s[1] + k * e))


def mullineux_level2(blam: Bipartition, e: int, s: Bicharge) -> Bipartition:
    """Level-2 Mullineux map: negate a residue path taken at stabilized charges.

    The path of blam is computed at a stabilized representative of s, then
    replayed with negated residues at a stabilized representative of -s.
    The result is known to be the componentwise level-1 Mullineux image,
    which the tests check against the level-1 oracle.
    """
    n = rank2(blam)
    up = (s[0], s[1] + stable_shift(s, n, e) * e)
    strip = strip_residues2(blam, e, up)
    if strip is None:
        raise NotKleshchevError(f"{blam} is not Kleshchev for e={e}, s={s}")
    neg = (-s[0], -s[1])
    down = (neg[0], neg[1] + stable_shift(neg, n, e) * e)
    image = replay_path2(tuple((-r) % e for r in strip), e, down)
    if image is None:
        raise AssertionError("negated path replay stalled at a stabilized bicharge")
    return image


def uglov_bipartitions(e: int, s: Bicharge, n_max: int):
    """Yield all Uglov bipartitions of rank <= n_max, by rank then sorted order."""
    layer = {EMPTY}
    yield EMPTY
    for _ in range(n_max):
        nxt = set()
        for blam in layer:
            for i in range(e):
                image = f_tilde2(blam, i, e, s)
                if image is not None:
                    nxt.add(image)
        layer = nxt
        yield from sorted(nxt)
