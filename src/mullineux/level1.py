"""Level-1 Fock-space crystal on partitions.

Kashiwara operators act by adding or removing "good" nodes selected from
the signature word of a residue: all addable and removable j-nodes are read
from the bottom row of the diagram up (larger row index first), encoded as
A and R, and every factor RA is cancelled.  The rightmost surviving A is
the good addable node, the leftmost surviving R the good removable node.
This reading order is pinned down by the known Mullineux values it has to
reproduce; flipping it breaks them.

Residue paths (i_1, ..., i_n) are stored with the convention that i_n is
applied first when replaying from the empty partition.  Negating every
residue of a path for an e-regular partition and replaying computes the
Mullineux involution (Kleshchev's algorithm), which is the oracle the rest
of the package is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

from mullineux._core import kernels
from mullineux.errors import NotRegularError
from mullineux.partitions import Partition, check_rank, enumerate_e_regular

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


def f_tilde(lam: Partition, j: int, e: int) -> Partition | None:
    """Add the good addable j-node; None when the operator is undefined."""
    return kernels.f_tilde(lam, j % e, e)


def e_tilde(lam: Partition, j: int, e: int) -> Partition | None:
    """Remove the good removable j-node; None when the operator is undefined."""
    return kernels.e_tilde(lam, j % e, e)


def replay_path(path: tuple[int, ...], e: int) -> Partition | None:
    """Replay f_tilde along a residue path from (), last entry applied first."""
    return kernels.replay(tuple(j % e for j in reversed(path)), e)


def residue_path_to_empty(lam: Partition, e: int) -> tuple[int, ...]:
    """A residue path whose replay from () gives lam.

    The canonical path strips the first defined good removable node in
    residue order 0..e-1 at every step; any valid stripping order replays
    to the same partition.  Raises NotRegularError when the stripping
    stalls, which happens exactly when lam is not e-regular.
    """
    strip = kernels.strip_residues(lam, e)
    if strip is None:
        raise NotRegularError(f"{lam} is not {e}-regular")
    return strip


def mullineux_kleshchev(lam: Partition, e: int) -> Partition:
    """Mullineux involution of an e-regular partition by path negation.

    Raises PartitionTooLargeError above partitions.MAX_RANK."""
    check_rank(lam)
    image = kernels.mullineux(lam, e)
    if image is None:
        raise NotRegularError(f"{lam} is not {e}-regular")
    return image


@dataclass(frozen=True)
class CrystalGraph:
    """Connected component of the empty partition, cut off at rank n_max.

    Vertices are the e-regular partitions of rank <= n_max; edges are the
    f_tilde moves between them, labelled by residue.  The vertex list runs
    through ranks 0..n_max in enumeration order; edges follow the vertex
    order of their source, then the residue.
    """

    e: int
    n_max: int
    vertices: tuple[Partition, ...]
    edges: tuple[tuple[Partition, int, Partition], ...]


def crystal_graph(e: int, n_max: int) -> CrystalGraph:
    """Build the level-1 crystal on e-regular partitions of rank <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    vertices = []
    for n in range(n_max + 1):
        vertices.extend(enumerate_e_regular(n, e))
    edges = []
    for lam in vertices:
        if sum(lam) == n_max:
            continue
        for j in range(e):
            image = kernels.f_tilde(lam, j, e)
            if image is not None:
                edges.append((lam, j, image))
    return CrystalGraph(e, n_max, tuple(vertices), tuple(edges))


__all__ = [
    "Node",
    "addable_nodes",
    "removable_nodes",
    "signature_word",
    "reduce_signature",
    "good_addable",
    "good_removable",
    "f_tilde",
    "e_tilde",
    "replay_path",
    "residue_path_to_empty",
    "mullineux_kleshchev",
    "CrystalGraph",
    "crystal_graph",
]
