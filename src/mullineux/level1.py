"""Level-1 Fock-space crystal on partitions.

Kashiwara operators act by adding or removing "good" nodes selected from
the signature word of a residue: all addable and removable j-nodes are read
from the bottom row of the diagram up (larger row index first), encoded as
A and R, and every factor RA is cancelled.  The rightmost surviving A is
the good addable node, the leftmost surviving R the good removable node.
This reading order is pinned down by the known Mullineux values it has to
reproduce; flipping it breaks them.  The row scans in
mullineux._core.kernels read the words in this order in one pass; the
word-by-word definition is kept with the tests (tests/crystal_reference.py),
which check the moves against it.

Residue paths (i_1, ..., i_n) are stored with the convention that i_n is
applied first when replaying from the empty partition.  Negating every
residue of a path for an e-regular partition and replaying computes the
Mullineux involution (Kleshchev's algorithm), which is the oracle the rest
of the package is validated against.

The kernels run that algorithm on whole i-strings.  Adding or removing a
j-node changes no other j-letter of the signature word, so one scan finds
every node of a string: the strip removes all uncancelled removable j-nodes
at once (e_j^max, for the smallest residue j that has any), and the replay
applies each negated string (-j, q) as f_{-j}^q, adding a node at each of
the last q uncancelled addable nodes, or stalling when fewer than q are
left.  The image does not depend on the stripping order.  The moves here
call those scans directly, looked up on kernels at call time: replay_path
applies runs of equal residues as strings, and residue_path_to_empty
returns the canonical path, one node at a time.  Every entry point takes a
modulus of at least 2, and each move checks it once.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from mullineux._core import kernels
from mullineux.errors import NotRegularError, check_modulus
from mullineux.partitions import Partition, check_rank, enumerate_e_regular


def f_tilde(lam: Partition, j: int, e: int) -> Partition | None:
    """Add the good addable j-node; None when the operator is undefined."""
    check_modulus(e)
    rows = list(lam)
    return tuple(rows) if kernels._add_string(rows, j % e, 1, e) else None


def e_tilde(lam: Partition, j: int, e: int) -> Partition | None:
    """Remove the good removable j-node; None when the operator is undefined."""
    check_modulus(e)
    found = kernels._open_removable(lam, e)[j % e]
    if not found:
        return None
    rows = list(lam)
    kernels._remove_nodes(rows, found[:1])
    return tuple(rows)


def replay_path(path: tuple[int, ...], e: int) -> Partition | None:
    """Replay f_tilde along a residue path from (), last entry applied first."""
    check_modulus(e)
    runs = groupby(j % e for j in reversed(path))
    return kernels._replay_strings(((j, len(list(run))) for j, run in runs), e)


def residue_path_to_empty(lam: Partition, e: int) -> tuple[int, ...]:
    """A residue path whose replay from () gives lam.

    The canonical path strips the first defined good removable node in
    residue order 0..e-1 at every step; any valid stripping order replays
    to the same partition.  Raises NotRegularError when the stripping
    stalls, which happens exactly when lam is not e-regular, and ValueError
    when e < 2.
    """
    check_modulus(e)
    first_open_string, remove_nodes = kernels._first_open_string, kernels._remove_nodes
    rows = list(lam)
    path = []
    while rows:
        string = first_open_string(rows, e)
        if string is None:
            raise NotRegularError(f"{lam} is not {e}-regular")
        j, found = string
        remove_nodes(rows, found[:1])
        path.append(j)
    return tuple(path)


def mullineux_kleshchev(lam: Partition, e: int) -> Partition:
    """Mullineux involution of an e-regular partition by path negation.

    Raises PartitionTooLargeError above partitions.MAX_RANK and ValueError
    when e < 2."""
    check_rank(lam)
    image = kernels.mullineux(lam, e)
    if image is None:
        raise NotRegularError(f"{lam} is not {e}-regular")
    return image


class CrystalGraph(NamedTuple):
    """Connected component of the empty partition, cut off at rank n_max.

    Vertices are the e-regular partitions of rank <= n_max; edges are the
    f_tilde moves between them, labelled by residue.  The vertex list runs
    through ranks 0..n_max in enumeration order; edges follow the vertex
    order of their source, then the residue.  A named tuple keeps the fields
    immutable without loading dataclasses at import.
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
            image = f_tilde(lam, j, e)
            if image is not None:
                edges.append((lam, j, image))
    return CrystalGraph(e, n_max, tuple(vertices), tuple(edges))


__all__ = [
    "f_tilde",
    "e_tilde",
    "replay_path",
    "residue_path_to_empty",
    "mullineux_kleshchev",
    "CrystalGraph",
    "crystal_graph",
]
