"""Crystal and beta-set kernels.

These are the inner loops of the sweep harnesses: the row scans of the
crystal moves, the Mullineux map they compose to (Kleshchev's algorithm),
Mullineux's e-rim symbol and its dual, which cross-validation checks an
image against, and the greedy beta-set matching step.  Callers, level1's
moves among them, look the functions up on this module at call time
(kernels.psi_step(...)), so a wrapper installed on a module attribute sees
every call.

Conventions: partitions are tuples of weakly decreasing positive ints,
beta-sets are int bitsets, bit b set iff b is a bead, residues are ints
in 0..e-1, rows are 1-based, and the modulus is at least 2.  The bitset
is the one form the engine computes beta-sets in: a step's shift,
staircase, subset test and match are single big-int operations, and a
memo key is one int.  The kernels take and return bitsets and check only
the size contract; betamaps encodes and decodes at its public entry
points.
Signature words read the diagram from the bottom row up, so the word
starts at the largest row index.
"""

# The crystal moves rest on two scans of the rows: one reads the removable
# letters of every residue at once and keeps, per residue, the rows of the
# removable nodes no addable node cancels (_open_removable); the other
# keeps the rows of the uncancelled addable nodes of one residue
# (_add_string).  Adding or removing a j-node changes no other j-letter of
# the word, so one scan serves a whole i-string: Kleshchev's algorithm
# strips e_j^max at a time and replays each negated string (-j, q) as
# f_{-j}^q, one scan per string instead of one per node.  level1 builds
# the rank-one moves, path stripping and replay from the same scans.

from mullineux.errors import check_modulus


def _open_removable(rows, e):
    """Rows of the uncancelled removable nodes of every residue.

    One bottom-up scan reads the signature words of all residues at once:
    a removable j-node opens, an addable j-node closes the last open
    removable j-node.  Entry j of the result lists the rows left open,
    bottom row first; the first is the good removable j-node, and removing
    them all is e_j^max.  rows may be a tuple or a list.
    """
    open_rows = [[] for _ in range(e)]
    below = 0  # the row under row a; the addable node of row r + 1 closes nothing
    for a in range(len(rows), 0, -1):
        row_len = rows[a - 1]
        if row_len > below:  # removable at column row_len
            open_rows[(row_len - a) % e].append(a)
        if a == 1 or rows[a - 2] > row_len:  # addable at column row_len + 1
            stack = open_rows[(row_len + 1 - a) % e]
            if stack:
                stack.pop()
        below = row_len
    return open_rows


def _remove_nodes(rows, found):
    """Remove the last node of each row in found from the list rows."""
    for a in found:
        rows[a - 1] -= 1
    if not rows[-1]:  # only the last row can shrink to zero
        rows.pop()


def _add_string(rows, j, q, e):
    """Apply f_j^q to the list rows in place; False when it is undefined.

    One bottom-up scan of the j-signature word keeps the rows of the
    uncancelled addable j-nodes: an addable node cancels against an open
    removable node read before it, and survives otherwise.  The last
    survivor is the good addable j-node.  Adding or removing a j-node
    changes no other j-letter of the word, so the q good nodes added one by
    one are the last q survivors, and q sequential f_tilde calls stall
    exactly when fewer survive.
    """
    r = len(rows)
    free = [r + 1] if (-r) % e == j else []  # addable at (r + 1, 1)
    opened = 0
    below = 0
    for a in range(r, 0, -1):
        row_len = rows[a - 1]
        if row_len > below and (row_len - a) % e == j:
            opened += 1
        if (a == 1 or rows[a - 2] > row_len) and (row_len + 1 - a) % e == j:
            if opened:
                opened -= 1
            else:
                free.append(a)
        below = row_len
    if len(free) < q:
        return False
    for a in free[len(free) - q :]:
        if a > r:
            rows.append(1)
        else:
            rows[a - 1] += 1
    return True


def _first_open_string(rows, e):
    """(j, rows) of the smallest residue j with an uncancelled removable
    j-node and the rows of all of them, or None when there is none."""
    for j, found in enumerate(_open_removable(rows, e)):
        if found:
            return j, found
    return None


def _replay_strings(strings, e):
    """Apply f_j^q for each (j, q) in order, starting from (); None as soon
    as a string is undefined."""
    rows = []
    for j, q in strings:
        if not _add_string(rows, j, q, e):
            return None
    return tuple(rows)


def mullineux(parts, e):
    """Mullineux image via string negation, or None if parts is not e-regular.

    Kleshchev's algorithm, M(f_j b) = f_{-j} M(b), on whole strings: strip
    e_j^max for the smallest residue j that has a good removable node, one
    scan per string, down to the empty partition, then replay every string
    (j, q) as f_{-j}^q in reverse order.  The image does not depend on the
    stripping order, so it is the one the canonical path gives.
    """
    check_modulus(e)
    rows = list(parts)
    strings = []
    while rows:
        string = _first_open_string(rows, e)
        if string is None:
            return None
        j, found = string
        _remove_nodes(rows, found)
        strings.append(((-j) % e, len(found)))
    strings.reverse()
    return _replay_strings(strings, e)


def _remove_rim(cur, e):
    """Remove the e-rim from the list cur in place; returns the nodes removed.

    The e-rim is cut into segments of at most e rim nodes.  The first
    starts at the last node of row 1; each runs down the rim, taking
    min(left, rim_r) nodes in row r, where rim_r = parts_r - parts_{r+1} + 1
    (parts_r in the last row), and the next starts on the row after the one
    where the previous ran out.  Every row loses at least one node.
    """
    last = len(cur) - 1
    left, size = e, 0
    for r in range(last):
        take = cur[r] - cur[r + 1] + 1
        if take > left:
            take = left
        cur[r] -= take
        size += take
        left = left - take or e
    if last >= 0:
        take = cur[last] if cur[last] < left else left
        cur[last] -= take
        size += take
    while cur and not cur[-1]:
        cur.pop()
    return size


def e_rim_symbol(parts, e):
    """The e-rim symbol: one column (A, R) per e-rim removed down to the
    empty partition, A nodes removed from a partition of R rows."""
    check_modulus(e)
    cur = list(parts)
    columns = []
    while cur:
        rows = len(cur)
        columns.append((_remove_rim(cur, e), rows))
    return columns


def dual_symbol(columns, e):
    """The columns (A, A - R + eps), eps = 0 if e divides A and 1 otherwise:
    the symbol of the Mullineux image (an involution)."""
    return [(size, size - rows + (1 if size % e else 0)) for size, rows in columns]


def psi_step(e, x1, x2):
    """One beta-set crystal-isomorphism step (charge gap grows by e).

    Matches x1 into x2 greedily, smallest element first:  each a takes the
    largest unmatched b <= a, falling back to the largest unmatched b.
    Returns (y1, y2), y1 the set of b matched and y2 the staircase 0..e-1,
    x1 + e and the unmatched part of x2 + e; sets only, never the pairing.

    The match is parking on a cycle: each a parks on the first free slot of
    x2 at or below it, wrapping to the top.  The set of slots taken does
    not depend on the order the beads arrive in: swap two consecutive
    arrivals, and if both want slot b first, one takes b and the other the
    next free slot past b, either way round.  So the beads of x1 & x2 park
    first, each on its own slot, and only x1 & ~x2 park into x2 & ~x1.
    When that is empty, y1 = x1 and y2 is the staircase and x2 + e; this
    covers every first stage of a tower, where x1 == x2.
    """
    # low, a bead outside x2, takes the top free slot below it, the top bit
    # of avail & (low - 1), or else avail's top bit.  y1 is x2 less the
    # free slots left; x1 and those are disjoint, so y2 is one or.
    if x1.bit_count() > x2.bit_count():
        raise ValueError("psi_step needs |x1| <= |x2|")
    staircase = (1 << e) - 1
    rest = x1 & ~x2
    if not rest:
        return x1, (x2 << e) | staircase
    avail = x2 & ~x1
    while rest:
        low = rest & -rest
        rest ^= low
        avail ^= 1 << (((avail & (low - 1)) or avail).bit_length() - 1)
    return x2 ^ avail, ((x1 | avail) << e) | staircase


def psi_step_inverse(e, y1, y2):
    """Inverse of psi_step; assumes y2 starts with the staircase 0..e-1.

    Drops the staircase, shifts the rest of y2 down by e, then matches y1
    into it smallest element first, each a taking the smallest unmatched
    b >= a with the smallest unmatched b as fallback.  This is parking on
    the cycle the other way, so as going forward the set of slots taken
    does not depend on the arrival order: the beads of y1 & (y2 >> e) park
    on their own slots, and only y1 & ~(y2 >> e) park, into the free slots
    (y2 >> e) & ~y1.  On bits, with low the lowest bead left to park, the
    free slots at or above it are avail & -low, whose lowest bit it takes.
    Once a bead falls back, no free slot is left above it, so every later
    bead falls back too, to the smallest free slots in order.  y1 and the
    free slots left are disjoint.
    """
    if y1.bit_count() > y2.bit_count() - e:
        raise ValueError("psi_step_inverse needs |y1| <= |y2| - e")
    shifted = y2 >> e
    avail, rest = shifted & ~y1, y1 & ~shifted
    while rest:
        low = rest & -rest
        above = avail & -low
        if not above:
            break
        rest ^= low
        avail ^= above & -above
    for _ in range(rest.bit_count()):
        avail &= avail - 1
    return shifted ^ avail, y1 | avail
