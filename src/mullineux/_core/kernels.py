"""Crystal and beta-set kernels.

These are the inner loops of the sweep harnesses: rank-one crystal moves on
partitions, full residue-path stripping and replay, the Mullineux map they
compose to, and the greedy beta-set matching step.  Callers look the
functions up on this module at call time (kernels.psi_step(...)), so a
wrapper installed on a module attribute sees every call.

Conventions: partitions are tuples of weakly decreasing positive ints,
beta-sets are strictly increasing tuples of nonnegative ints, residues are
ints in 0..e-1, rows are 1-based.  Signature words read the diagram from
the bottom row up, so the word starts at the largest row index.
"""

from bisect import bisect_left, bisect_right


def _check_modulus(e):
    if e < 1:
        raise ValueError(f"modulus must be >= 1, got {e}")


def good_rows(parts, j, e):
    """Rows of the good addable and good removable j-node, 0 when absent.

    Scans rows bottom-up, pushing A/R letters and cancelling each R that is
    immediately followed by an A; the survivors form A^p R^q.
    """
    _check_modulus(e)
    r = len(parts)
    stack = []  # (is_addable, row), reduced on the fly
    for a in range(r + 1, 0, -1):
        row_len = parts[a - 1] if a <= r else 0
        if a > r or a == 1 or parts[a - 2] > row_len:
            if (row_len + 1 - a) % e == j:  # addable at column row_len + 1
                if stack and not stack[-1][0]:
                    stack.pop()
                else:
                    stack.append((True, a))
        if a <= r and (a == r or row_len > parts[a]):
            if (row_len - a) % e == j:  # removable at column row_len
                stack.append((False, a))
    add_row = rem_row = 0
    for is_addable, a in stack:
        if is_addable:
            add_row = a
        else:
            rem_row = a
            break
    return add_row, rem_row


def f_tilde(parts, j, e):
    """Add the good addable j-node, or None when there is none."""
    a, _ = good_rows(parts, j, e)
    if a == 0:
        return None
    if a == len(parts) + 1:
        return parts + (1,)
    return parts[: a - 1] + (parts[a - 1] + 1,) + parts[a:]


def e_tilde(parts, j, e):
    """Remove the good removable j-node, or None when there is none."""
    _, a = good_rows(parts, j, e)
    if a == 0:
        return None
    if parts[a - 1] == 1:  # only the last row can shrink to zero
        return parts[:-1]
    return parts[: a - 1] + (parts[a - 1] - 1,) + parts[a:]


def strip_residues(parts, e):
    """Greedily strip good removable nodes down to the empty partition.

    At each step the smallest residue with a good removable node is taken,
    which is the node a scan of residues 0..e-1 with good_rows would find
    first.  One bottom-up scan per removed node finds them all: it keeps,
    per residue, the number of removable nodes no later addable node has
    cancelled and the row of the lowest of them, which is the good one.
    Returns the residues in removal order, or None if the process stalls
    early (the partition is not e-regular).
    """
    _check_modulus(e)
    cur = parts
    out = []
    while cur:
        r = len(cur)
        open_count = [0] * e
        good_row = [0] * e
        for a in range(r + 1, 0, -1):
            row_len = cur[a - 1] if a <= r else 0
            if a > r or a == 1 or cur[a - 2] > row_len:  # addable at column row_len + 1
                j = (row_len + 1 - a) % e
                if open_count[j]:
                    open_count[j] -= 1
            if a <= r and (a == r or row_len > cur[a]):  # removable at column row_len
                j = (row_len - a) % e
                if not open_count[j]:
                    good_row[j] = a
                open_count[j] += 1
        for j in range(e):
            if open_count[j]:
                a = good_row[j]
                break
        else:
            return None
        if cur[a - 1] == 1:
            cur = cur[:-1]
        else:
            cur = cur[: a - 1] + (cur[a - 1] - 1,) + cur[a:]
        out.append(j)
    return tuple(out)


def replay(residues, e):
    """Apply f_tilde for each residue in the given order, starting from ().

    Returns None as soon as a step is undefined.
    """
    _check_modulus(e)
    cur = ()
    for j in residues:
        cur = f_tilde(cur, j, e)
        if cur is None:
            return None
    return cur


def mullineux(parts, e):
    """Mullineux image via path negation, or None if parts is not e-regular.

    Strip a residue path to the empty partition, then replay it with every
    residue negated mod e (the removal order reverses into application
    order).
    """
    _check_modulus(e)
    strip = strip_residues(parts, e)
    if strip is None:
        return None
    return replay(tuple((-r) % e for r in reversed(strip)), e)


def psi_step(e, x1, x2):
    """One beta-set crystal-isomorphism step (charge gap grows by e).

    Matches x1 into x2 greedily, smallest element first:  each a takes the
    largest unmatched b <= a, falling back to the largest unmatched b.
    Returns (y1, y2) where y1 is the matched image and y2 collects x1 + e,
    the unmatched part of x2 shifted by e, and the staircase 0..e-1.
    Both inputs must be strictly increasing.
    """
    if len(x1) > len(x2):
        raise ValueError("psi_step needs |x1| <= |x2|")
    avail = list(x2)
    taken = [False] * len(avail)
    y1 = []
    for a in x1:
        i = bisect_right(avail, a) - 1
        while i >= 0 and taken[i]:
            i -= 1
        if i < 0:
            i = len(avail) - 1
            while taken[i]:
                i -= 1
        taken[i] = True
        y1.append(avail[i])
    y1.sort()
    y2 = list(range(e))
    y2 += [a + e for a in x1]
    y2 += [b + e for i, b in enumerate(avail) if not taken[i]]
    y2.sort()
    return tuple(y1), tuple(y2)


def psi_step_inverse(e, y1, y2):
    """Inverse of psi_step; assumes y2 starts with the staircase 0..e-1.

    Drops the staircase, shifts the rest of y2 down by e, then matches y1
    into it smallest element first, each a taking the smallest unmatched
    b >= a with the smallest unmatched b as fallback.
    """
    if len(y1) > len(y2) - e:
        raise ValueError("psi_step_inverse needs |y1| <= |y2| - e")
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
