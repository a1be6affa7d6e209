"""Crystal and beta-set kernels.

These are the inner loops of the sweep harnesses: rank-one crystal moves on
partitions, full residue-path stripping and replay, the Mullineux map they
compose to (Kleshchev's algorithm), the same map by Mullineux's e-rim
symbol, and the greedy beta-set matching step.  Callers look the
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


def remove_e_rim(parts, e):
    """Remove the e-rim: returns (rest, number of nodes removed).

    The e-rim is cut into segments of at most e rim nodes.  The first
    starts at the last node of row 1; each runs down the rim, taking
    min(left, rim_r) nodes in row r, where rim_r = parts_r - parts_{r+1} + 1
    (parts_r in the last row), and the next starts on the row after the one
    where the previous ran out.  Every row loses at least one node.
    """
    cur = list(parts)
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
    return tuple(cur), size


def _no_rim(rest, size, rows, e):
    return ValueError(f"no partition of {rows} rows has a {size}-node {e}-rim leaving {rest}")


def add_e_rim(rest, size, rows, e):
    """The partition of `rows` rows whose e-rim has `size` nodes and leaves
    `rest`; raises ValueError when there is none.

    Rebuilt segment by segment: the rim has m = ceil(size/e) segments, all
    of e nodes but the last, which has s = size - e(m-1).  With v the rest
    padded to `rows` rows, a segment on rows r0..r1 puts
    lam_r = v_{r-1} + 1 for r0 < r <= r1 and lam_r0 = its size + v_r1 -
    (r1 - r0).  Its start must lose a node (lam_r0 > v_r0) and, below row 1,
    be where the segment above ran out (lam_r0 <= v_{r0-1} + 1).  The last
    segment ends on the last row, which it empties unless s = e.  Each r1 is
    chosen smallest first, by an iterative backtracking search (a rim may
    have thousands of segments, too many for recursion).
    """
    if size < 1 or rows < max(1, len(rest)):
        raise _no_rim(rest, size, rows, e)
    v = list(rest) + [0] * (rows - len(rest))
    m = -(-size // e)
    s = size - e * (m - 1)
    last = rows - 1
    if v[last] and s != e:
        raise _no_rim(rest, size, rows, e)
    ends = []  # the chosen r1 of every segment so far
    r0 = r1 = 0  # the current segment's start and its next candidate end
    while True:
        after = m - 1 - len(ends)  # segments after this one
        if after:
            seg = e
            # the segments after this one need at least one row each and
            # can take at most (after - 1) * e + s rows
            lo = last - (after - 1) * e - s
            hi = min(last - after, r0 + e - 1)
        else:
            seg = s
            lo = last
            hi = min(last, r0 + s - 1)
        r1 = max(r1, lo, r0)
        while r1 <= hi:
            top = seg + v[r1] - (r1 - r0)
            if top > v[r0] and (r0 == 0 or top <= v[r0 - 1] + 1):
                break
            r1 += 1
        if r1 <= hi:
            ends.append(r1)
            if not after:
                break
            r0 = r1 = r1 + 1
            continue
        if not ends:
            raise _no_rim(rest, size, rows, e)
        r1 = ends.pop() + 1
        r0 = ends[-1] + 1 if ends else 0
    lam = [0] + [x + 1 for x in v[:last]]
    r0 = 0
    for i, r1 in enumerate(ends):
        lam[r0] = (e if i < m - 1 else s) + v[r1] - (r1 - r0)
        r0 = r1 + 1
    return tuple(lam)


def mullineux_symbol(parts, e):
    """Mullineux image via the e-rim symbol, or None if parts is not e-regular.

    Removing e-rims down to the empty partition gives one column (A, R)
    per rim: A nodes removed from a partition of R rows.  The image is the
    partition whose columns are (A, A - R + eps), eps = 0 if e divides A and
    1 otherwise (Mullineux 1979; Ford-Kleshchev 1997), rebuilt from the last
    column back with add_e_rim.  Every rim takes a node from every row, so a
    call costs about one pass over the nodes.
    """
    _check_modulus(e)
    if any(parts[i] == parts[i + e - 1] for i in range(len(parts) - e + 1)):
        return None
    columns = []
    cur = tuple(parts)
    while cur:
        rows = len(cur)
        cur, size = remove_e_rim(cur, e)
        columns.append((size, rows))
    image = ()
    for size, rows in reversed(columns):
        image = add_e_rim(image, size, size - rows + (1 if size % e else 0), e)
    return image


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
