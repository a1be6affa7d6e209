"""Combinatorics the benchmark checks the program against.

Nothing here imports mullineux: every count and property is computed from
first principles, so a change that alters the program's results cannot
also alter what they are checked against.
"""

from __future__ import annotations

import random
from collections import Counter

E_LIST = (2, 3, 4, 5)


def glaisher_counts(e: int, n_max: int) -> list[int]:
    """Number of partitions of n with no part divisible by e, for n <= n_max.

    By Glaisher's theorem this is also the number of e-regular partitions
    of n (no part repeated e or more times).
    """
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if part % e:
            for n in range(part, n_max + 1):
                counts[n] += counts[n - part]
    return counts


def grid_count(n_max: int) -> int:
    """e-regular partitions of rank <= n_max summed over e = 2..5."""
    return sum(sum(glaisher_counts(e, n_max)) for e in E_LIST)


def e_regular_partitions(n: int, e: int):
    """Partitions of n with each part value used at most e - 1 times."""

    def gen(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            for times in range(1, e):
                if part * times > remaining:
                    break
                prefix.extend([part] * times)
                yield from gen(remaining - part * times, part - 1, prefix)
                del prefix[-times:]

    yield from gen(n, n, [])


def is_e_regular(lam, e: int) -> bool:
    return all(times < e for times in Counter(lam).values())


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for row in lam if row > col) for col in range(lam[0] if lam else 0))


def is_e_core(lam, e: int) -> bool:
    """No hook length divisible by e."""
    cols = conjugate(lam)
    return all(((row - c) + (cols[c] - r) - 1) % e for r, row in enumerate(lam) for c in range(row))


def residue_counts(lam, e: int) -> Counter:
    """Multiset of node residues (column - row) mod e."""
    return Counter((c - r) % e for r, row in enumerate(lam) for c in range(row))


def image_problems(lam, e: int, image, back) -> list[str]:
    """Properties every Mullineux image must have.

    back is the image of image, which must be lam again.
    """
    problems = []
    where = f"e={e} lam={lam}"
    if back != lam:
        problems.append(f"not an involution at {where}: back to {back}")
    if sum(image) != sum(lam):
        problems.append(f"rank changed at {where}: {image}")
    if not is_e_regular(image, e):
        problems.append(f"image not {e}-regular at {where}: {image}")
    counts, image_counts = residue_counts(lam, e), residue_counts(image, e)
    if any(image_counts[r] != counts[(-r) % e] for r in range(e)):
        problems.append(f"residues not negated at {where}: {image}")
    if e == 2 and image != lam:
        problems.append(f"not the identity at {where}: {image}")
    if is_e_core(lam, e) and image != conjugate(lam):
        problems.append(f"e-core not conjugated at {where}: {image}")
    return problems


def beta_set(lam) -> tuple[int, ...]:
    """Beta-set of length max(1, #parts), increasing."""
    length = max(1, len(lam))
    padded = list(lam) + [0] * (length - len(lam))
    return tuple(sorted(padded[j] - (j + 1) + length for j in range(length)))


def tower(e: int, x, k_max: int):
    """Iterated greedy matching step from (x, x); one (x1, x2, inclusion) per stage."""
    x1, x2 = tuple(x), tuple(x)
    stages = []
    for _ in range(k_max + 1):
        free = sorted(x2)
        image = []
        for a in sorted(x1):
            below = [b for b in free if b <= a]
            b = below[-1] if below else free[-1]
            free.remove(b)
            image.append(b)
        x1, x2 = tuple(sorted(image)), tuple(sorted([*range(e), *(a + e for a in x1), *(b + e for b in free)]))
        stages.append((x1, x2, set(x1) <= set(x2)))
    return stages


def grid_sample(n_max: int, size: int, seed: int, cores: bool):
    """A seeded sample of (lam, e) from the e = 2..5, rank <= n_max grid.

    With cores set, every e-core of the grid is added to the sample.
    """
    rng = random.Random(f"grid-{n_max}-{seed}")
    chosen = set(rng.sample(range(grid_count(n_max)), size))
    sample = []
    index = 0
    for e in E_LIST:
        for n in range(n_max + 1):
            for lam in e_regular_partitions(n, e):
                if index in chosen or (cores and is_e_core(lam, e)):
                    sample.append((lam, e))
                index += 1
    return sample


def random_e_regular(rng: random.Random, n: int, e: int) -> tuple[int, ...]:
    """A random e-regular partition of n.

    Draws parts not divisible by e with a random cap, so that shapes range
    from a few long rows to many short ones, then applies Glaisher's
    bijection: e equal parts p merge into one part e*p until no value is
    repeated e times.
    """
    cap = rng.randint(2, n)
    counts = Counter()
    remaining = n
    while remaining:
        part = rng.randint(1, min(cap, remaining))
        if part % e:
            counts[part] += 1
            remaining -= part
    merged = True
    while merged:
        merged = False
        for part in sorted(counts):
            if counts[part] >= e:
                times, counts[part] = divmod(counts[part], e)
                counts[part * e] += times
                merged = True
    return tuple(sorted(counts.elements(), reverse=True))
