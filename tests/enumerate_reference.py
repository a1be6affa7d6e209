"""The e-regular enumerator the package ran before, as a reference.

partitions.enumerate_e_regular_bits builds the same partitions in one
generator frame.  This is the recursive form it replaced: each partition
is handed up through one `yield from` frame per distinct part.  The tests
check the one-frame enumerator's sequence against it.
"""

from typing import Iterator

from mullineux.errors import check_modulus

Partition = tuple[int, ...]


def enumerate_e_regular(n: int, e: int) -> Iterator[Partition]:
    """Partitions of n with no part repeated e or more times, reverse-lex order.

    Built directly, never by filtering: each step picks the next part value
    p below the last one and how often it repeats, at most e-1 times, more
    copies first, which is reverse-lex order.  A choice is taken only if the
    values below p, each e-1 times, can still make up the rest, so every
    branch ends in a partition.
    """
    check_modulus(e)
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    prefix: list[int] = []

    def gen(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            if (e - 1) * p * (p + 1) // 2 < remaining:
                return  # parts <= p, each e-1 times, fall short
            for m in range(min(e - 1, remaining // p), 0, -1):
                rest = remaining - m * p
                if (e - 1) * (p - 1) * p // 2 < rest:
                    break
                prefix.extend([p] * m)
                yield from gen(rest, p - 1)
                del prefix[-m:]

    yield from gen(n, n)
