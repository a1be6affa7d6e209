"""Exception types shared across the package, the one modulus check, and
the one clip of an input value that error text echoes."""

from math import log10

ERROR_TEXT_CHARS = 20


def clip(value: str | int) -> str:
    """An input value as error text echoes it: an int, or a str's repr,
    whole up to ERROR_TEXT_CHARS digits or characters, else the head, "..."
    and the length."""
    if isinstance(value, str):
        if len(value) <= ERROR_TEXT_CHARS:
            return repr(value)
        return f"{value[:ERROR_TEXT_CHARS]!r}... ({len(value)} characters)"
    # an int is cut by arithmetic: str() raises past sys.get_int_max_str_digits()
    n = abs(value)
    if n < 10**ERROR_TEXT_CHARS:
        return str(value)
    digits = int(log10(n)) + 1
    # log10 can round either way next to a power of 10
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return f"{'-' * (value < 0)}{n // 10 ** (digits - ERROR_TEXT_CHARS)}... ({digits} digits)"


def check_modulus(e: int) -> None:
    """Raise ValueError unless e >= 2, the only moduli the package takes."""
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {clip(e)}")


class NotRegularError(ValueError):
    """Partition is not e-regular, so it has no residue path to the empty partition."""


class PartitionTooLargeError(ValueError):
    """Partition rank exceeds partitions.MAX_RANK, the size the entry points accept."""


class ChargeOrderError(ValueError):
    """Operation requires the bicharge to satisfy s1 <= s2."""


class SizeOrderError(ValueError):
    """Beta-set pair violates the required size order |X1| <= |X2|."""


class NotInImageError(ValueError):
    """Beta-set pair is not in the image of the forward step (missing staircase)."""


class DepthExceededError(RuntimeError):
    """Recursive Mullineux computation hit its depth limit."""

    def __init__(self, message, partition=None, modulus=None, depth=None):
        super().__init__(message)
        self.partition = partition
        self.modulus = modulus
        self.depth = depth


class ConjectureViolationError(RuntimeError):
    """Recursive Mullineux computation produced inconsistent results.

    This is the interesting outcome the harness exists to detect: the
    carried trace is a potential counterexample to the underlying
    combinatorial conjecture, not a bug report.
    """

    def __init__(self, message, partition=None, modulus=None, trace=None):
        super().__init__(message)
        self.partition = partition
        self.modulus = modulus
        self.trace = trace
