"""Exception types shared across the package, and the one modulus check."""


def check_modulus(e: int) -> None:
    """Raise ValueError unless e >= 2, the only moduli the package takes."""
    if e < 2:
        raise ValueError(f"modulus must be >= 2, got {e}")


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
