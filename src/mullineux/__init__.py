"""Mullineux involutions and Fock-space crystal combinatorics.

The package computes the Mullineux involution on e-regular partitions two
ways: through the level-1 crystal (Kleshchev's algorithm, the oracle) and
through a modulus-doubling recursion built on beta-set crystal
isomorphisms.  Sweep harnesses verify the inclusion property the recursion
rests on and cross-validate the two algorithms exhaustively.

The exports are what the engine runs: partitions and beta-sets, the
level-1 crystal moves and Kleshchev's algorithm, the beta-set steps and
their stabilized walks, the harnesses and their errors.  The reference
crystals the tests check these against (level-1 signature words, the
greedy matching and the level-2 crystal on bipartitions) live in
tests/crystal_reference.py and are not part of the package.
"""

from mullineux.betamaps import (
    Bicharge,
    Bipartition,
    encode_bipartition,
    minimal_padding,
    psi_bipartition,
    psi_bipartition_inverse,
    psi_step,
    psi_step_inverse,
    psi_tilde,
    psi_tilde_inverse,
    shortcut_applies,
)
from mullineux.engine import (
    MullineuxTrace,
    SweepReport,
    TowerStep,
    TowerTrace,
    conjecture_tower,
    cross_validate,
    mullineux_conjectural,
    sweep_conjecture,
)
from mullineux.errors import (
    ChargeOrderError,
    ConjectureViolationError,
    DepthExceededError,
    NotInImageError,
    NotRegularError,
    PartitionTooLargeError,
    SizeOrderError,
)
from mullineux.level1 import (
    CrystalGraph,
    crystal_graph,
    e_tilde,
    f_tilde,
    mullineux_kleshchev,
    replay_path,
    residue_path_to_empty,
)
from mullineux.partitions import (
    MAX_RANK,
    Partition,
    as_partition,
    beta_set,
    conjugate,
    enumerate_bipartitions,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_core,
    is_e_regular,
    partition_from_beta_set,
)

__version__ = "0.1.0"

# the kernels are pure Python; benchmark output names them by this
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "__version__",
    # partitions
    "MAX_RANK",
    "Partition",
    "as_partition",
    "beta_set",
    "conjugate",
    "enumerate_bipartitions",
    "enumerate_e_regular",
    "enumerate_partitions",
    "is_e_core",
    "is_e_regular",
    "partition_from_beta_set",
    # level-1 crystal
    "CrystalGraph",
    "crystal_graph",
    "e_tilde",
    "f_tilde",
    "mullineux_kleshchev",
    "replay_path",
    "residue_path_to_empty",
    # beta-set isomorphisms
    "Bicharge",
    "Bipartition",
    "encode_bipartition",
    "minimal_padding",
    "psi_bipartition",
    "psi_bipartition_inverse",
    "psi_step",
    "psi_step_inverse",
    "psi_tilde",
    "psi_tilde_inverse",
    "shortcut_applies",
    # harnesses
    "MullineuxTrace",
    "SweepReport",
    "TowerStep",
    "TowerTrace",
    "conjecture_tower",
    "cross_validate",
    "mullineux_conjectural",
    "sweep_conjecture",
    # errors
    "ChargeOrderError",
    "ConjectureViolationError",
    "DepthExceededError",
    "NotInImageError",
    "NotRegularError",
    "PartitionTooLargeError",
    "SizeOrderError",
]
