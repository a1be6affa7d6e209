"""Mullineux involutions and Fock-space crystal combinatorics.

The package computes the Mullineux involution on e-regular partitions two
ways: through the level-1 crystal (Kleshchev's algorithm, the oracle) and
through a modulus-doubling recursion built on beta-set crystal
isomorphisms.  Sweep harnesses verify the inclusion property the recursion
rests on and cross-validate the two algorithms exhaustively.
"""

from mullineux.betamaps import (
    encode_bipartition,
    matching_pairs,
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
    NotKleshchevError,
    NotRegularError,
    NotUglovError,
    SizeOrderError,
)
from mullineux.level1 import (
    CrystalGraph,
    crystal_graph,
    e_tilde,
    f_tilde,
    good_addable,
    good_removable,
    mullineux_kleshchev,
    replay_path,
    residue_path_to_empty,
    signature_word,
)
from mullineux.level2 import (
    Bicharge,
    Bipartition,
    e_tilde2,
    f_tilde2,
    is_kleshchev,
    is_uglov,
    is_very_dominant,
    mullineux_level2,
    node_less,
    residue_path_to_empty2,
    replay_path2,
    uglov_bipartitions,
)
from mullineux.partitions import (
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
    "good_addable",
    "good_removable",
    "mullineux_kleshchev",
    "replay_path",
    "residue_path_to_empty",
    "signature_word",
    # level-2 crystal
    "Bicharge",
    "Bipartition",
    "e_tilde2",
    "f_tilde2",
    "is_kleshchev",
    "is_uglov",
    "is_very_dominant",
    "mullineux_level2",
    "node_less",
    "replay_path2",
    "residue_path_to_empty2",
    "uglov_bipartitions",
    # beta-set isomorphisms
    "encode_bipartition",
    "matching_pairs",
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
    "NotKleshchevError",
    "NotRegularError",
    "NotUglovError",
    "SizeOrderError",
]
