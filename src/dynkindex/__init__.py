"""Exact-arithmetic Dynkin indices for the simple Lie algebras.

The package computes indices of representations (from highest weights) and
of the sl2-subalgebras attached to nilpotent orbits (from partitions), each
by several independent routes, plus the supporting root-system, orbit-poset
and identity machinery.  Everything is exact: integers and Fractions only.
"""

from types import ModuleType as _ModuleType

from .identities import IdentityInstance, instance, lhs, sweep
from .orbits import (
    OrbitPoset,
    build_poset,
    degeneration_moves,
    dominance_leq,
    enumerate_orbits,
    monotonicity_holds,
    partitions_of,
    poset_dot,
)
from .reps import (
    RepIndexReport,
    dynkin_index,
    embedding_index,
    simplest_embedding_index,
    weyl_dimension,
)
from .rootsystems import LieType, Root, RootSystem, build, classical_type
from .sl2 import (
    IndexReport,
    McKayData,
    branch_adjoint,
    branch_vector_rep,
    classical_index,
    clebsch_gordan,
    index_via_adjoint,
    index_via_simplest_rep,
    mckay_data,
    module_dimension,
    module_index,
    partition_is_admissible,
    principal_index,
    principal_minus_subregular,
    subregular_module,
    sym2,
    wedge2,
)
from .verify import VerifyConfig, run_checks

__version__ = "0.1.0"

# Every public name the imports above bind, apart from the submodules they bind.
__all__ = sorted(
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
)
