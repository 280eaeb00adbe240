"""Combinatorics of integrable highest-weight modules over affine sl(n):
crystal graphs on residued partitions, weight multiplicities by two
independent routes, tensor decompositions, Levi branching tables, and the
stratum/fixed-point bookkeeping of the associated gauge-theory dictionary.
"""

from ._backend import backend_name
from .cartan import (
    Weight,
    cartan_matrix,
    delta,
    dims_from_weights,
    dominance_leq,
    dominant_representative,
    fundamental_weight,
    is_dominant,
    is_weight_of,
    lowering_vector,
    rho,
    simple_root,
    weight_invariants,
    weights_from_dims,
)
from .crystal import (
    CONVENTION_ID,
    DEFAULT_NODE_CAP,
    CrystalGraph,
    CrystalNode,
    apply_tensor_operator,
    generate_crystal,
    levi_branching,
    tensor_eps_phi,
    tensor_highest_weights,
    tensor_weight_multiplicity,
    weight_multiplicity,
)
from .errors import (
    AffsatError,
    ConsistencyError,
    DomainError,
    IncomparableWeightsError,
    NoHighestWeightError,
    RankError,
    ResourceCapError,
)
from .fock import ChargedPartition, apply_root_operator, cell_residue, eps_phi, fock_weight
from .freudenthal import PositiveRoot, freudenthal_multiplicity, positive_roots
from .satake import (
    BranchRow,
    Stratum,
    attracting_component_count,
    enumerate_leaves,
    fixed_point_count,
    sheaf_multiplicity_table,
    tensor_fixed_points,
)

__version__ = "0.1.0"
