"""Combinatorics of integrable highest-weight modules over affine sl(n):
crystal graphs on residued partitions, weight multiplicities by two
independent routes, tensor decompositions, Levi branching tables, and the
stratum/fixed-point bookkeeping of the associated gauge-theory dictionary.

Importing the package loads no submodule: each public name below, and each
submodule, is imported on first attribute access (PEP 562).
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "_backend": "backend_name",
    "cartan": "CONVENTION_ID DEFAULT_NODE_CAP Weight cartan_matrix delta dims_from_weights "
              "dominance_leq dominant_representative fundamental_weight is_dominant "
              "is_weight_of lowering_vector rho simple_root weight_invariants weights_from_dims",
    "crystal": "CrystalGraph CrystalNode apply_tensor_operator generate_crystal levi_branching "
               "tensor_eps_phi tensor_highest_weights tensor_weight_multiplicity "
               "weight_multiplicity",
    "errors": "AffsatError ConsistencyError DomainError IncomparableWeightsError "
              "NoHighestWeightError RankError ResourceCapError",
    "fock": "ChargedPartition apply_root_operator cell_residue eps_phi fock_weight",
    "freudenthal": "PositiveRoot freudenthal_multiplicity positive_roots",
    "satake": "BranchRow Stratum attracting_component_count enumerate_leaves "
              "fixed_point_count sheaf_multiplicity_table tensor_fixed_points",
}.items() for name in names.split()}

_SUBMODULES = frozenset(("cartan", "cli", "crystal", "errors", "fock", "freudenthal", "satake"))

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        module = name
    elif name in _EXPORTS:
        module = _EXPORTS[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
