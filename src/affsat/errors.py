"""Exception types shared across the package."""


class AffsatError(Exception):
    """Base class for all library errors."""


class DomainError(AffsatError, ValueError):
    """Input outside an operation's domain (negative dims, length mismatch...)."""


class RankError(DomainError):
    """Rank below 2; the affine type-A family starts at n = 2."""


class NoHighestWeightError(DomainError):
    """Level below 1: no highest-weight module to generate from."""


class IncomparableWeightsError(DomainError):
    """Weights whose difference is not in the root lattice; no dominance order."""


class ResourceCapError(AffsatError, RuntimeError):
    """Graph generation exceeded the configured node cap."""

    def __init__(self, cap: int, budget, count: int):
        self.cap = cap
        self.budget = tuple(budget)
        self.count = count
        super().__init__(
            f"crystal generation exceeded the node cap of {cap} nodes "
            f"(budget {self.budget} produced at least {count}); "
            f"raise node_cap or shrink the budget"
        )


class ConsistencyError(AffsatError, RuntimeError):
    """Two routes that must agree did not; signals a bug, not bad input."""
