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

    message = ("crystal generation exceeded the node cap of {cap} nodes "
               "(budget {budget} produced at least {count}); "
               "raise node_cap or shrink the budget")

    def __init__(self, cap: int, budget, count: int):
        self.cap = cap
        self.budget = tuple(budget)
        self.count = count
        try:
            shown = str(count)
        except ValueError:  # past the interpreter's limit on int-to-str conversion
            shown = f"at least 2^{count.bit_length() - 1}"
        super().__init__(self.message.format(cap=cap, budget=self.budget, count=shown))


class RecursionCapError(ResourceCapError):
    """A Freudenthal recursion would store more weights than the node cap;
    budget is the lowering vector it would start from."""

    message = ("Freudenthal recursion at lowering vector {budget} would store at least "
               "{count} weights, over the node cap of {cap}")


class BoxCapError(ResourceCapError):
    """A walk over the lowering vectors 0 <= c <= budget would visit more
    points than the node cap."""

    message = "walking the box {budget} would visit {count} points, over the node cap of {cap}"


class GraphCapError(ResourceCapError):
    """A crystal graph, counted exactly before it is built, would have more
    nodes than the node cap."""

    message = "the graph of budget {budget} has {count} nodes, over the node cap of {cap}"


class LevelCapError(ResourceCapError):
    """A highest-weight word, one factor per unit of level, would be longer
    than the default node cap; count is the level."""

    message = ("the highest-weight word of level {count} would have more factors "
               "than the node cap of {cap}")


class StrataCapError(ResourceCapError):
    """Listing the symplectic-leaf strata below a box would give more labels
    than the node cap; budget is the box."""

    message = ("listing the strata of the box {budget} would give {count} labels, "
               "over the node cap of {cap}")


class ConsistencyError(AffsatError, RuntimeError):
    """Two routes that must agree did not; signals a bug, not bad input."""
