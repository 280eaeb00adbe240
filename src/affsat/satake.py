"""Fixed-point predicates, attracting-set component counts, symplectic-leaf
stratum labels and tensor fixed-point splittings for the affine type-A
dictionary between weight data and gauge-theory dimension vectors.

Every operation here is a thin combinatorial layer over the multiplicity
queries of affsat.crystal, which answer by Freudenthal with no graph:
a fixed point exists iff the weight space is nonzero, attracting components
are counted by the weight multiplicity, leaves are labelled by a dominant
weight kappa between mu and lambda - |k| delta together with a partition k,
and tensor fixed points are the weight splittings with nonzero factors.
The dominant kappa are read off one walk of the box with its pairings
(cartan.box_pairings, which, like freudenthal.box_multiplicities, refuses a
box of more than DEFAULT_NODE_CAP points with BoxCapError before its
first), and the strata over them are counted from partition numbers before
any is listed: more than DEFAULT_NODE_CAP raises StrataCapError.  Tier-1
holds these counts to crystal node counts.  Pure functions.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import crystal
from .cartan import DEFAULT_NODE_CAP, Weight, box_pairings, highest_pairings, lowering_vector
from .errors import StrataCapError


class Stratum(namedtuple("Stratum", "kappa k regular_locus_empty")):
    """Label (kappa, k) of one symplectic leaf.

    regular_locus_empty records the level-1 caveat: the regular locus of the
    leaf with kappa != mu is empty when the total framing dimension is 1.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa.to_json(),
            "k": list(self.k),
            "regular_locus_empty": self.regular_locus_empty,
        }


def _partitions(cells: int) -> list[tuple[int, ...]]:
    """Every partition with at most `cells` cells, the empty one included, as
    weakly decreasing tuples in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, largest: int):
        out.append(prefix)  # a prefix sorts first; its extensions follow by next part
        for p in range(1, min(remaining, largest) + 1):
            rec(prefix + (p,), remaining - p, p)

    rec((), cells, cells)
    return out


def fixed_point_count(lam: Weight, mu: Weight) -> int:
    """1 when mu is a weight of the module for lambda, else 0."""
    return 1 if crystal.weight_multiplicity(lam, mu) > 0 else 0


def attracting_component_count(lam: Weight, mu: Weight) -> int:
    """Number of attracting-set components over the fixed point: the weight
    multiplicity."""
    return crystal.weight_multiplicity(lam, mu)


def _kept_kappas(lam: Weight, mu: Weight, include_empty: bool):
    """(v, the c with dominant kappa = lam - c.alpha kept by enumerate_leaves,
    sorted by (height, c)); v is None and no c is kept when mu is not below
    lam.  A box 0 <= c <= v of more than DEFAULT_NODE_CAP points raises
    BoxCapError."""
    plam = highest_pairings(lam)
    v = lowering_vector(lam, mu)
    if v is None or any(x < 0 for x in v):
        return None, []
    level_one = lam.level == 1
    # the walk yields c in lexicographic order, so a stable sort by height
    # orders the kept c by (height, c)
    return v, sorted((c for c, q in box_pairings(plam, v)
                      if min(q) >= 0 and (include_empty or not level_one or c == v)), key=sum)


def _strata_count(kept) -> int:
    """The number of strata over the kept c: the sum of P(min c), P(m) the
    number of partitions with at most m cells, a running sum of partition
    numbers p(s) from Euler's pentagonal recurrence
    p(s) = sum_{j >= 1} (-1)^(j+1) (p(s - j(3j-1)/2) + p(s - j(3j+1)/2))."""
    p = [1]
    for s in range(1, max(map(min, kept), default=0) + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= s:
            term = p[s - g] + (p[s - g - j] if g + j <= s else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
    totals = list(accumulate(p))
    return sum([totals[min(c)] for c in kept])


def count_leaves(lam: Weight, mu: Weight, include_empty: bool = False) -> int:
    """len(enumerate_leaves(lam, mu, include_empty)), counted without listing
    a stratum."""
    return _strata_count(_kept_kappas(lam, mu, include_empty)[1])


def enumerate_leaves(lam: Weight, mu: Weight, include_empty: bool = False) -> list[Stratum]:
    """All stratum labels (kappa, k) with mu <= kappa <= lambda - |k| delta.

    kappa runs over dominant weights lambda - sum c_i alpha_i with
    0 <= c <= v, and k over partitions with |k| <= min_i c_i.  Strata whose
    regular locus is empty (total framing dimension 1 and kappa != mu) are
    kept only when include_empty is set.  Sorted by height of lambda - kappa,
    then by the lowering vector, then by k.  Empty when mu is not below
    lambda (v = lambda - mu is off the root lattice or has a negative entry).
    A box 0 <= c <= v of more than DEFAULT_NODE_CAP points raises
    BoxCapError, and more than DEFAULT_NODE_CAP strata StrataCapError, both
    before the first stratum is built.
    """
    v, kept = _kept_kappas(lam, mu, include_empty)
    count = _strata_count(kept)
    if count > DEFAULT_NODE_CAP:
        raise StrataCapError(DEFAULT_NODE_CAP, v, count)
    # per m = min(c): the partitions of at most m cells, in lexicographic order
    within = {m: _partitions(m) for m in set(map(min, kept))}
    level_one = lam.level == 1
    return [Stratum(kappa, k, level_one and c != v)
            for c, kappa in zip(kept, map(lam.lowered, kept)) for k in within[min(c)]]


def tensor_fixed_points(lam1: Weight, lam2: Weight, mu: Weight) -> list[tuple[Weight, Weight]]:
    """Splittings mu = mu1 + mu2 with both factor multiplicities nonzero.

    Nonempty exactly when mu is a weight of the tensor product.  Sorted by
    the lowering vector of mu1.
    """
    return [(lam1.lowered(s), lam2.lowered(rest))
            for s, rest, _, _ in crystal.tensor_splittings(lam1, lam2, mu)]


# One row of the rank-1 multiplicity table at stratum weight kappa'.
BranchRow = namedtuple("BranchRow", "k kappa_prime pairing multiplicity")


def sheaf_multiplicity_table(lam: Weight, mu: Weight, i: int) -> list[BranchRow]:
    """Levi branching of (lam, mu) at node i, rows labelled by
    kappa' = mu + k alpha_i with the rank-1 weight <kappa', h_i>.

    Tables at mu and mu - alpha_i agree at common kappa' (the same sl2
    highest-weight vectors); that stability is exercised by the test suite.
    """
    i %= lam.n
    table = crystal.levi_branching(lam, mu, i)
    rows = []
    for k in sorted(table):
        kappa_prime = mu.plus_alpha(i, k)
        rows.append(BranchRow(k, kappa_prime, kappa_prime.pairing(i), table[k]))
    return rows
