"""Weight multiplicities via the Freudenthal recursion, as an oracle
independent of the crystal engine.

Everything reduces to Cartan pairings: with the invariant form normalized so
that (alpha_i, alpha_i) = 2, any pairing (nu, sum e_i alpha_i) equals
sum e_i <nu, h_i>, so the recursion

    (|lam+rho|^2 - |mu+rho|^2) mult(mu)
        = 2 sum_{alpha > 0} mult(alpha) sum_{k >= 1} (mu + k alpha, alpha) mult(mu + k alpha)

runs entirely over Python ints.  Positive roots of A_{n-1}^(1) are the finite
type-A roots shifted by multiples of the null root delta (multiplicity 1)
together with the imaginary roots k delta (multiplicity n - 1).

Results are memoized per (lambda, lowering vector); the memo table is a
functools cache, so concurrent readers are safe and results do not depend on
call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartan import Weight, cartan_apply, check_rank, lowering_vector
from .errors import ConsistencyError, DomainError


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root sum_i coeffs_i alpha_i with its root multiplicity."""

    coeffs: tuple[int, ...]
    multiplicity: int


@lru_cache(maxsize=None)
def positive_roots(n: int, degree_bound: int) -> tuple[PositiveRoot, ...]:
    """All positive roots with alpha_0 coefficient at most degree_bound.

    Complete within that window: finite positive roots (coefficient 0), real
    roots (finite root plus k delta, k = 1..bound) and imaginary roots
    k delta with multiplicity n - 1.
    """
    check_rank(n)
    if degree_bound < 0:
        raise DomainError("degree_bound must be nonnegative")
    finite = []
    for i in range(1, n):
        for j in range(i, n):
            e = [0] * n
            for l in range(i, j + 1):
                e[l] = 1
            finite.append(tuple(e))
    roots = [PositiveRoot(e, 1) for e in finite]
    for k in range(1, degree_bound + 1):
        kdelta = (k,) * n
        roots.append(PositiveRoot(kdelta, n - 1))
        for e in finite:
            roots.append(PositiveRoot(tuple(k + x for x in e), 1))
            roots.append(PositiveRoot(tuple(k - x for x in e), 1))
    return tuple(sorted(roots, key=lambda r: (sum(r.coeffs), r.coeffs)))


@lru_cache(maxsize=None)
def _mult(lam: Weight, u: tuple[int, ...]) -> int:
    if all(x == 0 for x in u):
        return 1
    n = lam.n
    plam = lam.pairings()
    # |lam+rho|^2 - |mu+rho|^2 = 2 sum u_j (<lam,h_j> + 1) - u^T C u
    au = cartan_apply(u)
    denom = 2 * sum(uj * (pj + 1) for uj, pj in zip(u, plam)) - sum(ui * aui for ui, aui in zip(u, au))
    rhs = 0
    for root in positive_roots(n, u[0]):
        e = root.coeffs
        k = 1
        while True:
            u2 = tuple(x - k * y for x, y in zip(u, e))
            if any(x < 0 for x in u2):
                break
            m2 = _mult(lam, u2)
            if m2:
                # (lam - u2.alpha, e.alpha) = sum_i e_i (<lam, h_i> - (C u2)_i)
                pairing = sum([x * (p - y) for x, p, y in zip(e, plam, cartan_apply(u2))])
                rhs += root.multiplicity * m2 * pairing
            k += 1
    rhs *= 2
    if denom <= 0:
        # A genuine weight below lambda always has a positive denominator, so
        # this point is only reached off the weight system; the recursion must
        # then be telling us the multiplicity is zero.
        if rhs != 0:
            raise ConsistencyError(
                f"Freudenthal denominator {denom} <= 0 with nonzero numerator {rhs} at u={u}"
            )
        return 0
    if rhs % denom:
        raise ConsistencyError(f"Freudenthal sum {rhs} not divisible by {denom} at u={u}")
    return rhs // denom


def freudenthal_multiplicity(lam: Weight, mu: Weight) -> int:
    """Multiplicity of mu in the highest-weight module for lambda.

    Zero when lam - mu is not a nonnegative root-lattice element; one at
    mu = lam.
    """
    if not lam.is_dominant():
        raise DomainError(f"highest weight must be dominant: {lam!r}")
    u = lowering_vector(lam, mu)
    if u is None or any(x < 0 for x in u):
        return 0
    return _mult(lam, tuple(u))
