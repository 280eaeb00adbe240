"""Weight multiplicities via the Freudenthal recursion: the route mult, fixed,
branch and tensor answer by, independent of the crystal engine that `check`
and tier-1 hold it to.

Everything reduces to Cartan pairings: with the invariant form normalized so
that (alpha_i, alpha_i) = 2, any pairing (nu, sum e_i alpha_i) equals
sum e_i <nu, h_i>, so the recursion

    (|lam+rho|^2 - |mu+rho|^2) mult(mu)
        = 2 sum_{alpha > 0} mult(alpha) sum_{k >= 1} (mu + k alpha, alpha) mult(mu + k alpha)

runs entirely over Python ints.  Positive roots of A_{n-1}^(1) are the finite
type-A roots shifted by multiples of the null root delta (multiplicity 1)
together with the imaginary roots k delta (multiplicity n - 1), so
(alpha, alpha) is read off the root: 0 when its coefficients are all equal
(k delta) and 2 otherwise.  They are kept in one table per degree (alpha_0
coefficient), so the roots retained grow linearly with the deepest query.

Multiplicities are invariant under the affine Weyl group W (Kac,
Infinite-Dimensional Lie Algebras, §3.7), and at positive level every
W-orbit meets the dominant chamber exactly once (§3.12).  So a query at mu
is answered at its dominant representative nu (cartan.dominant_lowering):
zero when nu is not below lambda, and otherwise the recursion at nu, each of
whose terms mult(nu + k alpha) is reduced the same way (Moody-Patera, Bull.
AMS 7, 1982).  The recursion is evaluated with an explicit stack, never by
Python recursion, so its depth is not bounded by the interpreter.

The §3.12 reduction holds only at positive level, so lambda must be
dominant of level >= 1 (cartan.highest_pairings, checked when lambda first
reaches the memo); a level-0 lambda raises NoHighestWeightError.

Every query is one lookup by lowering vector, multiplicity_at(lam, u) at
mu = lam - u.alpha, u being the memo's own key, so callers that hold u build
no Weight.  Results are memoized per (lambda, dominant nu) for the life of
the process, reductions only per evaluation.  The recursion at a dominant
lam - nu.alpha stores lam - nu.alpha + k delta for every k <= min(nu) (the
imaginary-root terms pair to the level, which is positive), so a miss with
min(nu) >= DEFAULT_NODE_CAP raises RecursionCapError before any work.
Every entry is a deterministic function of its key, so concurrent callers
can at worst compute one twice, and results do not depend on call order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from itertools import chain

from .cartan import (
    DEFAULT_NODE_CAP,
    Weight,
    cartan_apply,
    check_rank,
    dominant_lowering,
    highest_pairings,
    lowering_vector,
)
from .errors import ConsistencyError, DomainError, RecursionCapError


# A positive root sum_i coeffs_i alpha_i with its root multiplicity.
PositiveRoot = namedtuple("PositiveRoot", "coeffs multiplicity")


@cache
def _roots_of_degree(n: int, k: int) -> tuple[PositiveRoot, ...]:
    """The positive roots with alpha_0 coefficient k: the finite roots x at
    k = 0; otherwise k delta, of multiplicity n - 1, then k delta +- x."""
    if k == 0:
        return tuple(PositiveRoot((0,) * i + (1,) * (j - i) + (0,) * (n - j), 1)
                     for i in range(1, n) for j in range(i + 1, n + 1))
    return (PositiveRoot((k,) * n, n - 1), *(PositiveRoot(tuple(k + s * a for a in x), 1)
                                             for x, _ in _roots_of_degree(n, 0) for s in (1, -1)))


def positive_roots(n: int, degree_bound: int) -> tuple[PositiveRoot, ...]:
    """All positive roots with alpha_0 coefficient at most degree_bound, by
    increasing coefficient, so each bound's answer is a prefix of the next's.

    Complete within that window: finite positive roots (coefficient 0), real
    roots (finite root plus k delta, k = 1..bound) and imaginary roots k delta
    with multiplicity n - 1.  The roots kept grow linearly with the bound.
    """
    check_rank(n)
    if degree_bound < 0:
        raise DomainError("degree_bound must be nonnegative")
    return tuple(chain.from_iterable(_roots_of_degree(n, k) for k in range(degree_bound + 1)))


# Per dominant highest weight lam: its pairings, and the multiplicity of each
# dominant nu <= lam keyed by its lowering vector.  Kept for the life of the
# process, so later queries at the same lam are lookups.
_memo: dict[Weight, tuple[tuple[int, ...], dict[tuple[int, ...], int]]] = {}


def _terms(plam: tuple[int, ...], u: tuple[int, ...], roots, reduced) -> list[tuple[int, tuple[int, ...]]]:
    """The nonzero terms of the Freudenthal sum at mu = lam - u.alpha, as
    (coefficient, lowering vector of the dominant representative of mu + k alpha).

    roots[k] is the root table of degree k <= u_0, and reduced(u2) is
    dominant_lowering(plam, u2) memoized for one evaluation.  Terms with
    coefficient zero, or whose mu + k alpha is not a weight of L(lam), are left out.
    """
    p = [x - y for x, y in zip(plam, cartan_apply(u))]  # <mu, h_i>
    terms = []
    for root in chain.from_iterable(roots[: u[0] + 1]):
        e = root.coeffs
        # (mu + k alpha, alpha) = (mu, alpha) + k (alpha, alpha) with (mu, alpha)
        # = sum_i e_i <mu, h_i>, for each k that keeps u - k e >= 0
        pairing = sum([x * y for x, y in zip(e, p)])
        norm = 0 if min(e) == max(e) else 2
        for k in range(1, min([x // y for x, y in zip(u, e) if y]) + 1):
            pairing += norm
            if pairing:
                v = reduced(tuple([x - k * y for x, y in zip(u, e)]))
                if v is not None:
                    terms.append((root.multiplicity * pairing, v))
    return terms


def _solve(plam: tuple[int, ...], u: tuple[int, ...], terms, memo) -> int:
    # |lam+rho|^2 - |mu+rho|^2 = 2 sum u_j (<lam,h_j> + 1) - u^T C u
    au = cartan_apply(u)
    denom = 2 * sum(uj * (pj + 1) for uj, pj in zip(u, plam)) - sum(ui * aui for ui, aui in zip(u, au))
    rhs = 2 * sum(coef * memo[v] for coef, v in terms)
    # nu = lam - u.alpha is dominant and u >= 0 is nonzero, so the denominator
    # sum_j u_j (<lam,h_j> + <nu,h_j> + 2) is positive
    if denom <= 0 or rhs % denom:
        raise ConsistencyError(f"Freudenthal sum {rhs} not a multiple of the positive "
                               f"denominator {denom} at u={u}")
    return rhs // denom


def _evaluate(plam: tuple[int, ...], top: tuple[int, ...], memo: dict) -> int:
    """Multiplicity at the dominant lam - top.alpha, filling memo on the way.

    Every term of the sum at a dominant nu reduces to a dominant weight
    strictly above nu, so an explicit stack that pushes the missing ones
    first finishes with no cycle; each entry's terms are built once.
    """
    stack = [top]
    pending: dict[tuple[int, ...], list] = {}
    roots = [_roots_of_degree(len(top), k) for k in range(top[0] + 1)]  # each u pushed is <= top
    reduced = cache(partial(dominant_lowering, plam))
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        terms = pending.get(u)
        if terms is None:
            terms = pending[u] = _terms(plam, u, roots, reduced)
            missing = [v for _, v in terms if v not in memo]
            if missing:
                stack.extend(missing)
                continue
        memo[u] = _solve(plam, u, terms, memo)
        stack.pop()
    return memo[top]


def multiplicity_at(lam: Weight, u: tuple[int, ...] | None) -> int:
    """Multiplicity of lam - sum_i u_i alpha_i in the highest-weight module
    for lambda: the one memo lookup every query makes.

    Zero when u is None (off the root lattice) or when the dominant
    representative lam - nu.alpha of that weight is not below lambda.  lam
    must be dominant of level >= 1, checked on its first lookup.  A memo
    miss at nu with min(nu) >= DEFAULT_NODE_CAP raises RecursionCapError.
    """
    entry = _memo.get(lam)
    if entry is None:
        entry = _memo.setdefault(lam, (highest_pairings(lam), {(0,) * lam.n: 1}))
    plam, memo = entry
    if u is None:
        return 0
    m = memo.get(u)  # the memo holds only dominant weights: a hit needs no reduction
    if m is not None:
        return m
    nu = dominant_lowering(plam, u)
    if nu is None:
        return 0
    m = memo.get(nu)
    if m is not None:
        return m
    if min(nu) >= DEFAULT_NODE_CAP:
        raise RecursionCapError(DEFAULT_NODE_CAP, nu, min(nu) + 1)
    return _evaluate(plam, nu, memo)


def freudenthal_multiplicity(lam: Weight, mu: Weight) -> int:
    """Multiplicity of mu in the highest-weight module for lambda: the
    lookup at mu's lowering vector (multiplicity_at), so zero when the
    dominant representative of mu is not below lambda (cartan.is_weight_of).
    lam must be dominant of level >= 1.
    """
    return multiplicity_at(lam, lowering_vector(lam, mu))
