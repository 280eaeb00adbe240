"""Weight multiplicities via the Freudenthal recursion: the route mult, fixed,
branch and tensor answer by, independent of the crystal engine that `check`
and tier-1 hold it to.  With the invariant form normalized so that
(alpha_i, alpha_i) = 2, (nu, sum e_i alpha_i) = sum e_i <nu, h_i>, so

    (|lam+rho|^2 - |nu+rho|^2) mult(nu) = 2 sum_{alpha > 0} mult(alpha) T(alpha),
    T(alpha) = sum_{k >= 1} (nu + k alpha, alpha) mult(nu + k alpha)

runs entirely over Python ints.  Positive roots of A_{n-1}^(1) are the finite
type-A roots shifted by multiples of the null root delta (multiplicity 1)
together with the imaginary roots k delta (multiplicity n - 1, (alpha, alpha)
= 0).

Multiplicities are invariant under the affine Weyl group W (Kac,
Infinite-Dimensional Lie Algebras, §3.7), and at positive level every
W-orbit meets the dominant chamber exactly once (§3.12).  So a query at mu
is answered at its dominant representative nu (cartan.dominant_lowering):
zero when nu is not below lambda, and otherwise the recursion at nu, each of
whose terms mult(nu + k alpha) is reduced the same way.

At a dominant nu the sum runs once per orbit of the stabilizer W_J, J = {j :
<nu, h_j> = 0}, finite as J is a proper subset of the diagram (Moody-Patera,
Bull. AMS 7, 1982).  W_J fixes nu and permutes the positive roots off the
finite subsystem Delta_J, so T is constant on their orbits; for beta in
Delta_J+, (nu, beta) = 0 and the sl2 string give T(-beta) = T(beta), so the
Delta_J+ part is half the sum over the W_J-orbits of Delta_J.  Each orbit has
one J-dominant member alpha, with orbit size |O| = |W_J| / |W_J'|, J' the
nodes of J with <alpha, h_j> = 0.  So only J-dominant roots are summed,
weighted 2 mult(alpha) |O| off Delta_J and |O| on it, and the factor 2 is
gone.  lambda must be dominant of level >= 1 (cartan.highest_pairings,
checked when lambda first reaches the memo), else NoHighestWeightError.

Every query is one lookup by lowering vector, multiplicity_at(lam, u) at
mu = lam - u.alpha, u being the memo's own key, so callers that hold u build
no Weight.  A caller that needs every point of a box 0 <= c <= b asks
box_multiplicities(lam, b) for one flat list in itertools.product order, or
BoxCapError before the first point when there are more than
DEFAULT_NODE_CAP: a dominant point is one lookup, and any other copies the
entry of its reflection s_i mu at a negative pairing, which lies earlier in
the same walk, so no point of the box runs a reflection loop.  Results are
memoized per (pairings of lambda, dominant nu) for the life of the process,
reductions only per evaluation: one table per module, which every
delta-shifted label lambda - s delta shares, as mult(lambda - u.alpha) reads
lambda only through its pairings.  The recursion at a dominant
lam - nu.alpha stores lam - nu.alpha + k delta for every k <= min(nu) (the
imaginary-root terms pair to the level, which is positive), so a miss with
min(nu) >= DEFAULT_NODE_CAP raises RecursionCapError before any work.
Every entry is a deterministic function of its key, so concurrent callers
can at worst compute one twice, and results do not depend on call order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cache, partial
from itertools import chain

from .cartan import (
    DEFAULT_NODE_CAP,
    Weight,
    box_pairings,
    box_strides,
    cartan_apply,
    check_rank,
    dominant_lowering,
    highest_pairings,
    lowering_vector,
)
from .errors import ConsistencyError, DomainError, RecursionCapError


# A positive root sum_i coeffs_i alpha_i with its root multiplicity.
PositiveRoot = namedtuple("PositiveRoot", "coeffs multiplicity")


def positive_roots(n: int, degree_bound: int) -> tuple[PositiveRoot, ...]:
    """All positive roots with alpha_0 coefficient at most degree_bound, by
    increasing coefficient, so each bound's answer is a prefix of the next's.

    Complete within that window: finite positive roots (coefficient 0), real
    roots (finite root plus k delta, k = 1..bound) and imaginary roots k delta
    with multiplicity n - 1.
    """
    check_rank(n)
    if degree_bound < 0:
        raise DomainError("degree_bound must be nonnegative")
    finite = [(0,) * i + (1,) * (j - i) + (0,) * (n - j) for i in range(1, n) for j in range(i + 1, n + 1)]
    roots = [PositiveRoot(x, 1) for x in finite]
    for k in range(1, degree_bound + 1):
        roots.append(PositiveRoot((k,) * n, n - 1))
        roots += [PositiveRoot(tuple(k + s * a for a in x), 1) for x in finite for s in (1, -1)]
    return tuple(roots)


# One table per module: mult(lam - nu.alpha) depends on lam only through its
# pairings, as L(lam - s delta) is L(lam) shifted by -s delta, so _modules maps
# the pairings to (pairings, multiplicity of each dominant nu keyed by its
# lowering vector), and _memo maps each label lam already seen to its
# module's entry, which every delta-shifted label shares.  Both are kept for
# the life of the process, so later queries at any such lam are lookups.
_Entry = tuple[tuple[int, ...], dict[tuple[int, ...], int]]
_modules: dict[tuple[int, ...], _Entry] = {}
_memo: dict[Weight, _Entry] = {}


def _weyl_order(n: int, J) -> int:
    """|W_J| for a proper subset J of the n-cycle: the product of (m+1)! over
    its arcs of m nodes, as the factor r+1 at the r-th node of each arc."""
    start = next(i for i in range(n) if i not in J)
    order, run = 1, 0
    for i in range(start + 1, start + n):
        run = run + 1 if i % n in J else 0
        order *= run + 1
    return order


@cache
def _orbit_roots(n: int, J: frozenset, k: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The J-dominant positive roots of degree k, one per W_J-orbit, as
    (coeffs, weight, (alpha, alpha)): weight |O| on Delta_J (support in J), else
    2 mult(alpha) |O|, for |O| = |W_J| / |W_J'| with W_J' the stabilizer of alpha.
    Only these are built, from end nodes outside J: x = alpha_i + ... + alpha_{j-1}
    pairs negatively with h_{i-1} and h_{j mod n}, positively with h_i and h_{j-1},
    and to 0 with the rest, so k delta + x is J-dominant iff i - 1 and j mod n
    lie outside J, k delta - x iff i and j - 1 do, and k delta always is."""
    K = [m for m in range(n) if m not in J]
    roots = [((k,) * n, n - 1)] if k else []
    roots += [((k,) * i + (k + s,) * (j - i) + (k,) * (n - j), 1) for a in K for b in K
              for s, i, j in ((1, a + 1, b or n), (-1, a, b + 1)) if 0 < i < j and k + s >= 0]
    order = _weyl_order(n, J)
    out = []
    for e, multiplicity in roots:
        ce = cartan_apply(e)
        size = order // _weyl_order(n, {j for j in J if not ce[j]})
        in_j = all(i in J for i, x in enumerate(e) if x)
        out.append((e, size if in_j else 2 * multiplicity * size, 2 if any(ce) else 0))
    return tuple(out)


def _terms(plam: tuple[int, ...], u: tuple[int, ...], tables, reduced) -> list[tuple[int, tuple[int, ...]]]:
    """The nonzero terms of the orbit sum at the dominant nu = lam - u.alpha, as
    (coefficient, lowering vector of the dominant representative of nu + k alpha).
    tables(J) lists _orbit_roots(n, J, k) by degree k (those with k <= u_0 can
    contribute); reduced is dominant_lowering(plam, .) memoized per evaluation.
    """
    p = [x - y for x, y in zip(plam, cartan_apply(u))]  # <nu, h_i>
    terms = []
    J = frozenset([j for j, x in enumerate(p) if not x])
    for e, weight, norm in chain.from_iterable(tables(J)[: u[0] + 1]):
        # (nu + k alpha, alpha) = (nu, alpha) + k (alpha, alpha) with (nu, alpha)
        # = sum_i e_i <nu, h_i>, for each k that keeps u - k e >= 0
        pairing = sum([x * y for x, y in zip(e, p)])
        for k in range(1, min([x // y for x, y in zip(u, e) if y]) + 1):
            pairing += norm
            if pairing:
                v = reduced(tuple([x - k * y for x, y in zip(u, e)]))
                if v is not None:
                    terms.append((weight * pairing, v))
    return terms


def _solve(plam: tuple[int, ...], u: tuple[int, ...], terms, memo) -> int:
    # |lam+rho|^2 - |mu+rho|^2 = 2 sum u_j (<lam,h_j> + 1) - u^T C u
    au = cartan_apply(u)
    denom = 2 * sum(uj * (pj + 1) for uj, pj in zip(u, plam)) - sum(ui * aui for ui, aui in zip(u, au))
    rhs = sum(coef * memo[v] for coef, v in terms)
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
    first finishes with no cycle and no interpreter recursion limit.  Each
    entry's terms are built once, from the root tables of degree <= top_0
    (every u pushed is <= top), and dropped once the entry is solved.
    """
    stack = [top]
    pending: dict[tuple[int, ...], list] = {}
    tables = cache(lambda J: [_orbit_roots(len(top), J, k) for k in range(top[0] + 1)])
    reduced = cache(partial(dominant_lowering, plam))
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        terms = pending.get(u)
        if terms is None:
            terms = pending[u] = _terms(plam, u, tables, reduced)
            missing = [v for _, v in terms if v not in memo]
            if missing:
                stack.extend(missing)
                continue
        memo[u] = _solve(plam, u, pending.pop(u), memo)
        stack.pop()
    return memo[top]


def _entry(lam: Weight) -> _Entry:
    """lam's module entry (its pairings and their memo), lam checked on its
    first use and the entry made on the first use of its pairings."""
    entry = _memo.get(lam)
    if entry is None:
        plam = highest_pairings(lam)
        entry = _memo[lam] = _modules.setdefault(plam, (plam, {(0,) * lam.n: 1}))
    return entry


def _check_length(plam: tuple[int, ...], u: Sequence[int]) -> None:
    if len(u) != len(plam):
        raise DomainError(f"expected {len(plam)} lowering coefficients, got {len(u)}")


def multiplicity_at(lam: Weight, u: tuple[int, ...] | None) -> int:
    """Multiplicity of lam - sum_i u_i alpha_i in the highest-weight module
    for lambda: the one memo lookup every query makes.

    Zero when u is None (off the root lattice) or when the dominant
    representative lam - nu.alpha of that weight is not below lambda.  lam
    must be dominant of level >= 1, checked on the first lookup of each
    label, even when a delta-shift of it already filled its module.  A u
    whose length is not lam's rank raises DomainError, checked only once
    the first memo lookup misses (every key has that length).  A memo
    miss at nu with min(nu) >= DEFAULT_NODE_CAP raises RecursionCapError.
    """
    plam, memo = _entry(lam)
    if u is None:
        return 0
    m = memo.get(u)  # the memo holds only dominant weights: a hit needs no reduction
    if m is not None:
        return m
    _check_length(plam, u)
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


def box_multiplicities(lam: Weight, box: Sequence[int]) -> list[int]:
    """multiplicity_at(lam, c) for every 0 <= c <= box, as one flat list in
    itertools.product order (cartan.box_pairings), entry k at point k.

    A dominant point is one memo lookup.  At a point mu with a negative
    pairing x at node i, s_i mu = mu - x.alpha_i has the same multiplicity
    and lowering coefficient c_i + x < c_i, so it is the entry x * stride_i
    back, already written; 0 when c_i + x < 0, as s_i mu is then not below
    lam.  So no point runs a reflection loop.  A box whose length is not
    lam's rank raises DomainError.
    """
    plam, memo = _entry(lam)
    _check_length(plam, box)
    strides = box_strides(box)
    out: list[int] = []
    for c, q in box_pairings(plam, box):
        x = min(q)
        if x >= 0:
            m = memo.get(c)
            out.append(multiplicity_at(lam, c) if m is None else m)
        else:
            i = q.index(x)
            out.append(out[len(out) + x * strides[i]] if c[i] + x >= 0 else 0)
    return out
