"""Exact weight-lattice arithmetic for the affine Kac-Moody algebra of type
A_{n-1}^(1).

Weights are stored in root-lattice coordinates: a pair (w, c) of integer
vectors of length n meaning

    mu = sum_i w_i * Lambda_i  -  sum_i c_i * alpha_i,

with Lambda_i the fundamental weights and alpha_i the simple roots, indices
taken mod n.  The Cartan matrix C of the cyclic quiver acts as the cyclic
second difference (C s)_i = 2 s_i - s_{i-1} - s_{i+1}, so every pairing is
<mu, h_i> = w_i - (C c)_i and nothing here needs a general linear solver.

This representation keeps the dictionary with quiver dimension vectors
(w, v) exact and avoids rational delta coefficients.  The null root
delta = sum_i alpha_i corresponds to c = (1, ..., 1) applied with negative
sign, and the degree grading is normalized so that deg(lambda) = 0, i.e.
delta_degree(mu) = c_0.

All integers are Python ints, so arithmetic is unbounded by construction.
Everything here is a pure function on immutable values and is safe to call
from any number of threads.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, product
from math import prod
from operator import index as as_int

from .errors import (BoxCapError, DomainError, IncomparableWeightsError, NoHighestWeightError,
                     RankError)

# Pins the signature and tensor conventions; cached graphs are only reused
# when this matches, so changing a convention invalidates old caches.
CONVENTION_ID = "rowscan-ar-cancel.tensor-concat.charges-asc.v1"

DEFAULT_NODE_CAP = 5_000_000

_set = object.__setattr__


def canonical_dumps(obj) -> str:
    """The canonical JSON text of obj: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_rank(n: int) -> int:
    if not isinstance(n, int) or n < 2:
        raise RankError(f"rank must be an integer >= 2, got {n!r}")
    return n


def cartan_apply(s: Sequence[int]) -> tuple[int, ...]:
    """C s for the Cartan matrix C of type A_{n-1}^(1), n = len(s): the cyclic
    second difference (2 s_i - s_{i-1} - s_{i+1})_i, indices mod n.

    For n = 2 both neighbours of a node are the other node, which gives
    a_01 = a_10 = -2.
    """
    n = len(s)
    return tuple([2 * s[i] - s[i - 1] - s[(i + 1) % n] for i in range(n)])


@lru_cache(maxsize=None)
def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of type A_{n-1}^(1): cartan_apply on the unit vectors
    (C is symmetric, so its columns are its rows)."""
    check_rank(n)
    return tuple(cartan_apply([int(i == j) for j in range(n)]) for i in range(n))


class Frozen:
    """Base of the immutable value classes (Weight, fock.ChargedPartition).

    A subclass lists its fields in __slots__, in constructor order; its
    __init__ stores each with object.__setattr__ and then calls
    self.__post_init__(), which validates and normalizes.  Assignment and
    deletion raise AttributeError afterwards.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self.__slots__])


class Weight(Frozen):
    """Affine weight sum_i w_i Lambda_i - sum_i c_i alpha_i, indices in Z/n.

    Equal only to a Weight with the same (n, w, c), and hashed as that triple.
    """

    __slots__ = ("n", "w", "c")

    def __init__(self, n: int, w: Sequence[int], c: Sequence[int]):
        _set(self, "n", n)
        _set(self, "w", w)
        _set(self, "c", c)
        self.__post_init__()

    def __post_init__(self):
        n = check_rank(self.n)
        w = tuple(map(as_int, self.w))
        c = tuple(map(as_int, self.c))
        _set(self, "w", w)
        _set(self, "c", c)
        if len(w) != n or len(c) != n:
            raise DomainError(f"w and c must have length n={n}, got {len(w)} and {len(c)}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.w == other.w and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.w, self.c))

    @property
    def level(self) -> int:
        return sum(self.w)

    @property
    def delta_degree(self) -> int:
        """Degree below the w-base, normalized so a weight with c = 0 has degree 0."""
        return self.c[0]

    def pairing(self, i: int) -> int:
        return self.pairings()[i % self.n]

    def pairings(self) -> tuple[int, ...]:
        """(<mu, h_i>)_i = w - C c."""
        return tuple([w - x for w, x in zip(self.w, cartan_apply(self.c))])

    def is_dominant(self) -> bool:
        return all(p >= 0 for p in self.pairings())

    def minus_alpha(self, i: int, k: int = 1) -> "Weight":
        c = list(self.c)
        c[i % self.n] += k
        return Weight(self.n, self.w, tuple(c))

    def plus_alpha(self, i: int, k: int = 1) -> "Weight":
        return self.minus_alpha(i, -k)

    def lowered(self, u: Sequence[int]) -> "Weight":
        """self - sum_i u_i alpha_i."""
        return Weight(self.n, self.w, tuple([a + b for a, b in zip(self.c, u)]))

    def __add__(self, other: "Weight") -> "Weight":
        if self.n != other.n:
            raise DomainError("cannot add weights of different rank")
        return Weight(
            self.n,
            tuple(a + b for a, b in zip(self.w, other.w)),
            tuple(a + b for a, b in zip(self.c, other.c)),
        )

    def to_json(self) -> dict:
        return {"n": self.n, "w": list(self.w), "c": list(self.c)}

    @classmethod
    def from_json(cls, obj: dict) -> "Weight":
        """Weight from {"n": int, "w": [int, ...], "c": [int, ...]}; booleans,
        floats and strings are rejected rather than coerced."""
        try:
            n, w, c = obj["n"], obj["w"], obj["c"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed weight JSON: {obj!r}") from exc
        if type(n) is int and type(w) is list and type(c) is list:
            for x in w + c:
                if type(x) is not int:
                    break
            else:
                return cls(n, tuple(w), tuple(c))
        raise DomainError(f"malformed weight JSON: {obj!r}: n and the entries of "
                          f"the lists w and c must be integers")

    def __repr__(self):
        return f"Weight(n={self.n}, w={list(self.w)}, c={list(self.c)})"


def fundamental_weight(n: int, i: int) -> Weight:
    check_rank(n)
    w = [0] * n
    w[i % n] = 1
    return Weight(n, tuple(w), (0,) * n)


def simple_root(n: int, i: int) -> Weight:
    check_rank(n)
    c = [0] * n
    c[i % n] = -1
    return Weight(n, (0,) * n, tuple(c))


def delta(n: int) -> Weight:
    """Null root delta = sum_i alpha_i (level 0, pairs to 0 with every h_i)."""
    check_rank(n)
    return Weight(n, (0,) * n, (-1,) * n)


def rho(n: int) -> Weight:
    """Sum of fundamental weights; <rho, h_i> = 1 for all i."""
    check_rank(n)
    return Weight(n, (1,) * n, (0,) * n)


def weights_from_dims(n: int, w: Sequence[int], v: Sequence[int]) -> tuple[Weight, Weight]:
    """Translate framing/gauge dimension vectors into (lambda, mu).

    lambda = sum w_i Lambda_i and mu = lambda - sum v_i alpha_i.
    """
    check_rank(n)
    w = tuple(as_int(x) for x in w)
    v = tuple(as_int(x) for x in v)
    if len(w) != n or len(v) != n:
        raise DomainError(f"dimension vectors must have length n={n}")
    if any(x < 0 for x in w) or any(x < 0 for x in v):
        raise DomainError("dimension vectors must be componentwise nonnegative")
    lam = Weight(n, w, (0,) * n)
    highest_pairings(lam)
    mu = Weight(n, w, v)
    return lam, mu


def dims_from_weights(lam: Weight, mu: Weight) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of weights_from_dims: read (w, v) back off a weight pair."""
    if lam.n != mu.n or lam.w != mu.w:
        raise DomainError("lambda and mu must share the same rank and w-part")
    v = tuple(cm - cl for cm, cl in zip(mu.c, lam.c))
    if any(x < 0 for x in v) or any(x < 0 for x in lam.w):
        raise DomainError("negative entries: pair is not in the image of weights_from_dims")
    return lam.w, v


def weight_invariants(mu: Weight) -> dict:
    """Level, delta-degree and all coroot pairings of a weight."""
    return {
        "level": mu.level,
        "delta_degree": mu.delta_degree,
        "pairings": mu.pairings(),
    }


def is_dominant(mu: Weight) -> bool:
    return mu.is_dominant()


def highest_pairings(lam: Weight) -> tuple[int, ...]:
    """The pairings of lam, once lam is checked as a highest weight: dominant
    and of level >= 1, as sum w_i Lambda_i is for every nonzero framing w.
    The only check of lambda; every entry point that takes one calls it.
    Raises DomainError for a negative pairing, NoHighestWeightError at level 0.
    """
    p = lam.pairings()
    if min(p) < 0:
        raise DomainError(f"highest weight must be dominant: {lam!r} has pairings {p}")
    if lam.level < 1:
        raise NoHighestWeightError(f"highest weight must have level >= 1: {lam!r}")
    return p


def _solve_base_shift(n: int, d: Sequence[int]) -> tuple[int, ...] | None:
    """Solve C s = d with s_0 = 0 over the integers, or None.

    This answers whether sum_i d_i Lambda_i equals an integer combination of
    simple roots (the s_0 = 0 condition matches the delta coefficient).  With
    t_i = s_i - s_{i-1}, (C s)_i = t_i - t_{i+1}, so t_k = t_0 - D_k for the
    prefix sums D_k = d_0 + ... + d_{k-1}; the cycle closes iff sum d = 0, and
    sum t = 0 fixes n t_0 = sum_k D_k.  The solution is unique when it exists
    because ker C = Z*(1,...,1).
    """
    prefix = list(accumulate(d, initial=0))  # D_0, ..., D_n = sum d
    t0, rem = divmod(sum(prefix[:-1]), n)
    if prefix[-1] or rem:
        return None
    return tuple(accumulate([t0 - x for x in prefix[1:-1]], initial=0))


def lowering_vector(lam: Weight, mu: Weight) -> tuple[int, ...] | None:
    """Coefficients u with mu = lam - sum_i u_i alpha_i, or None.

    None means lam - mu is not in the root lattice (no dominance comparison
    is possible).  Entries may be negative; callers decide what that means.
    """
    if lam.n != mu.n:
        raise DomainError("weights must have the same rank")
    n = lam.n
    if lam.w == mu.w:
        return tuple(cm - cl for cm, cl in zip(mu.c, lam.c))
    d = tuple(wm - wl for wl, wm in zip(lam.w, mu.w))
    s = _solve_base_shift(n, d)
    if s is None:
        return None
    # mu - lam = d.Lambda - (c(mu)-c(lam)).alpha and d.Lambda = s.alpha.
    return tuple(cm - cl - si for cm, cl, si in zip(mu.c, lam.c, s))


def box_points(box: Sequence[int]):
    """The points 0 <= c <= box in itertools.product order: the one walk of a
    box, refused before its first point with BoxCapError when there are more
    than DEFAULT_NODE_CAP of them (none when an entry is negative)."""
    count = prod(max(x + 1, 0) for x in box)
    if count > DEFAULT_NODE_CAP:
        raise BoxCapError(DEFAULT_NODE_CAP, box, count)
    return product(*[range(b + 1) for b in box])


def box_strides(box: Sequence[int]) -> tuple[int, ...]:
    """The offset of a unit step at each node in a walk over 0 <= c <= box in
    itertools.product order: point k of the walk is sum_i c_i * strides_i."""
    strides = [1] * len(box)
    for i in range(len(box) - 1, 0, -1):
        strides[i - 1] = strides[i] * (box[i] + 1)
    return tuple(strides)


def box_pairings(p: Sequence[int], box: Sequence[int]):
    """(c, pairings of lam - c.alpha) for every 0 <= c <= box, in
    itertools.product order, where p are the pairings of lam: the one walk of
    a box that reads the dominance of its points, counted on this call."""
    n = len(p)
    nodes = range(n)
    # <lam - c.alpha, h_i> = p_i - (C c)_i; c[i + 1 - n] is c_{i+1} mod n
    return ((c, [p[i] - 2 * c[i] + c[i - 1] + c[i + 1 - n] for i in nodes])
            for c in box_points(box))


def dominance_leq(nu: Weight, mu: Weight) -> bool:
    """True iff mu - nu is a nonnegative integer combination of simple roots."""
    u = lowering_vector(mu, nu)
    if u is None:
        raise IncomparableWeightsError(
            f"{nu!r} and {mu!r} do not differ by a root-lattice element"
        )
    return all(x >= 0 for x in u)


def _reflect_to_dominant(p: list[int], c: list[int], floor: int | None = None) -> bool:
    """Apply simple reflections to the weight with pairings p and lowering
    coefficients c, in place, at a negative pairing until none is left.

    s_i mu = mu - <mu, h_i> alpha_i adds p_i to c_i, negates p_i and adds p_i
    to the pairings at both neighbours of i (twice to the one neighbour when
    n = 2).  Each step raises the weight, so c only decreases; with a floor
    the loop stops, returning False, as soon as some c_i drops below it.
    """
    n = len(p)
    while True:
        x = min(p)
        if x >= 0:
            return True
        i = p.index(x)
        c[i] += x
        if floor is not None and c[i] < floor:
            return False
        p[i] = -x
        p[i - 1] += x
        p[(i + 1) % n] += x


def weyl_orbit_lowerings(p: Sequence[int], budget: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(d, epsilon(w)) for each w(nu) = nu - d.alpha with d <= budget in the
    Weyl orbit of the regular dominant nu with pairings p (all >= 1).

    A breadth-first walk that only lowers: s_i lowers w(nu) where
    <w(nu), h_i> > 0, and then length(s_i w) = length(w) + 1, so level k
    holds the points of length k and epsilon alternates by level.  d only
    grows, so the budget cut loses no point inside it.  The step copies
    _reflect_to_dominant's: a shared call per step slows dominant_lowering.
    """
    n = len(p)
    level = {(0,) * n: list(p)}
    out = [((0,) * n, 1)]
    while level:
        below = {}
        for d, q in level.items():
            for i, x in enumerate(q):
                if x > 0 and d[i] + x <= budget[i]:
                    q2 = list(q)
                    q2[i] = -x
                    q2[i - 1] += x
                    q2[(i + 1) % n] += x
                    below.setdefault(d[:i] + (d[i] + x,) + d[i + 1 :], q2)
        out += [(d, -out[-1][1]) for d in below]
        level = below
    return out


def dominant_representative(mu: Weight) -> Weight:
    """The unique dominant weight in the affine Weyl group orbit of mu.

    At positive level every orbit meets the dominant chamber exactly once
    (Kac, Infinite-Dimensional Lie Algebras, §3.12), and reflecting at
    negative pairings reaches it after finitely many steps.  The w-part of mu
    is kept.
    """
    if mu.level < 1:
        raise DomainError(f"dominant representative needs positive level, got {mu.level}")
    c = list(mu.c)
    _reflect_to_dominant(list(mu.pairings()), c)
    return Weight(mu.n, mu.w, tuple(c))


def dominant_lowering(plam: Sequence[int], u: Sequence[int]) -> tuple[int, ...] | None:
    """Lowering vector, from a dominant lam with pairings plam, of the
    dominant representative nu of mu = lam - sum_i u_i alpha_i; None when nu
    is not <= lam.

    Reflections only raise mu, so the first negative coefficient already
    answers None, after at most sum(u) reflections; a dominant mu takes none.
    """
    if min(u) < 0:
        return None
    p = [a - b for a, b in zip(plam, cartan_apply(u))]
    c = list(u)
    return tuple(c) if _reflect_to_dominant(p, c, 0) else None


def is_weight_of(lam: Weight, mu: Weight) -> bool:
    """True iff mu is a weight of the irreducible module L(lam).

    For dominant lam of positive level these are exactly the weights whose
    dominant representative is <= lam (Kac, Ch. 11-12, with the W-invariance
    of multiplicities of §3.7), so this is a lattice test with no crystal
    graph.
    """
    plam = highest_pairings(lam)
    u = lowering_vector(lam, mu)
    return u is not None and dominant_lowering(plam, u) is not None
