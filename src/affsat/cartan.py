"""Exact weight-lattice arithmetic for the affine Kac-Moody algebra of type
A_{n-1}^(1).

Weights are stored in root-lattice coordinates: a pair (w, c) of integer
vectors of length n meaning

    mu = sum_i w_i * Lambda_i  -  sum_i c_i * alpha_i,

with Lambda_i the fundamental weights and alpha_i the simple roots, indices
taken mod n.  This representation keeps the dictionary with quiver dimension
vectors (w, v) exact and avoids rational delta coefficients.  The null root
delta = sum_i alpha_i corresponds to c = (1, ..., 1) applied with negative
sign, and the degree grading is normalized so that deg(lambda) = 0, i.e.
delta_degree(mu) = c_0.

All integers are Python ints, so arithmetic is unbounded by construction.
Everything here is a pure function on immutable values and is safe to call
from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index as as_int
from typing import Optional, Sequence

from .errors import DomainError, IncomparableWeightsError, NoHighestWeightError, RankError


def check_rank(n: int) -> int:
    if not isinstance(n, int) or n < 2:
        raise RankError(f"rank must be an integer >= 2, got {n!r}")
    return n


@lru_cache(maxsize=None)
def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of type A_{n-1}^(1): cyclic adjacency, rows summing to 0.

    For n = 2 the two nodes are doubly linked (a_01 = a_10 = -2).
    """
    check_rank(n)
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 2
        if n == 2:
            row[1 - i] = -2
        else:
            row[(i - 1) % n] -= 1
            row[(i + 1) % n] -= 1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class Weight:
    """Affine weight sum_i w_i Lambda_i - sum_i c_i alpha_i, indices in Z/n."""

    n: int
    w: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        check_rank(self.n)
        object.__setattr__(self, "w", tuple(as_int(x) for x in self.w))
        object.__setattr__(self, "c", tuple(as_int(x) for x in self.c))
        if len(self.w) != self.n or len(self.c) != self.n:
            raise DomainError(
                f"w and c must have length n={self.n}, got {len(self.w)} and {len(self.c)}"
            )

    @property
    def level(self) -> int:
        return sum(self.w)

    @property
    def delta_degree(self) -> int:
        """Degree below the w-base, normalized so a weight with c = 0 has degree 0."""
        return self.c[0]

    def pairing(self, i: int) -> int:
        """<mu, h_i> = w_i - sum_j a_ij c_j."""
        a = cartan_matrix(self.n)
        i %= self.n
        return self.w[i] - sum(a[i][j] * self.c[j] for j in range(self.n))

    def pairings(self) -> tuple[int, ...]:
        return tuple(self.pairing(i) for i in range(self.n))

    def is_dominant(self) -> bool:
        return all(p >= 0 for p in self.pairings())

    def minus_alpha(self, i: int, k: int = 1) -> "Weight":
        c = list(self.c)
        c[i % self.n] += k
        return Weight(self.n, self.w, tuple(c))

    def plus_alpha(self, i: int, k: int = 1) -> "Weight":
        return self.minus_alpha(i, -k)

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
    if all(x == 0 for x in w):
        raise NoHighestWeightError("w = 0 gives no highest weight")
    lam = Weight(n, w, (0,) * n)
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


def _solve_base_shift(n: int, d: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve A s = d with s_0 = 0 over the integers, or None.

    This answers whether sum_i d_i Lambda_i equals an integer combination of
    simple roots (the s_0 = 0 condition matches the delta coefficient).  The
    solution is unique when it exists because ker A = Z*(1,...,1).
    """
    a = cartan_matrix(n)
    # Gaussian elimination over Q on the n x (n-1) system in s_1..s_{n-1}.
    rows = [[Fraction(a[i][j]) for j in range(1, n)] + [Fraction(d[i])] for i in range(n)]
    ncols = n - 1
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        pr = next((r for r in range(pivot_row, n) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(n):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = rows[r][ncols]
    # Rows without pivots must have zero RHS, else the system is inconsistent.
    for r in range(pivot_row, n):
        if rows[r][ncols] != 0:
            return None
    # Verify (catches free columns) and check integrality.
    for i in range(n):
        if sum(a[i][j + 1] * sol[j] for j in range(ncols)) != d[i]:
            return None
    if any(x.denominator != 1 for x in sol):
        return None
    return (0,) + tuple(int(x) for x in sol)


def lowering_vector(lam: Weight, mu: Weight) -> Optional[tuple[int, ...]]:
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


def dominance_leq(nu: Weight, mu: Weight) -> bool:
    """True iff mu - nu is a nonnegative integer combination of simple roots."""
    u = lowering_vector(mu, nu)
    if u is None:
        raise IncomparableWeightsError(
            f"{nu!r} and {mu!r} do not differ by a root-lattice element"
        )
    return all(x >= 0 for x in u)
