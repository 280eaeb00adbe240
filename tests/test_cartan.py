import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsat import (
    DomainError,
    IncomparableWeightsError,
    NoHighestWeightError,
    RankError,
    Weight,
    cartan_matrix,
    delta,
    dims_from_weights,
    dominance_leq,
    dominant_representative,
    fundamental_weight,
    generate_crystal,
    is_dominant,
    is_weight_of,
    lowering_vector,
    rho,
    simple_root,
    weight_invariants,
    weights_from_dims,
)
from affsat.cartan import (DEFAULT_NODE_CAP, _solve_base_shift, box_pairings, box_points,
                           box_strides, cartan_apply, weyl_orbit_lowerings)
from affsat.errors import BoxCapError
from affsat.freudenthal import positive_roots

from conftest import dominant_bases, lowered


def test_cartan_matrix_n3():
    assert cartan_matrix(3) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_cartan_matrix_n2():
    assert cartan_matrix(2) == ((2, -2), (-2, 2))


def test_cartan_matrix_n4_row0():
    assert cartan_matrix(4)[0] == (2, -1, 0, -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_cartan_matrix_rows_sum_to_zero(n):
    for row in cartan_matrix(n):
        assert sum(row) == 0
        assert row.count(2) >= 1


def test_rank_error():
    with pytest.raises(RankError):
        cartan_matrix(1)
    with pytest.raises(RankError):
        Weight(1, (1,), (0,))


def test_weights_from_dims_tensor_example():
    lam, mu = weights_from_dims(3, (0, 1, 1), (0, 1, 1))
    assert lam == Weight(3, (0, 1, 1), (0, 0, 0))
    assert mu == Weight(3, (0, 1, 1), (0, 1, 1))
    assert is_dominant(lam)


def test_weights_from_dims_trivial():
    lam, mu = weights_from_dims(2, (1, 0), (0, 0))
    assert lam == mu == fundamental_weight(2, 0)


def test_weights_from_dims_delta():
    lam, mu = weights_from_dims(2, (2, 0), (1, 1))
    assert lam.level == 2
    assert mu.delta_degree == 1
    assert mu.pairings() == lam.pairings()  # c = (1,1) is a full delta


def test_weights_from_dims_errors():
    with pytest.raises(DomainError):
        weights_from_dims(2, (1, -1), (0, 0))
    with pytest.raises(NoHighestWeightError):
        weights_from_dims(2, (0, 0), (1, 0))
    with pytest.raises(DomainError):
        weights_from_dims(3, (1, 0), (0, 0, 0))


def test_dims_from_weights_roundtrip():
    lam, mu = weights_from_dims(3, (1, 0, 2), (2, 0, 5))
    assert dims_from_weights(lam, mu) == ((1, 0, 2), (2, 0, 5))
    with pytest.raises(DomainError, match="same rank and w-part"):
        dims_from_weights(lam, Weight(3, (0, 1, 2), mu.c))
    with pytest.raises(DomainError, match="negative entries"):
        dims_from_weights(mu, lam)


def test_weight_invariants_examples():
    inv = weight_invariants(Weight(2, (1, 0), (1, 0)))
    assert inv == {"level": 1, "delta_degree": 1, "pairings": (-1, 2)}
    inv = weight_invariants(Weight(2, (1, 0), (1, 1)))
    assert inv == {"level": 1, "delta_degree": 1, "pairings": (1, 0)}
    lam = Weight(3, (2, 0, 1), (0, 0, 0))
    assert weight_invariants(lam)["pairings"] == (2, 0, 1)
    assert weight_invariants(lam)["delta_degree"] == 0


def test_is_dominant_examples():
    assert is_dominant(fundamental_weight(2, 0))
    assert not is_dominant(Weight(2, (1, 0), (1, 0)))
    assert is_dominant(Weight(2, (1, 0), (1, 1)))  # Lambda_0 - delta


def test_delta_pairs_to_zero():
    for n in (2, 3, 4):
        assert delta(n).pairings() == (0,) * n
        assert delta(n).level == 0


def test_rho_pairings():
    assert rho(3).pairings() == (1, 1, 1)


def test_level_invariant_under_lowering():
    mu = Weight(3, (1, 1, 0), (4, 1, 2))
    assert mu.level == 2
    assert mu.minus_alpha(2).level == 2


@given(
    n=st.integers(2, 5),
    w=st.lists(st.integers(-3, 3), min_size=2, max_size=5),
    c=st.lists(st.integers(-3, 3), min_size=2, max_size=5),
    i=st.integers(0, 4),
    j=st.integers(0, 4),
)
def test_cartan_linearity(n, w, c, i, j):
    w = (w * n)[:n]
    c = (c * n)[:n]
    mu = Weight(n, tuple(w), tuple(c))
    a = cartan_matrix(n)
    i %= n
    j %= n
    assert mu.plus_alpha(j).pairing(i) == mu.pairing(i) + a[i][j]
    assert mu.minus_alpha(j).pairing(i) == mu.pairing(i) - a[i][j]


def test_dominance_reflexive():
    mu = Weight(2, (1, 0), (3, 1))
    assert dominance_leq(mu, mu)


def test_dominance_delta_example():
    lam = fundamental_weight(2, 0)
    assert dominance_leq(lowered(lam, (1, 1)), lam)
    assert not dominance_leq(lam, lowered(lam, (1, 1)))


def test_dominance_incomparable_lowerings():
    lam = fundamental_weight(2, 0)
    a = lowered(lam, (1, 0))
    b = lowered(lam, (0, 1))
    assert not dominance_leq(a, b)
    assert not dominance_leq(b, a)


def test_dominance_antisymmetry_transitivity():
    lam = fundamental_weight(3, 1)
    chain = [lowered(lam, (0, 0, 0)), lowered(lam, (0, 1, 0)), lowered(lam, (1, 1, 2))]
    assert dominance_leq(chain[2], chain[1]) and dominance_leq(chain[1], chain[0])
    assert dominance_leq(chain[2], chain[0])
    assert not (dominance_leq(chain[0], chain[1]) and dominance_leq(chain[1], chain[0]))


def test_dominance_across_bases():
    # -Lambda_0 + 2 Lambda_1 - alpha_1 is Lambda_0 written against another base.
    nu = fundamental_weight(2, 0)
    mu = Weight(2, (-1, 2), (0, 1))
    assert dominance_leq(nu, mu) and dominance_leq(mu, nu)
    assert lowering_vector(mu, nu) == (0, 0)


def test_dominance_incomparable_bases():
    nu = fundamental_weight(2, 0)
    mu = fundamental_weight(2, 1)
    with pytest.raises(IncomparableWeightsError):
        dominance_leq(nu, mu)


def test_lowering_vector_same_base():
    lam = fundamental_weight(3, 0)
    assert lowering_vector(lam, lowered(lam, (2, 0, 1))) == (2, 0, 1)


def test_lowering_vector_across_ranks():
    with pytest.raises(DomainError, match="same rank"):
        lowering_vector(fundamental_weight(3, 0), fundamental_weight(2, 0))


def test_weight_json_roundtrip():
    mu = Weight(3, (0, 1, 1), (0, 2, 1))
    obj = json.loads(json.dumps(mu.to_json()))
    assert obj == {"n": 3, "w": [0, 1, 1], "c": [0, 2, 1]}
    assert Weight.from_json(obj) == mu


def test_weight_is_an_immutable_value():
    mu = Weight(3, [1, 1, 0], iter((2, 1, 0)))
    assert (mu.n, mu.w, mu.c) == (3, (1, 1, 0), (2, 1, 0))
    for field in ("n", "w", "c", "other"):
        with pytest.raises(AttributeError):
            setattr(mu, field, 0)
        with pytest.raises(AttributeError):
            delattr(mu, field)
    assert (mu.n, mu.w, mu.c) == (3, (1, 1, 0), (2, 1, 0))
    same = Weight(3, (1, 1, 0), (2, 1, 0))
    assert mu == same and not mu != same and {mu: 1}[same] == 1
    assert mu != Weight(3, (1, 1, 0), (2, 1, 1)) and mu != Weight(3, (1, 1, 1), (2, 1, 0))
    # the frozen dataclass's equality and hash: the field triple, own class only
    assert hash(mu) == hash((3, (1, 1, 0), (2, 1, 0)))
    assert mu != (3, (1, 1, 0), (2, 1, 0)) and (3, (1, 1, 0), (2, 1, 0)) != mu
    assert repr(mu) == "Weight(n=3, w=[1, 1, 0], c=[2, 1, 0])"
    assert copy.copy(mu) == mu and pickle.loads(pickle.dumps(mu)) == mu


def test_weight_validates_once_per_construction(monkeypatch):
    calls = []
    post_init = Weight.__post_init__
    monkeypatch.setattr(Weight, "__post_init__", lambda self: calls.append(post_init(self)))
    Weight(2, (1, 0), (0, 0)).lowered((1, 1))
    assert len(calls) == 2
    with pytest.raises(RankError):
        Weight(1, (1,), (0,))
    with pytest.raises(DomainError):
        Weight(2, (1, 0), (0,))
    with pytest.raises(TypeError):
        Weight(2, (1.0, 0), (0, 0))


def test_simple_root_is_lowering_unit():
    for n in (2, 3):
        for i in range(n):
            assert simple_root(n, i).pairings() == tuple(cartan_matrix(n)[j][i] for j in range(n))


def _reference_base_shift(n, d):
    """C s = d with s_0 = 0 by Gaussian elimination over Q on the n x (n-1)
    system in s_1..s_{n-1}, or None when there is no integer solution."""
    a = cartan_matrix(n)
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_base_shift_matches_elimination_exhaustive(n):
    solvable = 0
    for d in itertools.product(range(-3, 4), repeat=n):
        want = _reference_base_shift(n, d)
        assert _solve_base_shift(n, d) == want, d
        solvable += want is not None
    assert solvable > 1


@pytest.mark.parametrize("n", [5, 6, 7])
def test_base_shift_matches_elimination_random(n):
    rng = random.Random(n)
    solvable = 0
    for _ in range(1000):
        d = [rng.randint(-6, 6) for _ in range(n)]
        if rng.random() < 0.5:
            d[-1] -= sum(d)  # sum d = 0: the divisibility condition decides
        want = _reference_base_shift(n, d)
        assert _solve_base_shift(n, tuple(d)) == want, d
        solvable += want is not None
    assert solvable > 10


vectors = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n))


@given(s=vectors)
def test_cartan_apply_is_matrix_product(s):
    a = cartan_matrix(len(s))
    assert cartan_apply(s) == tuple(sum(x * y for x, y in zip(row, s)) for row in a)


@given(s=vectors)
def test_base_shift_inverts_cartan_apply(s):
    s = (0,) + tuple(s[1:])
    assert _solve_base_shift(len(s), cartan_apply(s)) == s


@given(w=vectors, data=st.data())
def test_lowering_vector_inverts_lowered(w, data):
    n = len(w)
    lam = Weight(n, tuple(w), tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
    u = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    mu = lam.lowered(u)
    assert mu == lowered(lam, u)
    assert lowering_vector(lam, mu) == u
    # The same weight written against the base w + C s (s_0 = 0) reaches
    # lowering_vector's solver path.
    s = (0,) + tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)))
    rebased = Weight(n, tuple(a + b for a, b in zip(mu.w, cartan_apply(s))),
                     tuple(a + b for a, b in zip(mu.c, s)))
    assert lowering_vector(lam, rebased) == u


positive_level_weights = st.integers(2, 5).flatmap(lambda n: st.builds(
    lambda w, c: Weight(n, tuple(w), tuple(c)),
    st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
    st.lists(st.integers(-20, 20), min_size=n, max_size=n)))


@given(mu=positive_level_weights)
def test_dominant_representative_properties(mu):
    nu = dominant_representative(mu)
    assert nu.is_dominant()
    assert dominant_representative(nu) == nu
    assert nu.w == mu.w and dominance_leq(mu, nu)
    for i in range(mu.n):  # one representative per orbit
        assert dominant_representative(mu.minus_alpha(i, mu.pairing(i))) == nu


def test_dominant_representative_examples():
    lam = fundamental_weight(2, 0)
    # At level 1, Lambda_0 - c.alpha is conjugate to Lambda_0 - d delta with
    # d = c_0 - (c_0 - c_1)^2.
    assert dominant_representative(lowered(lam, (1, 0))) == lam  # s_0 Lambda_0
    assert dominant_representative(lowered(lam, (2, 1))) == lowered(lam, (1, 1))
    assert dominant_representative(lowered(lam, (4, 2))) == lam
    assert dominant_representative(lowered(lam, (0, 2000))) == lowered(lam, (-4000000,) * 2)
    with pytest.raises(DomainError):
        dominant_representative(delta(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_weight_of_matches_crystal(n):
    for lam in dominant_bases(n, 2):
        counts = generate_crystal(lam, (3,) * n).weight_counts()
        for u in itertools.product(range(-1, 4), repeat=n):
            assert is_weight_of(lam, lowered(lam, u)) == (counts.get(u, 0) > 0), (lam, u)


def test_is_weight_of_examples():
    lam = fundamental_weight(3, 0)
    assert is_weight_of(lam, lam)
    assert not is_weight_of(lam, fundamental_weight(3, 1))  # other root-lattice class
    assert not is_weight_of(lam, lowered(lam, (0, 0, 2000)))
    for bad in (Weight(2, (1, 0), (1, 0)), Weight(2, (0, 0), (0, 0))):
        with pytest.raises(DomainError):
            is_weight_of(bad, bad)


@pytest.mark.parametrize("budget", [
    (6, 6), (6, 2), (0, 5),
    (5, 5, 5), (6, 2, 4), (3, 0, 3),
    (4, 4, 4, 4), (6, 3, 5, 2),
])
def test_weyl_orbit_walk_is_the_denominator(budget):
    # Weyl-Kac denominator identity, truncated at the budget:
    # sum_w epsilon(w) e^{-d_w} = prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha},
    # with w(rho) = rho - d_w; it pins the signs and the d_w <= budget cut
    n = len(budget)
    product = {(0,) * n: 1}
    for root in positive_roots(n, budget[0]):
        if any(e > b for e, b in zip(root.coeffs, budget)):
            continue
        for _ in range(root.multiplicity):
            for d, coef in list(product.items()):
                d2 = tuple(a + e for a, e in zip(d, root.coeffs))
                if all(x <= b for x, b in zip(d2, budget)):
                    product[d2] = product.get(d2, 0) - coef
    expected = {d: coef for d, coef in product.items() if coef}
    walk = weyl_orbit_lowerings((1,) * n, budget)
    assert len({d for d, _ in walk}) == len(walk)
    assert dict(walk) == expected


@pytest.mark.parametrize("p,box", [
    ((1, 0), (4, 3)), ((0, 2), (0, 5)),
    ((1, 1, 0), (2, 3, 1)), ((0, 0, 3), (3, 0, 2)),
    ((1, 0, 0, 2), (2, 1, 2, 1)), ((1, 1, 1, 0, 0), (1, 2, 1, 1, 2)),
])
def test_box_pairings_walk_the_box_in_product_order(p, box):
    # the point k of the walk is at sum_i c_i * strides_i
    walk = list(box_pairings(p, box))
    assert [c for c, _ in walk] == list(itertools.product(*(range(b + 1) for b in box)))
    for k, (c, q) in enumerate(walk):
        assert q == [a - b for a, b in zip(p, cartan_apply(c))], c
        assert sum(x * s for x, s in zip(c, box_strides(box))) == k
    assert list(box_pairings(p, (1, -1) + (0,) * (len(p) - 2))) == []


def test_box_points_refuse_an_oversized_box_before_the_first_point():
    assert list(box_points((2, 1))) == list(itertools.product(range(3), range(2)))
    assert list(box_points((3, -1))) == []
    assert next(box_points((DEFAULT_NODE_CAP - 1,))) == (0,)  # exactly the cap
    # the count is taken when the walk is asked for, not when it starts
    for walk in (lambda: box_points((DEFAULT_NODE_CAP, 0)),
                 lambda: box_pairings((1, 0), (DEFAULT_NODE_CAP, 0))):
        with pytest.raises(BoxCapError) as info:
            walk()
        assert info.value.count == DEFAULT_NODE_CAP + 1
