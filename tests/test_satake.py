import random
from itertools import product

import pytest

from affsat import (
    DomainError,
    Stratum,
    Weight,
    attracting_component_count,
    dominance_leq,
    enumerate_leaves,
    fixed_point_count,
    fundamental_weight,
    lowering_vector,
    sheaf_multiplicity_table,
    tensor_fixed_points,
    tensor_weight_multiplicity,
)
from affsat import satake
from affsat.cartan import cartan_apply, highest_pairings
from affsat.errors import StrataCapError

from conftest import coloured_partitions, dominant_bases, graph_multiplicity, lowered


def test_fixed_point_examples():
    lam = fundamental_weight(2, 0)
    assert fixed_point_count(lam, lam) == 1
    assert fixed_point_count(lam, lowered(lam, (0, 1))) == 0
    assert fixed_point_count(lam, lowered(lam, (1, 1))) == 1


def test_attracting_examples():
    lam = fundamental_weight(2, 0)
    assert attracting_component_count(lam, lam) == 1
    assert attracting_component_count(lam, lowered(lam, (2, 2))) == 2
    adj = Weight(3, (0, 1, 1), (0, 0, 0))
    assert attracting_component_count(adj, lowered(adj, (0, 1, 1))) == 2


def test_dichotomy_random():
    rng = random.Random(213)
    for _ in range(60):
        n = rng.choice((2, 3))
        lam = rng.choice(dominant_bases(n, 2))
        mu = lowered(lam, tuple(rng.randint(0, 3) for _ in range(n)))
        fpc = fixed_point_count(lam, mu)
        assert fpc in (0, 1)
        assert fpc == (attracting_component_count(lam, mu) > 0)
        assert attracting_component_count(lam, mu) == graph_multiplicity(lam, mu)


def test_leaves_mu_equals_lambda():
    for lam in (fundamental_weight(2, 0), Weight(3, (1, 0, 1), (0, 0, 0))):
        strata = enumerate_leaves(lam, lam)
        assert len(strata) == 1
        assert strata[0].kappa == lam and strata[0].k == ()


def test_leaves_basic_example():
    lam = fundamental_weight(2, 0)
    mu = lowered(lam, (1, 1))
    filtered = enumerate_leaves(lam, mu, include_empty=False)
    assert [(s.kappa.c, s.k) for s in filtered] == [((1, 1), ()), ((1, 1), (1,))]
    everything = enumerate_leaves(lam, mu, include_empty=True)
    assert [(s.kappa.c, s.k, s.regular_locus_empty) for s in everything] == [
        ((0, 0), (), True),
        ((1, 1), (), False),
        ((1, 1), (1,), False),
    ]


def test_leaves_sorted_and_distinct():
    lam = Weight(2, (2, 0), (0, 0))
    mu = lowered(lam, (2, 2))
    strata = enumerate_leaves(lam, mu, include_empty=True)
    labels = [(s.kappa.c, s.k) for s in strata]
    assert len(labels) == len(set(labels))
    heights = [sum(s.kappa.c) for s in strata]
    assert heights == sorted(heights)


def test_leaves_properties_random():
    rng = random.Random(407)
    for _ in range(40):
        n = rng.choice((2, 3))
        lam = rng.choice(dominant_bases(n, 3))
        v = tuple(rng.randint(0, 3) for _ in range(n))
        mu = lowered(lam, v)
        strata = enumerate_leaves(lam, mu, include_empty=True)
        for s in strata:
            assert s.kappa.is_dominant()
            assert dominance_leq(mu, s.kappa)
            top = Weight(n, lam.w, tuple(x + sum(s.k) for x in lam.c))  # lambda - |k| delta
            assert dominance_leq(s.kappa, top)
            c = tuple(a - b for a, b in zip(s.kappa.c, lam.c))
            assert sum(s.k) <= min(c)
            assert s.regular_locus_empty == (lam.level == 1 and s.kappa != mu)
        if mu.is_dominant():
            assert any(s.kappa == mu and s.k == () for s in strata)


def test_leaves_monotone_in_v():
    lam = Weight(2, (1, 1), (0, 0))
    small = {(s.kappa, s.k) for s in enumerate_leaves(lam, lowered(lam, (1, 1)), include_empty=True)}
    large = {(s.kappa, s.k) for s in enumerate_leaves(lam, lowered(lam, (2, 2)), include_empty=True)}
    assert small <= large


def _reference_partitions_of(size):
    out = []

    def rec(prefix, remaining, largest):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(remaining, largest), 0, -1):
            rec(prefix + (p,), remaining - p, p)

    rec((), size, size)
    return sorted(out)


def _reference_leaves(lam, mu, include_empty):
    """Every stratum of the box, then one sort by (height, c, k): the list
    enumerate_leaves must reproduce, in order."""
    plam = highest_pairings(lam)
    v = lowering_vector(lam, mu)
    if v is None or any(x < 0 for x in v):
        return []
    level_one = lam.level == 1
    strata = []
    for c in product(*(range(x + 1) for x in v)):
        if min([a - b for a, b in zip(plam, cartan_apply(c))]) < 0:
            continue
        empty_flag = level_one and c != v
        if empty_flag and not include_empty:
            continue
        kappa = lam.lowered(c)
        for size in range(min(c) + 1):
            for k in _reference_partitions_of(size):
                strata.append((sum(c), c, k, Stratum(kappa, k, empty_flag)))
    strata.sort(key=lambda item: item[:3])
    return [item[3] for item in strata]


@pytest.mark.parametrize("n, top", [(2, 4), (3, 4), (4, 2)])
def test_leaves_match_the_sorted_reference(n, top):
    for lam in dominant_bases(n, 3):
        for v in product(range(top + 1), repeat=n):
            mu = lowered(lam, v)
            everything = _reference_leaves(lam, mu, include_empty=True)
            assert enumerate_leaves(lam, mu, include_empty=True) == everything, (lam, v)
            # the reference filters while it enumerates, before its sort
            kept = [s for s in everything if not s.regular_locus_empty]
            assert enumerate_leaves(lam, mu) == kept, (lam, v)
            # and the count, taken before any stratum is listed
            assert satake.count_leaves(lam, mu, include_empty=True) == len(everything), (lam, v)
            assert satake.count_leaves(lam, mu) == len(kept), (lam, v)


def test_leaf_count_at_the_reference_depths():
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    assert [satake.count_leaves(lam, lowered(lam, (d,) * 3)) for d in (10, 20, 30, 50)] == [
        707, 19_246, 247_329, 14_390_273]


def test_too_many_strata_refused_before_partitions(monkeypatch):
    def never(cells):
        raise AssertionError("partitions built over the cap")

    monkeypatch.setattr(satake, "_partitions", never)
    monkeypatch.setattr(satake, "DEFAULT_NODE_CAP", 706)
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    with pytest.raises(StrataCapError) as info:
        enumerate_leaves(lam, lowered(lam, (10, 10, 10)))
    assert (info.value.cap, info.value.budget, info.value.count) == (706, (10, 10, 10), 707)


def test_partitions_built_only_up_to_a_kept_kappa(monkeypatch):
    sizes = []
    original = satake._partitions

    def recorder(cells):
        sizes.append(cells)
        return original(cells)

    monkeypatch.setattr(satake, "_partitions", recorder)
    lam = fundamental_weight(2, 0)
    # Lambda_0 - 40 alpha_0 - 39 alpha_1 is not dominant, and at level 1 no
    # kappa strictly above it is kept: no partition is needed
    assert enumerate_leaves(lam, lowered(lam, (40, 39))) == []
    assert sizes == []
    strata = enumerate_leaves(lam, lowered(lam, (6, 6)))
    assert len(strata) == sum(coloured_partitions(1, s) for s in range(7))
    assert sizes == [6]


def test_leaves_validation():
    lam = fundamental_weight(2, 0)
    assert enumerate_leaves(lam, lowered(lam, (-1, 0))) == []
    with pytest.raises(DomainError):
        enumerate_leaves(Weight(2, (1, 0), (1, 0)), lam)


def test_tensor_fixed_points_examples():
    l1, l2 = fundamental_weight(3, 1), fundamental_weight(3, 2)
    base = l1 + l2
    assert tensor_fixed_points(l1, l2, base) == [(l1, l2)]
    assert len(tensor_fixed_points(l1, l2, lowered(base, (0, 1, 1)))) == 3
    t = fundamental_weight(2, 0)
    assert tensor_fixed_points(t, t, lowered(t + t, (0, 1))) == []


def test_tensor_fixed_points_count_matches_nonzero_terms():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.choice((2, 3))
        l1 = rng.choice(dominant_bases(n, 1))
        l2 = rng.choice(dominant_bases(n, 1))
        u = tuple(rng.randint(0, 2) for _ in range(n))
        mu = lowered(l1 + l2, u)
        pts = tensor_fixed_points(l1, l2, mu)
        nonzero = 0
        for s in product(*(range(x + 1) for x in u)):
            rest = tuple(a - b for a, b in zip(u, s))
            if (
                graph_multiplicity(l1, lowered(l1, s)) > 0
                and graph_multiplicity(l2, lowered(l2, rest)) > 0
            ):
                nonzero += 1
        assert len(pts) == nonzero
        assert (len(pts) > 0) == (tensor_weight_multiplicity(l1, l2, mu) > 0)
        for mu1, mu2 in pts:
            assert mu1 + mu2 == mu


def test_sheaf_table_trivial():
    lam = fundamental_weight(2, 0)
    for i in range(2):
        rows = sheaf_multiplicity_table(lam, lam, i)
        assert len(rows) == 1
        assert rows[0].k == 0
        assert rows[0].kappa_prime == lam
        assert rows[0].pairing == lam.pairing(i)
        assert rows[0].multiplicity == 1


def test_sheaf_table_two_rows():
    lam = fundamental_weight(2, 0)
    mu = lowered(lam, (2, 2))
    rows = sheaf_multiplicity_table(lam, mu, 1)
    assert [(r.k, r.kappa_prime.c, r.multiplicity) for r in rows] == [
        (0, (2, 2), 1),
        (1, (2, 1), 1),
    ]


def test_sheaf_table_stability():
    lam = fundamental_weight(2, 0)
    mu = lowered(lam, (2, 2))
    rows_mu = {r.kappa_prime: r.multiplicity for r in sheaf_multiplicity_table(lam, mu, 1)}
    rows_lo = {
        r.kappa_prime: r.multiplicity
        for r in sheaf_multiplicity_table(lam, mu.minus_alpha(1), 1)
    }
    for kappa_prime in set(rows_mu) & set(rows_lo):
        assert rows_mu[kappa_prime] == rows_lo[kappa_prime]
    assert lowered(lam, (2, 1)) in rows_mu and lowered(lam, (2, 1)) in rows_lo


def test_sheaf_table_pairing_bound():
    # every row is dominant for the rank-1 subalgebra; when mu itself has a
    # nonnegative pairing the row weight also dominates its string height
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice((2, 3))
        lam = rng.choice(dominant_bases(n, 2))
        mu = lowered(lam, tuple(rng.randint(0, 3) for _ in range(n)))
        for i in range(n):
            for row in sheaf_multiplicity_table(lam, mu, i):
                assert row.pairing >= 0
                if mu.pairing(i) >= 0:
                    assert row.pairing >= row.k >= 0
