import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from affsat import (
    DEFAULT_NODE_CAP,
    ConsistencyError,
    DomainError,
    NoHighestWeightError,
    PositiveRoot,
    ResourceCapError,
    Weight,
    freudenthal_multiplicity,
    fundamental_weight,
    generate_crystal,
    lowering_vector,
    positive_roots,
)
from affsat import freudenthal
from affsat.cartan import cartan_apply
from affsat.errors import BoxCapError

from conftest import coloured_partitions, dominant_bases, full_root_freudenthal, lowered

ROOT = Path(__file__).resolve().parents[1]


def reflect(mu, i):
    """s_i mu = mu - <mu, h_i> alpha_i."""
    return mu.minus_alpha(i, mu.pairing(i))


def test_positive_roots_n2_bound0():
    assert {r.coeffs for r in positive_roots(2, 0)} == {(0, 1)}


def test_positive_roots_n2_bound1():
    roots = {r.coeffs: r.multiplicity for r in positive_roots(2, 1)}
    assert roots == {(0, 1): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1}


def test_positive_roots_n3_bound0():
    assert {r.coeffs for r in positive_roots(3, 0)} == {(0, 1, 0), (0, 0, 1), (0, 1, 1)}


def test_positive_roots_imaginary_multiplicity():
    for n in (2, 3, 4):
        roots = {r.coeffs: r.multiplicity for r in positive_roots(n, 2)}
        assert roots[(1,) * n] == n - 1
        assert roots[(2,) * n] == n - 1
        # real roots all have multiplicity one
        for coeffs, mult in roots.items():
            if len(set(coeffs)) > 1:
                assert mult == 1


def _roots_oracle(n, bound):
    """Positive roots with alpha_0 coefficient at most bound, with their
    multiplicities: every nonzero e >= 0 in the window whose norm e^T C e is
    0 (imaginary, multiplicity n - 1) or 2 (real, multiplicity 1), Kac
    Prop. 5.10.  A root of degree k has every coefficient in k-1..k+1."""
    out = {}
    for e in itertools.product(range(bound + 1), *[range(bound + 2)] * (n - 1)):
        norm = sum((2 * e[i] - e[i - 1] - e[(i + 1) % n]) * e[i] for i in range(n))
        if any(e) and norm in (0, 2):
            out[e] = 1 if norm else n - 1
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_positive_roots_match_the_norm_oracle(n):
    previous = ()
    for bound in range(6):
        roots = positive_roots(n, bound)
        assert len(roots) == len({r.coeffs for r in roots})
        assert {r.coeffs: r.multiplicity for r in roots} == _roots_oracle(n, bound), (n, bound)
        # by degree: each bound's roots extend the last bound's unchanged
        assert roots[: len(previous)] == previous, (n, bound)
        previous = roots


LARGE_RANK_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from affsat import freudenthal, fundamental_weight
calls, tables = [], freudenthal._orbit_roots
cartan_apply = freudenthal.cartan_apply
freudenthal.cartan_apply = lambda e: calls.append(e) or cartan_apply(e)
keys = set()

def recorder(n, J, k):
    keys.add((n, J, k))
    return tables(n, J, k)

freudenthal._orbit_roots = recorder
assert freudenthal.multiplicity_at(fundamental_weight(500, 0), (1,) * 500) == 499
print(len(calls), len(keys), sum(len(tables(*key)) for key in keys))
"""


def test_a_large_rank_lookup_builds_only_the_roots_it_sums():
    # Lambda_0 - delta at n = 500 has J = {1..499}: its sum reads the
    # J-dominant roots theta (degree 0), delta and delta + theta (degree 1).
    # A table of every root of those degrees would hold 374,251 roots and
    # pair each with the Cartan matrix; here each root read is paired once,
    # and the lookup pairs u itself twice.
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_RANK_SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls, tables, roots = map(int, proc.stdout.split())
    assert (tables, roots) == (2, 3)
    assert calls <= 5


ORBIT_TABLE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from affsat import freudenthal, fundamental_weight
tables = freudenthal._orbit_roots
keys = set()

def recorder(n, J, k):
    keys.add((n, J, k))
    return tables(n, J, k)

freudenthal._orbit_roots = recorder
for lam, d in [(fundamental_weight(2, 0), 160), (fundamental_weight(3, 0), 40)]:
    keys.clear()
    freudenthal.freudenthal_multiplicity(lam, lam.lowered((d,) * lam.n))
    print(sorted({tuple(sorted(J)) for _, J, _ in keys}), len(keys),
          sum(len(tables(*key)) for key in keys))
"""


def test_orbit_tables_grow_linearly_with_depth():
    # Every dominant Lambda_0 - d delta has J = {1..n-1}, so the recursion
    # keeps one table per degree 0..d, and W_J-orbit representatives only:
    # per degree k >= 1, k delta and one real root (at n = 2 k delta +
    # alpha_1, against the three roots of that degree), and at degree 0 one
    # finite root.
    proc = subprocess.run(
        [sys.executable, "-c", ORBIT_TABLE_SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"[(1,)] 161 {2 * 160 + 1}",
        f"[(1, 2)] 41 {2 * 40 + 1}",
    ]


def _orbit(x, J, reflect):
    """The orbit of x under the reflections reflect(., j), j in J."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for j in J:
            z = reflect(y, j)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _reflect_root(e, j):
    """s_j alpha = alpha - <alpha, h_j> alpha_j on a coefficient vector."""
    return e[:j] + (e[j] - cartan_apply(e)[j],) + e[j + 1 :]


def _reflect_pairings(p, j):
    """s_j on the pairings <mu, h_i> of a weight mu."""
    q = list(p)
    q[j] = -p[j]
    q[j - 1] += p[j]
    q[(j + 1) % len(p)] += p[j]
    return tuple(q)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_tables_match_explicit_orbits(n):
    # For every proper J: |W_J| is the orbit size of the regular rho, and
    # each positive root of degree <= 2 lies in the W_J-orbit of exactly one
    # J-dominant root, the table entry weighted |O| on Delta_J and
    # 2 mult(alpha) |O| off it; the tables hold the J-dominant roots only.
    roots = {r.coeffs: r.multiplicity for r in positive_roots(n, 2 + n)}
    for size in range(n):
        for J in map(frozenset, itertools.combinations(range(n), size)):
            assert freudenthal._weyl_order(n, J) == len(_orbit((1,) * n, J, _reflect_pairings))
            tables = {k: {e: (w, norm) for e, w, norm in freudenthal._orbit_roots(n, J, k)}
                      for k in range(2 + n + 1)}
            for e in [e for e in roots if e[0] <= 2]:
                # W_J permutes the positive roots off Delta_J, and all of Delta_J
                orbit = _orbit(e, J, _reflect_root)
                on_j = all(i in J for i, x in enumerate(e) if x)
                assert {x if min(x) >= 0 or not on_j else tuple(-y for y in x)
                        for x in orbit} <= roots.keys(), (J, e)
                top = [x for x in orbit if all(cartan_apply(x)[j] >= 0 for j in J)]
                assert len(top) == 1, (J, e, top)
                rep = top[0]
                want = len(orbit) if on_j else 2 * roots[rep] * len(orbit)
                assert tables[rep[0]][rep] == (want, 0 if len(set(rep)) == 1 else 2), (J, e)
            for k in range(3):
                assert set(tables[k]) == {e for e in roots if e[0] == k
                                          and all(cartan_apply(e)[j] >= 0 for j in J)}, (J, k)


def _filtered_orbit_roots(n, J, k, roots):
    """_orbit_roots(n, J, k) as a filter of every root of degree k: the
    J-dominant ones, each paired with the Cartan matrix for its orbit size."""
    order = freudenthal._weyl_order(n, J)
    out = []
    for e, multiplicity in roots:
        ce = cartan_apply(e)
        if e[0] == k and all(ce[j] >= 0 for j in J):
            size = order // freudenthal._weyl_order(n, {j for j in J if not ce[j]})
            in_j = all(i in J for i, x in enumerate(e) if x)
            out.append((e, size if in_j else 2 * multiplicity * size, 2 if any(ce) else 0))
    return out


def test_orbit_tables_equal_the_filtered_root_tables():
    # every proper J at n <= 8 and degree <= 3, as multisets: 2,004 tables
    cases = 0
    for n in range(2, 9):
        roots = positive_roots(n, 3)
        for size in range(n):
            for J in map(frozenset, itertools.combinations(range(n), size)):
                for k in range(4):
                    assert (sorted(freudenthal._orbit_roots(n, J, k))
                            == sorted(_filtered_orbit_roots(n, J, k, roots))), (n, J, k)
                    cases += 1
    assert cases == 2004


# Level <= 3 lambdas, every u in the box [0, b]^n: most weights below are
# not dominant.
ORACLE_BOXES = [(2, 8), (3, 4), (4, 3), (5, 2)]


@pytest.mark.parametrize("n,b", ORACLE_BOXES)
def test_orbit_sum_matches_the_full_root_sum(n, b):
    for lam in dominant_bases(n, 3):
        oracle = full_root_freudenthal(lam)
        for u in itertools.product(range(b + 1), repeat=n):
            assert freudenthal.multiplicity_at(lam, u) == oracle(u), (lam, u)


@pytest.mark.parametrize("n,b", ORACLE_BOXES)
def test_box_multiplicities_are_the_lookups(n, b):
    # every point of the box, dominant, reflected back into the box or below
    # zero, for lambda and lambda - 2 delta; most points are off the weight set
    box = (b,) * n
    for lam in dominant_bases(n, 3):
        for top in (lam, lowered(lam, (2,) * n)):
            table = freudenthal.box_multiplicities(top, box)
            assert isinstance(table, list)
            assert table == [freudenthal.multiplicity_at(top, u)
                             for u in itertools.product(range(b + 1), repeat=n)], top


def test_box_multiplicities_refuse_an_oversized_box():
    # a box of 5,000,001 points, refused before the first lookup: the memo
    # holds what it held before
    lam = fundamental_weight(2, 0)
    freudenthal.multiplicity_at(lam, (3, 3))
    memo = dict(freudenthal._memo[lam][1])
    with pytest.raises(BoxCapError) as info:
        freudenthal.box_multiplicities(lam, (DEFAULT_NODE_CAP, 0))
    assert (info.value.budget, info.value.count) == ((DEFAULT_NODE_CAP, 0), DEFAULT_NODE_CAP + 1)
    assert freudenthal._memo[lam][1] == memo


def test_positive_roots_validation():
    with pytest.raises(DomainError):
        positive_roots(2, -1)


def test_multiplicity_base_case():
    for lam in dominant_bases(3, 2):
        assert freudenthal_multiplicity(lam, lam) == 1


def test_multiplicity_two_delta():
    lam = fundamental_weight(2, 0)
    assert freudenthal_multiplicity(lam, lowered(lam, (2, 2))) == 2


def test_multiplicity_off_string():
    lam = fundamental_weight(2, 0)
    assert freudenthal_multiplicity(lam, lowered(lam, (0, 1))) == 0


def test_multiplicity_outside_cone():
    lam = fundamental_weight(2, 0)
    assert freudenthal_multiplicity(lam, lowered(lam, (-1, 0))) == 0
    assert freudenthal_multiplicity(lam, fundamental_weight(2, 1)) == 0


def test_requires_dominant():
    with pytest.raises(DomainError):
        freudenthal_multiplicity(Weight(2, (1, 0), (1, 0)), fundamental_weight(2, 0))


def test_reflection_symmetry():
    # mult(mu) = mult(s_i mu).  Freudenthal answers both at one dominant
    # representative, so the oracle is the crystal's node count at the
    # unreduced weight.
    nondominant = 0
    for n in (2, 3):
        for lam in dominant_bases(n, 2):
            weights = []
            for u in [(1,) * n, (2,) * n, (2, 1) + (0,) * (n - 2), (0, 1) + (1,) * (n - 2)]:
                mu = lowered(lam, u)
                weights += [mu] + [reflect(mu, i) for i in range(n)]
            vectors = [lowering_vector(lam, mu) for mu in weights]
            budget = tuple(max(0, *col) for col in zip(*vectors))
            counts = generate_crystal(lam, budget).weight_counts()
            for mu, v in zip(weights, vectors):
                nondominant += not mu.is_dominant()
                assert freudenthal_multiplicity(lam, mu) == counts.get(v, 0), (lam, v)
    assert nondominant > 100


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12), (4, 8), (200, 3)])
def test_frenkel_kac_level_one(n, depth):
    # mult(Lambda_j - d delta) is the number of (n-1)-coloured partitions of
    # d, and so is the multiplicity at each Weyl conjugate of that weight.
    for j in range(n):
        lam = fundamental_weight(n, j)
        for d in range(depth, -1, -1):
            want = coloured_partitions(n - 1, d)
            mu = lowered(lam, (d,) * n)
            conjugate = reflect(reflect(reflect(mu, j), j + 1), j)
            assert not conjugate.is_dominant()
            assert freudenthal_multiplicity(lam, mu) == want, (n, j, d)
            assert freudenthal_multiplicity(lam, conjugate) == want, (n, j, d)


def test_frenkel_kac_strings():
    # The basic-representation strings the acceptance suite pins.
    assert tuple(coloured_partitions(1, d) for d in range(7)) == (1, 1, 2, 3, 5, 7, 11)
    assert tuple(coloured_partitions(2, d) for d in range(5)) == (1, 2, 5, 10, 20)


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty label and module tables for one test, so that no other test's
    lookups fill, or leave unfilled, the modules it reads."""
    monkeypatch.setattr(freudenthal, "_memo", {})
    monkeypatch.setattr(freudenthal, "_modules", {})


def test_memo_holds_dominant_weights_only(fresh_memo):
    lam = Weight(2, (1, 0), (3, 3))  # Lambda_0 - 3 delta
    assert freudenthal_multiplicity(lam, lowered(lam, (80, 80))) == coloured_partitions(1, 80)
    _, memo = freudenthal._memo[lam]
    assert len(memo) <= 81
    assert all(lowered(lam, u).is_dominant() for u in memo)


def test_each_weight_reduced_once_per_evaluation(monkeypatch, fresh_memo):
    calls = []
    original = freudenthal.dominant_lowering

    def recorder(plam, u):
        calls.append((plam, u))
        return original(plam, u)

    monkeypatch.setattr(freudenthal, "dominant_lowering", recorder)
    lam = Weight(3, (1, 0, 0), (5, 5, 5))  # Lambda_0 - 5 delta
    # deep enough for more than 100 reductions under the orbit sum (120)
    assert freudenthal_multiplicity(lam, lowered(lam, (14, 14, 14))) == coloured_partitions(2, 14)
    assert len(calls) > 100
    assert len(set(calls)) == len(calls)


def test_delta_shifted_labels_share_one_module(monkeypatch, fresh_memo):
    # L(lam - s delta) is L(lam) shifted by -s delta: one table serves both
    evaluations = []
    evaluate = freudenthal._evaluate
    monkeypatch.setattr(freudenthal, "_evaluate",
                        lambda *args: evaluations.append(args[1]) or evaluate(*args))
    shallow, deep = Weight(2, (1, 0), (3, 3)), Weight(2, (1, 0), (9, 9))
    want = coloured_partitions(1, 20)
    assert freudenthal.multiplicity_at(shallow, (20, 20)) == want
    assert evaluations == [(20, 20)]
    assert freudenthal.multiplicity_at(deep, (20, 20)) == want
    assert evaluations == [(20, 20)]
    assert freudenthal._memo[shallow][1] is freudenthal._memo[deep][1]
    assert len(freudenthal._modules) == 1


def test_distinct_pairings_do_not_share_a_module(fresh_memo):
    lam0, lam1 = fundamental_weight(2, 0), fundamental_weight(2, 1)
    assert freudenthal.multiplicity_at(lam0, (2, 2)) == 2
    assert freudenthal.multiplicity_at(lam1, (2, 2)) == 2
    assert freudenthal._memo[lam0][1] is not freudenthal._memo[lam1][1]
    assert set(freudenthal._modules) == {(1, 0), (0, 1)}


def test_a_bad_label_raises_before_it_enters_either_table(fresh_memo):
    # a level-0 label and a non-dominant one raise from the gate, and a vector
    # of the wrong length from the lookup, after a good label has made its
    # module, and leave both tables as they were
    good = Weight(2, (1, 0), (0, 0))
    freudenthal.multiplicity_at(good, (1, 1))
    for lam, u, error in [(Weight(2, (0, 0), (0, 0)), (1, 1), NoHighestWeightError),
                          (Weight(2, (1, 0), (1, 0)), (1, 1), DomainError),
                          (good, (1, 1, 1), DomainError), (good, (2,), DomainError)]:
        for call in (freudenthal.multiplicity_at, freudenthal.box_multiplicities):
            with pytest.raises(error):
                call(lam, u)
    assert list(freudenthal._memo) == [good]
    assert list(freudenthal._modules) == [(1, 0)]


def test_each_label_is_checked_once(monkeypatch, fresh_memo):
    calls = []
    highest_pairings = freudenthal.highest_pairings
    monkeypatch.setattr(freudenthal, "highest_pairings",
                        lambda lam: calls.append(lam) or highest_pairings(lam))
    labels = [Weight(3, (0, 1, 1), (s, s, s)) for s in (0, 4, 11)]
    for lam in labels * 3:
        freudenthal.multiplicity_at(lam, (2, 2, 2))
        freudenthal.box_multiplicities(lam, (1, 1, 1))
    assert calls == labels
    assert len(freudenthal._modules) == 1


# (lambda - s delta, s') pairs: s' != s serves the same module's table
SHIFT_PAIRS = [(0, 37), (5, 0), (37, 5)]
SHIFT_BOXES = {2: (6, 6), 3: (3, 3, 3), 4: (2, 2, 2, 2)}


@pytest.mark.parametrize("n", sorted(SHIFT_BOXES))
def test_shifted_tables_match_the_crystal(monkeypatch, fresh_memo, n):
    # generate_crystal(lam - s delta) against the table a label lam - s' delta
    # is served from the module lam - s delta filled, evaluating nothing; and
    # the two labels' graphs are one graph.
    def no_work(*args):
        raise AssertionError("evaluated")

    box = SHIFT_BOXES[n]
    evaluate = freudenthal._evaluate
    for lam in dominant_bases(n, 2):
        for s, t in SHIFT_PAIRS:
            top, other = lowered(lam, (s,) * n), lowered(lam, (t,) * n)
            graph = generate_crystal(top, box)
            counts = graph.weight_counts()
            want = [counts.get(u, 0) for u in itertools.product(*(range(b + 1) for b in box))]
            assert freudenthal.box_multiplicities(top, box) == want, (top, box)
            monkeypatch.setattr(freudenthal, "_evaluate", no_work)
            assert freudenthal.box_multiplicities(other, box) == want, (other, box)
            monkeypatch.setattr(freudenthal, "_evaluate", evaluate)
            shifted = generate_crystal(other, box)
            for field in ("factors", "columns", "cvecs", "slots"):
                assert getattr(shifted, field) == getattr(graph, field), (top, other, field)


# mult(lambda - d delta) for d = 0, 1, ..., at levels 2 and 3, recorded from
# the recursion before the per-evaluation reduction memo; crystal_depth is the
# largest d checked against a crystal graph (under 20k nodes).
DEEP = [
    (2, (2, 0), 14, (1, 1, 3, 5, 10, 16, 28, 43, 70, 105, 161, 236, 350, 501, 722, 1016,
                     1431, 1981, 2741, 3740, 5096, 6868, 9233, 12306, 16357, 21581, 28394,
                     37128, 48406, 62777, 81182)),
    (2, (1, 1), 14, (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504, 728, 1040, 1472,
                     2062, 2864, 3948, 5400, 7336, 9904, 13288, 17728, 23528, 31066, 40824,
                     53408, 69568, 90248, 116624)),
    (3, (1, 1, 0), 7, (1, 4, 13, 36, 89, 204, 441, 908, 1798, 3444, 6410, 11636, 20663)),
    (3, (2, 1, 0), 5, (1, 4, 16, 50, 143, 368, 892, 2035, 4448, 9334, 18968, 37410, 71953)),
    (4, (1, 0, 1, 0), 5, (1, 7, 32, 117, 371, 1063, 2819, 7029, 16660)),
]


@pytest.mark.parametrize("n,w,crystal_depth,table", DEEP)
def test_deep_multiplicities_above_level_one(n, w, crystal_depth, table):
    # Each lambda - d delta and its conjugate s_1 s_0 of it, not dominant as
    # w_0 > 0, have the pinned multiplicity, from Freudenthal and, while the
    # graph is small, from the crystal.
    lam = Weight(n, w, (0,) * n)
    pairs = []
    for d, want in enumerate(table):
        mu = lowered(lam, (d,) * n)
        conjugate = reflect(reflect(mu, 0), 1)
        assert not conjugate.is_dominant()
        assert freudenthal_multiplicity(lam, mu) == want, (n, w, d)
        assert freudenthal_multiplicity(lam, conjugate) == want, (n, w, d)
        if d <= crystal_depth:
            pairs += [(lowering_vector(lam, mu), want), (lowering_vector(lam, conjugate), want)]
    budget = tuple(max(col) for col in zip(*(v for v, _ in pairs)))
    counts = generate_crystal(lam, budget).weight_counts()
    assert sum(counts.values()) < 20000
    for v, want in pairs:
        assert counts[v] == want, (n, w, v)


def test_far_below_the_weight_system():
    # Lambda_0 - 2000 alpha_1 reduces to no weight of L(Lambda_0).
    lam = fundamental_weight(2, 0)
    assert freudenthal_multiplicity(lam, lowered(lam, (0, 2000))) == 0


def test_depth_guard_raises_before_any_work(monkeypatch):
    # The recursion at nu would store lam - (nu - k delta) for k <= min(nu),
    # so a miss at min(nu) >= the node cap is refused before evaluating.
    def no_work(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(freudenthal, "_evaluate", no_work)
    lam = fundamental_weight(2, 0)
    for u in [(DEFAULT_NODE_CAP,) * 2, (2**63 - 1,) * 2]:
        with pytest.raises(ResourceCapError) as exc:
            freudenthal_multiplicity(lam, lowered(lam, u))
        assert f"node cap of {DEFAULT_NODE_CAP}" in str(exc.value)
        assert "crystal generation" not in str(exc.value)
    # one below the cap is evaluated, by the same lookup the callers share
    with pytest.raises(AssertionError, match="evaluated"):
        freudenthal.multiplicity_at(lam, (DEFAULT_NODE_CAP - 1,) * 2)


def test_lookup_by_lowering_vector_matches_the_crystal():
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    counts = generate_crystal(lam, (3, 3, 3)).weight_counts()
    for u in itertools.product(range(-1, 4), repeat=3):
        assert freudenthal.multiplicity_at(lam, u) == counts.get(u, 0), u
    assert freudenthal.multiplicity_at(lam, None) == 0


def test_solve_refuses_a_nonpositive_denominator():
    # (0, 1) below Lambda_0 at n = 2 is not a weight, and the denominator is 0
    # there; every u the recursion reaches has a positive one.
    with pytest.raises(ConsistencyError, match="denominator 0"):
        freudenthal._solve((1, 0), (0, 1), [], {})


RECURSION_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from affsat import freudenthal_multiplicity, fundamental_weight
sys.setrecursionlimit(150)
lam = fundamental_weight(2, 0)
print(freudenthal_multiplicity(lam, lam.lowered((100, 100))))
"""


def test_depth_is_not_bounded_by_the_recursion_limit():
    # The limit is process-wide, so it is lowered in a child interpreter.
    proc = subprocess.run(
        [sys.executable, "-c", RECURSION_SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == coloured_partitions(1, 100)


def test_root_record_fields():
    r = PositiveRoot((1, 1), 1)
    assert r.coeffs == (1, 1) and r.multiplicity == 1
