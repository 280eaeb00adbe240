"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is exact (integer equality); the stated wall-clock
bounds are asserted as well.
"""

import itertools
import random
import time

from affsat import (
    Weight,
    dominance_leq,
    enumerate_leaves,
    attracting_component_count,
    fixed_point_count,
    freudenthal_multiplicity,
    fundamental_weight,
    generate_crystal,
    levi_branching,
    tensor_highest_weights,
    tensor_weight_multiplicity,
)
from affsat import _kernels_py as kernels
from affsat.cli import main as cli_main

from conftest import dominant_bases, graph_multiplicity, graph_splittings, lowered


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_oracle_agreement():
    """Crystal counts equal Freudenthal for n in {2,3}, level <= 2, box <= 4."""
    t0 = time.monotonic()
    mismatches = []
    for n in (2, 3):
        for lam in dominant_bases(n, 2):
            graph = generate_crystal(lam, (4,) * n)
            counts = graph.weight_counts()
            for u in itertools.product(range(5), repeat=n):
                mu = lowered(lam, u)
                crystal_mult = counts.get(u, 0)
                oracle_mult = freudenthal_multiplicity(lam, mu)
                if crystal_mult != oracle_mult:
                    mismatches.append((n, lam, u, crystal_mult, oracle_mult))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 60.0
    _report(1, f"oracle agreement, {elapsed:.1f}s", ok)
    assert not mismatches, mismatches[:5]


def test_criterion_2_basic_representation_strings():
    t0 = time.monotonic()
    lam2 = fundamental_weight(2, 0)
    graph2 = generate_crystal(lam2, (6, 6))
    crystal2 = tuple(graph2.weight_counts().get((d, d), 0) for d in range(7))
    oracle2 = tuple(freudenthal_multiplicity(lam2, lowered(lam2, (d, d))) for d in range(7))
    lam3 = fundamental_weight(3, 0)
    graph3 = generate_crystal(lam3, (4, 4, 4))
    crystal3 = tuple(graph3.weight_counts().get((d, d, d), 0) for d in range(5))
    oracle3 = tuple(freudenthal_multiplicity(lam3, lowered(lam3, (d,) * 3)) for d in range(5))
    elapsed = time.monotonic() - t0
    ok = (
        crystal2 == oracle2 == (1, 1, 2, 3, 5, 7, 11)
        and crystal3 == oracle3 == (1, 2, 5, 10, 20)
        and elapsed < 30.0
    )
    _report(2, f"basic rep strings, {elapsed:.1f}s", ok)


def test_criterion_3_figure_regression():
    """Vector times dual-vector multiplicity at the lowest finite weight is n."""
    t0 = time.monotonic()
    results = {}
    for n in (3, 4, 5):
        l1 = fundamental_weight(n, 1)
        l2 = fundamental_weight(n, n - 1)
        u = (0,) + (1,) * (n - 1)
        mu = lowered(l1 + l2, u)
        got = tensor_weight_multiplicity(l1, l2, mu)
        # independent route: splitting sum over crystal node counts
        oracle = sum(m1 * m2 for _, _, m1, m2 in graph_splittings(l1, l2, mu))
        results[n] = (got, oracle)
    elapsed = time.monotonic() - t0
    ok = all(results[n] == (n, n) for n in (3, 4, 5)) and elapsed < 10.0
    _report(3, f"chain-of-lines regression {results}, {elapsed:.1f}s", ok)


def test_criterion_4_adjoint_plus_trivial():
    ok = True
    for n in (3, 4):
        l1 = fundamental_weight(n, 1)
        l2 = fundamental_weight(n, n - 1)
        hw = tensor_highest_weights(l1, l2, (0,) + (2,) * (n - 1))
        degree_zero = {tuple(k.c): v for k, v in hw.items() if k.delta_degree == 0}
        expected = {(0,) * n: 1, (0,) + (1,) * (n - 1): 1}
        ok = ok and degree_zero == expected
    _report(4, "adjoint plus trivial decomposition", ok)


def test_criterion_5_crystal_axiom_suite():
    """Zero axiom violations over >= 10^4 cumulative nodes."""
    specs = [
        (3, (1, 1, 0), (7, 7, 7)),
        (2, (2, 0), (12, 12)),
        (4, (1, 0, 0, 1), (4, 4, 4, 4)),
        (2, (1, 1), (9, 9)),
    ]
    total_nodes = 0
    violations = 0
    for n, w, budget in specs:
        lam = Weight(n, w, (0,) * n)
        graph = generate_crystal(lam, budget)
        total_nodes += len(graph)
        edge_eps = [graph.eps(i) for i in range(n)]
        for node_id, word in enumerate(graph.words):
            wt = graph.weight_of(node_id)
            for i in range(n):
                eps, phi, _, _, _, _ = kernels.scan_word(word, i, n)
                if phi - eps != wt.pairing(i):
                    violations += 1
                # eps read off the i-edges equals the signature rule's
                if edge_eps[i][node_id] != eps:
                    violations += 1
                child_id = graph.edges.get((node_id, i))
                if child_id is None:
                    continue
                child_word = graph.words[child_id]
                # wt(f_i b) = wt(b) - alpha_i
                if graph.weight_of(child_id) != wt.minus_alpha(i):
                    violations += 1
                # e_i f_i = id
                if kernels.act_on_word(child_word, i, "raise", n) != word:
                    violations += 1
                # eps_i(f_i b) = eps_i(b) + 1
                child_eps = kernels.scan_word(child_word, i, n)[0]
                if child_eps != eps + 1:
                    violations += 1
    ok = violations == 0 and total_nodes >= 10_000
    _report(5, f"axiom suite, {total_nodes} nodes, {violations} violations", ok)


def test_criterion_6_branch_sum_rule_and_stability():
    failures = []
    for n in (2, 3):
        for lam in dominant_bases(n, 2)[: 4 if n == 2 else 5]:
            for u in itertools.product(range(3), repeat=n):
                mu = lowered(lam, u)
                mult_mu = graph_multiplicity(lam, mu)
                for i in range(n):
                    table = levi_branching(lam, mu, i)
                    if mu.pairing(i) >= 0 and sum(table.values()) != mult_mu:
                        failures.append(("sum", lam, u, i))
                    shifted = levi_branching(lam, mu.minus_alpha(i), i)
                    for k, m in table.items():
                        if shifted.get(k + 1, 0) != m:
                            failures.append(("stability", lam, u, i, k))
                    for k in shifted:
                        if k >= 1 and table.get(k - 1, 0) != shifted[k]:
                            failures.append(("stability-rev", lam, u, i, k))
    _report(6, "branch sum rule and stability", not failures)
    assert not failures, failures[:5]


def test_criterion_7_leaf_enumeration():
    lam = fundamental_weight(2, 0)
    mu = lowered(lam, (1, 1))
    ok = len(enumerate_leaves(lam, mu, include_empty=False)) == 2
    ok = ok and len(enumerate_leaves(lam, mu, include_empty=True)) == 3
    rng = random.Random(1729)
    for _ in range(40):
        n = rng.choice((2, 3))
        lam = rng.choice(dominant_bases(n, 3))
        v = tuple(rng.randint(0, 3) for _ in range(n))
        mu = lowered(lam, v)
        for stratum in enumerate_leaves(lam, mu, include_empty=True):
            c = tuple(a - b for a, b in zip(stratum.kappa.c, lam.c))
            ok = ok and stratum.kappa.is_dominant()
            ok = ok and dominance_leq(mu, stratum.kappa)
            ok = ok and dominance_leq(
                stratum.kappa, Weight(n, lam.w, tuple(x + sum(stratum.k) for x in lam.c))
            )
            ok = ok and sum(stratum.k) <= min(c)
        ok = ok and len(enumerate_leaves(lam, lam)) == 1
    _report(7, "leaf enumeration", ok)


def test_criterion_8_fixed_point_dichotomy():
    rng = random.Random(4242)
    ok = True
    for _ in range(200):
        n = rng.choice((2, 3))
        lam = rng.choice(dominant_bases(n, 2))
        mu = lowered(lam, tuple(rng.randint(0, 3) for _ in range(n)))
        fpc = fixed_point_count(lam, mu)
        acc = attracting_component_count(lam, mu)
        ok = ok and fpc in (0, 1) and fpc == (1 if acc > 0 else 0)
    _report(8, "fixed-point dichotomy over 200 random pairs", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    ok = (generate_crystal(lam, (3, 3, 3)).canonical_digest()
          == generate_crystal(lam, (3, 3, 3)).canonical_digest())
    args = ["crystal", "-n", "3", "-w", "1,1,0", "--depth", "2",
            "--cache-dir", str(tmp_path)]
    assert cli_main(args) == 0
    cold = capsys.readouterr().out
    assert cli_main(args) == 0
    warm = capsys.readouterr().out
    ok = ok and cold == warm and len(cold) > 0
    with capsys.disabled():
        _report(9, "generation and cache determinism", ok)
