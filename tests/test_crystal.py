import gc
import itertools
import json
import tracemalloc
from collections import Counter

import pytest

from affsat import (
    ChargedPartition,
    CrystalNode,
    DomainError,
    NoHighestWeightError,
    ResourceCapError,
    Weight,
    apply_root_operator,
    apply_tensor_operator,
    attracting_component_count,
    enumerate_leaves,
    eps_phi,
    fixed_point_count,
    freudenthal_multiplicity,
    fundamental_weight,
    generate_crystal,
    is_weight_of,
    levi_branching,
    tensor_eps_phi,
    tensor_fixed_points,
    tensor_highest_weights,
    tensor_weight_multiplicity,
    weight_multiplicity,
)
from affsat import _kernels_py as kernels
from affsat import cli, crystal, freudenthal
from affsat.cli import dot_from_graph_json
from affsat.crystal import canonical_charges, tensor_splittings

from conftest import (
    all_partitions,
    dominant_bases,
    flotw_count,
    graph_branching,
    graph_multiplicity,
    graph_splittings,
    lowered,
)


def test_tensor_eps_phi_highest_word():
    lam = Weight(3, (0, 1, 1), (0, 0, 0))
    node = CrystalNode(3, ((1, ()), (2, ())))
    r = tensor_eps_phi(node, 1)
    assert (r.eps, r.phi) == (0, 1)
    # phi - eps = <weight, h_i> on a few lowered words too
    down = apply_tensor_operator(node, 1, "lower")
    wt = Weight(3, lam.w, down.lowering_counts())
    for i in range(3):
        ri = tensor_eps_phi(down, i)
        assert ri.phi - ri.eps == wt.pairing(i)


def test_apply_tensor_operator_ends_and_direction():
    node = CrystalNode(2, ((0, ()),))  # highest word of Lambda_0: phi_1 = eps_0 = 0
    assert apply_tensor_operator(node, 1, "lower") is None
    assert apply_tensor_operator(node, 0, "raise") is None
    with pytest.raises(DomainError, match='"lower" or "raise"'):
        apply_tensor_operator(node, 0, "up")


def _cells(parts):
    return {(row, col) for row, length in enumerate(parts, 1) for col in range(1, length + 1)}


def test_tensor_rule_single_factor_degenerates_to_fock():
    # the one-factor word obeys the level-1 rule: eps/phi, f_i and e_i agree
    # at every rank, charge and residue on every partition of at most 6 cells
    partitions = all_partitions(6)
    assert len(partitions) == 1 + 1 + 2 + 3 + 5 + 7 + 11
    for n in (2, 3, 4):
        for charge, parts in itertools.product(range(n), partitions):
            node = CrystalNode(n, ((charge, parts),))
            (b,) = node.factors
            assert b.size() == sum(parts) <= 6
            for i in range(n):
                r = tensor_eps_phi(node, i)
                f = eps_phi(b, i)
                assert (r.eps, r.phi) == (f.eps, f.phi)
                assert (r.position_f, r.position_e) == (0 if f.phi else None,
                                                        0 if f.eps else None)
                for d, good in (("lower", f.good_addable), ("raise", f.good_removable)):
                    fb = apply_root_operator(b, i, d)
                    tb = apply_tensor_operator(node, i, d)
                    assert (None if tb is None else tb.factors[0]) == fb, (n, charge, parts, i, d)
                    # and moves the good cell eps_phi reads off the scan alone
                    assert (fb is None) == (good is None)
                    if fb is not None:
                        assert _cells(fb.parts) ^ _cells(b.parts) == {good}
        messages = set()
        for op, x in ((apply_root_operator, ChargedPartition((2, 1), 0, n)),
                      (apply_tensor_operator, CrystalNode(n, ((0, (2, 1)),)))):
            with pytest.raises(DomainError) as exc:
                op(x, 0, "up")
            messages.add(str(exc.value))
        assert messages == {'direction must be "lower" or "raise", got \'up\''}


def test_generate_budget_zero():
    g = generate_crystal(fundamental_weight(2, 0), (0, 0))
    assert len(g) == 1
    assert '"edges":[]' in g.to_json_str()


def test_generate_basic_depth2():
    g = generate_crystal(fundamental_weight(2, 0), (2, 2))
    assert g.weight_counts().get((2, 2)) == 2  # two nodes a full double-delta down


def test_generate_adjoint_truncation():
    g = generate_crystal(Weight(3, (0, 1, 1), (0, 0, 0)), (0, 1, 1))
    assert len(g) == 5
    counts = g.weight_counts()
    assert counts == {(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 1, 1): 2}


@pytest.mark.parametrize("w, c, w_pairings", [
    ((2, 0), (1, 0), (0, 2)),
    ((2, 1, 1), (1, 0, 0), (0, 2, 2)),
    ((2, 1, 0, 1), (1, 0, 0, 0), (0, 2, 0, 2)),
])
def test_generate_off_delta_weight_uses_pairings(w, c, w_pairings):
    # A dominant weight whose c is no multiple of delta has the crystal of its
    # pairings; node weights stay lambda lowered by the node's cvec.
    lam = Weight(len(w), w, c)
    budget = (3,) * len(w)
    g = generate_crystal(lam, budget)
    same = generate_crystal(Weight(len(w), w_pairings, (0,) * len(w)), budget)
    assert g.weight_counts() == same.weight_counts()
    assert g.weight_of(0) == lam


def test_generate_requires_dominant():
    with pytest.raises(DomainError):
        generate_crystal(Weight(2, (1, 0), (1, 0)), (1, 1))


def test_generate_budget_validation():
    lam = fundamental_weight(2, 0)
    with pytest.raises(DomainError):
        generate_crystal(lam, (1,))
    with pytest.raises(DomainError):
        generate_crystal(lam, (-1, 0))
    for budget in [(1.9, True), (1.9, 0), (0, True), ("1", "0")]:
        with pytest.raises(DomainError):
            generate_crystal(lam, budget)


def test_node_cap():
    with pytest.raises(ResourceCapError) as exc:
        generate_crystal(fundamental_weight(2, 0), (4, 4), node_cap=3)
    assert "3" in str(exc.value)
    assert "(4, 4)" in str(exc.value)


def test_level_over_the_default_cap_is_refused(monkeypatch):
    # The bound is the default cap, whatever node_cap is: a word of as many
    # factors as the cap is built, one factor more is refused.
    monkeypatch.setattr(crystal, "DEFAULT_NODE_CAP", 3)
    assert len(generate_crystal(Weight(2, (3, 0), (0, 0)), (0, 0), node_cap=1)) == 1
    with pytest.raises(ResourceCapError, match="level 4 .* node cap of 3"):
        generate_crystal(Weight(2, (3, 1), (0, 0)), (0, 0), node_cap=10)


def test_closure_within_budget():
    lam = Weight(2, (1, 1), (0, 0))
    budget = (3, 2)
    g = generate_crystal(lam, budget)
    for node_id, word in enumerate(g.words):
        c = g.cvecs[node_id]
        for i in range(2):
            _, phi, _, _, _, _ = kernels.scan_word(word, i, 2)
            in_budget = c[i] + 1 <= budget[i]
            has_edge = (node_id, i) in g.edges
            assert has_edge == (phi > 0 and in_budget)
            if has_edge:
                child = g.words[g.edges[(node_id, i)]]
                assert g.cvecs[g.edges[(node_id, i)]] == c[:i] + (c[i] + 1,) + c[i + 1 :]
                assert child in g.words


def _reference_generate(lam, budget):
    """The (charge, parts)-word BFS the id-word engine replaced: factors are
    scanned through a dict keyed by (charge, parts), each child word is
    built from a fresh parts tuple, and a level's children are deduped
    after the whole level is lowered.  Returns (words, cvecs, edges)."""
    n = lam.n
    scans = {}

    def tables(word):
        out = []
        for factor in word:
            table = scans.get(factor)
            if table is None:
                table = scans[factor] = kernels.signature_scan(factor[1], factor[0], n)
            out.append(table)
        return out

    hw = tuple((ch, ()) for ch in canonical_charges(lam))
    words, cvecs, index, edges = [hw], [(0,) * n], {hw: 0}, {}
    frontier = [0]
    while frontier:
        flat = []
        for node_id in frontier:
            word, c = words[node_id], cvecs[node_id]
            word_tables = tables(word)
            for i in range(n):
                if c[i] >= budget[i]:
                    continue
                _, phi, pos_f, _, add_row, _ = kernels.word_scan(word_tables, i)
                if phi == 0:
                    continue
                charge, parts = word[pos_f]
                factor = (charge, kernels.add_cell(parts, add_row))
                child = word[:pos_f] + (factor,) + word[pos_f + 1 :]
                flat.append((node_id, i, child, c[:i] + (c[i] + 1,) + c[i + 1 :]))
        frontier = []
        for parent_id, i, child, cc in flat:
            child_id = index.get(child)
            if child_id is None:
                child_id = index[child] = len(words)
                words.append(child)
                cvecs.append(cc)
                frontier.append(child_id)
            edges[(parent_id, i)] = child_id
    return words, cvecs, edges


# Levels past 2 per n, each with the largest uniform budget it runs to: words
# of three and four factors, where a cancellation in the fold reaches across
# more than one boundary.  At n = 2 no budget up to 2 tells apart a fold that
# skips the cancellation from the third factor on, so n = 2 runs to 3.
DEEP_LEVELS = {2: ((3, 3), (4, 3)), 3: ((3, 2),), 4: ()}


@pytest.mark.parametrize("shift", [0, -7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_matches_reference_bfs(n, shift):
    budgets = [(b,) * n for b in range(4)] + [(3, 1, 2, 0)[:n]]
    cases = [(base, budget) for base in dominant_bases(n, 2) for budget in budgets]
    cases += [(base, budget)
              for level, top in DEEP_LEVELS[n]
              for base in dominant_bases(n, level) if sum(base.w) == level
              for budget in [(b,) * n for b in range(top + 1)] + [(2, 1, 0)[:n]]]
    for base, budget in cases:
        lam = Weight(n, base.w, (-shift,) * n)
        g = generate_crystal(lam, budget)
        words, cvecs, edges = _reference_generate(lam, budget)
        assert g.words == words, (base.w, budget)
        assert g.cvecs == cvecs, (base.w, budget)
        assert g.edges == edges, (base.w, budget)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_edge_view_matches_reference_dict(n):
    odd_keys = [(0,), (0, 0, 0), (0.5, 0), "ab", None]
    for lam in dominant_bases(n, 2):
        budget = (2,) * n
        g = generate_crystal(lam, budget)
        _, _, edges = _reference_generate(lam, budget)
        view = g.edges
        assert view == edges and edges == view
        assert len(view) == len(edges) > 0
        assert list(view) == sorted(edges)
        assert list(view.items()) == sorted(edges.items())
        # negative node ids would index the slots list from its end
        keys = [(a, i) for a in range(-len(g), len(g) + 1) for i in range(-1, n + 1)] + odd_keys
        for key in keys:
            assert (key in view) == (key in edges), key
            assert view.get(key) == edges.get(key), key
            if key in edges:
                assert view[key] == edges[key]
            else:
                with pytest.raises(KeyError):
                    view[key]
    with pytest.raises(TypeError):
        view[(0, 0)] = 1


@pytest.mark.parametrize("n, w, budget", [
    (3, (1, 0, 0), (4, 4, 4)),
    (2, (1, 1), (5, 5)),
    (3, (1, 1, 1), (3, 3, 3)),
])
def test_eps_is_the_raising_string_length(n, w, budget):
    # levels 1, 2 and 3: eps_i read off the i-slots against e_i applied
    # until it stops
    g = generate_crystal(Weight(n, w, (0,) * n), budget)
    for i in range(n):
        eps = g.eps(i)
        for node_id, word in enumerate(g.words):
            length = 0
            while (word := kernels.act_on_word(word, i, "raise", n)) is not None:
                length += 1
            assert eps[node_id] == length, (node_id, i)
        assert g.eps(i + n) == eps
    assert len(g) > 100


# Graphs of levels 1 to 3 at every n, each with a budget that keeps it under
# about 1,600 nodes; the edge checks below read only slots, cvecs and eps,
# never the signature rule that made the edges
EDGE_GRAPHS = [
    (2, (1, 0), (6, 6)), (2, (1, 1), (4, 4)), (2, (2, 1), (6, 6)),
    (3, (1, 0, 0), (3, 3, 3)), (3, (1, 1, 0), (5, 5, 5)), (3, (1, 1, 1), (4, 4, 4)),
    (4, (1, 0, 0, 0), (2, 2, 2, 2)), (4, (1, 0, 1, 0), (2, 2, 2, 2)),
    (4, (2, 0, 1, 0), (3, 3, 3, 3)), (5, (1, 0, 0, 0, 0), (2, 2, 2, 2, 2)),
]


@pytest.mark.parametrize("n, w, budget", EDGE_GRAPHS)
def test_edges_fill_the_sl2_strings(n, w, budget):
    # an i-string of weights mu, mu - alpha_i, ... is symmetric about
    # pairing 0, so the i-edges from the nodes at c to those at c + e_i
    # number min(#c, #(c + e_i)) whenever c + e_i is inside the budget
    g = generate_crystal(Weight(n, w, (0,) * n), budget)
    count = Counter(g.cvecs)
    edges = Counter((g.cvecs[k // n], k % n) for k, b in enumerate(g.slots) if b >= 0)
    checked = 0
    for c, m in count.items():
        for i in range(n):
            if c[i] < budget[i]:
                above = count[c[:i] + (c[i] + 1,) + c[i + 1 :]]
                assert edges[(c, i)] == min(m, above), (c, i)
                checked += above > 0
    assert checked > 10


@pytest.mark.parametrize("n, w, budget", [case for case in EDGE_GRAPHS if case[0] >= 3])
def test_edges_satisfy_stembridge_raising_axioms(n, w, budget):
    # Stembridge, "A local characterization of simply-laced crystals"
    # (Trans. AMS 355, 2003), raising half, for i != j at every node x with
    # y = e_i x: Delta = eps_j(y) - eps_j(x) >= 0 and phi_j(y) <= phi_j(x);
    # where Delta = 0 and z = e_j x exists, e_j y = e_i z = w with
    # phi_i(w) = phi_i(y); where Delta = 1 and eps_i(z) - eps_i(x) = 1,
    # e_i e_j e_j y = e_j e_i e_i z = w with phi_j and phi_i each dropping
    # by 1 on the last edge into w.  Stembridge's delta is -eps.  Raising
    # lowers c, so every move stays inside the budget; n = 2 is not
    # simply-laced.
    g = generate_crystal(Weight(n, w, (0,) * n), budget)
    up = [[-1] * len(g) for _ in range(n)]
    for k, b in enumerate(g.slots):
        if b >= 0:
            up[k % n][b] = k // n
    eps = [g.eps(i) for i in range(n)]
    pairings = {c: g.lam.lowered(c).pairings() for c in set(g.cvecs)}
    phi = [[e + pairings[c][j] for e, c in zip(eps[j], g.cvecs)] for j in range(n)]

    def raise_by(x, colours):
        for i in colours:
            x = up[i][x] if x >= 0 else -1
        return x

    seen = Counter()
    for x in range(len(g)):
        for i in range(n):
            y = up[i][x]
            if y < 0:
                continue
            for j in set(range(n)) - {i}:
                z = up[j][x]
                delta = eps[j][y] - eps[j][x]
                assert delta >= 0 and phi[j][y] <= phi[j][x], (x, i, j)
                if delta == 0 and z >= 0:
                    w = up[j][y]
                    assert w >= 0 and w == up[i][z] and phi[i][w] == phi[i][y], (x, i, j)
                    seen["square"] += 1
                elif delta == 1 and z >= 0 and eps[i][z] - eps[i][x] == 1 and i < j:
                    a, b = raise_by(y, (j, j)), raise_by(z, (i, i))
                    w = raise_by(a, (i,))
                    assert w >= 0 and w == raise_by(b, (j,)), (x, i, j)
                    assert phi[j][w] - phi[j][a] == phi[i][w] - phi[i][b] == -1, (x, i, j)
                    seen["octagon"] += 1
    assert seen["square"] > 0 and seen["octagon"] > 0


def test_generate_crystal_restores_collector_state(monkeypatch):
    # the BFS runs with the cyclic collector paused and leaves it as found,
    # also when the node cap ends the build
    seen = []
    expand_level = kernels.expand_level
    monkeypatch.setattr(kernels, "expand_level",
                        lambda *args: seen.append(gc.isenabled()) or expand_level(*args))
    lam = fundamental_weight(2, 0)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            generate_crystal(lam, (3, 3))
            assert gc.isenabled() is enabled
            with pytest.raises(ResourceCapError):
                generate_crystal(lam, (4, 4), node_cap=5)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


def test_graph_retains_under_135_bytes_per_node():
    # the reference graph keeps one list entry per node and word position, a
    # cvec it shares with its level and n machine-word slots: 88 bytes a node.
    # A tuple per id word and an int per slot kept 157
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = generate_crystal(Weight(3, (1, 1, 0), (0, 0, 0)), (8, 8, 8))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g) == 20471
    assert retained / len(g) < 135, retained / len(g)


@pytest.mark.parametrize("n, w, budget", [
    (2, (2, 0), (5, 5)),
    (3, (1, 1, 0), (4, 4, 4)),
    (4, (1, 0, 0, 1), (2, 3, 2, 1)),
])
def test_factor_memo_exact(monkeypatch, n, w, budget):
    scan = kernels.signature_scan
    calls = Counter()

    def counted(parts, charge, n):
        calls[(charge, parts)] += 1
        return scan(parts, charge, n)

    monkeypatch.setattr(kernels, "signature_scan", counted)
    # the graph keeps only the factors, so the build table is caught on its
    # way into the BFS, found among expand_level's arguments by its type
    tables = []
    expand_level = kernels.expand_level
    monkeypatch.setattr(kernels, "expand_level", lambda *args: tables.append(
        next(a for a in args if isinstance(a, kernels.FactorTable))) or expand_level(*args))
    g = generate_crystal(Weight(n, w, (0,) * n), budget)
    table = tables[0]
    assert all(t is table for t in tables)
    assert g.factors is table.factors
    assert not hasattr(g, "table")
    # one scan per distinct factor of the graph, and no other
    assert set(calls.values()) == {1}
    assert set(calls) == {f for word in g.words for f in word}
    assert len(table.factors) == len(calls)
    filled = 0
    for f, row in enumerate(table.lowered):
        charge, parts = table.factors[f]
        assert table.scans[f] == scan(parts, charge, n)
        for i, child in enumerate(row):
            if child is not None:
                add_row = table.scans[f][i][2]
                assert add_row > 0
                assert table.factors[child] == (charge, kernels.add_cell(parts, add_row))
                filled += 1
    assert filled > 0


def test_weight_multiplicity_examples():
    lam = fundamental_weight(2, 0)
    assert weight_multiplicity(lam, lam) == 1
    assert weight_multiplicity(lam, lowered(lam, (1, 1))) == 1
    adj = Weight(3, (0, 1, 1), (0, 0, 0))
    assert weight_multiplicity(adj, lowered(adj, (0, 1, 1))) == 2


def test_weight_multiplicity_off_cone():
    lam = fundamental_weight(2, 0)
    assert weight_multiplicity(lam, lowered(lam, (0, 1))) == 0
    assert weight_multiplicity(lam, fundamental_weight(2, 1)) == 0


def test_weight_multiplicity_matches_oracle_spot():
    for n in (2, 3):
        for lam in dominant_bases(n, 2)[:4]:
            for u in [(1,) * n, (2,) + (1,) * (n - 1), (0, 2) + (0,) * (n - 2)]:
                mu = lowered(lam, u)
                assert weight_multiplicity(lam, mu) == graph_multiplicity(lam, mu)


@pytest.mark.parametrize("n, top", [(2, 4), (3, 3)])
def test_weight_multiplicity_on_a_box_with_non_weights(n, top):
    # weight_multiplicity answers non-weights without a graph; the counts of
    # one graph over the whole box and Freudenthal hold it to every point
    for lam in dominant_bases(n, 2):
        counts = generate_crystal(lam, (top,) * n).weight_counts()
        zeros = 0
        for u in itertools.product(range(-1, top + 1), repeat=n):
            mu = lowered(lam, u)
            m = weight_multiplicity(lam, mu)
            assert m == freudenthal_multiplicity(lam, mu) == counts.get(u, 0), (lam, u)
            zeros += min(u) >= 0 and m == 0
        assert zeros > 0, lam


@pytest.mark.parametrize("n, top", [(2, 6), (3, 4), (4, 2)])
def test_three_routes_agree_on_every_box_to_level_3(n, top):
    # crystal node counts, Freudenthal and the FLOTW multipartitions, at every
    # point of the box, the non-dominant weights and the non-weights included
    box = (top,) * n
    for lam in dominant_bases(n, 3):
        counts = generate_crystal(lam, box).weight_counts()
        charges = canonical_charges(lam)
        table = freudenthal.box_multiplicities(lam, box)
        for u, m in zip(itertools.product(*(range(top + 1) for _ in box)), table, strict=True):
            assert counts.get(u, 0) == m == flotw_count(n, charges, u), (lam, u)


def test_levi_branching_examples():
    lam = fundamental_weight(2, 0)
    assert levi_branching(lam, lam, 0) == graph_branching(lam, lam, 0) == {0: 1}
    assert levi_branching(lam, lam, 1) == graph_branching(lam, lam, 1) == {0: 1}
    mu = lowered(lam, (2, 2))
    assert levi_branching(lam, mu, 1) == graph_branching(lam, mu, 1) == {0: 1, 1: 1}


def test_levi_branching_sum_rule():
    lam = fundamental_weight(2, 0)
    mu = lowered(lam, (2, 2))
    assert mu.pairing(1) >= 0
    assert sum(levi_branching(lam, mu, 1).values()) == graph_multiplicity(lam, mu)


def test_levi_branching_stability():
    # m_k at mu equals m_{k+1} at mu - alpha_i: both count e_i-killed nodes
    # at the same weight
    lam = fundamental_weight(2, 0)
    for u, i in [((2, 2), 1), ((3, 2), 0), ((2, 1), 1)]:
        mu = lowered(lam, u)
        t1 = levi_branching(lam, mu, i)
        t2 = levi_branching(lam, mu.minus_alpha(i), i)
        assert t1 == graph_branching(lam, mu, i)
        assert t2 == graph_branching(lam, mu.minus_alpha(i), i)
        for k, m in t1.items():
            assert t2.get(k + 1, 0) == m
        for k, m in t2.items():
            if k >= 1:
                assert t1.get(k - 1, 0) == m


def test_tensor_highest_weights_adjoint_plus_trivial():
    thw = tensor_highest_weights(fundamental_weight(3, 1), fundamental_weight(3, 2), (0, 1, 1))
    assert {tuple(k.c): v for k, v in thw.items()} == {(0, 0, 0): 1, (0, 1, 1): 1}


def test_tensor_highest_weights_level_validation():
    lam = fundamental_weight(3, 1)
    zero = Weight(3, (0, 0, 0), (0, 0, 0))
    with pytest.raises(DomainError):
        tensor_highest_weights(lam, zero, (1, 1, 1))
    off_cone = lowered(lam, (-1, 0, 0))
    for f in (tensor_weight_multiplicity, tensor_fixed_points):
        for pair in [(lam, zero), (zero, lam)]:
            with pytest.raises(NoHighestWeightError):
                f(*pair, off_cone)


def test_tensor_highest_weights_basic_square():
    lam = fundamental_weight(2, 0)
    thw = tensor_highest_weights(lam, lam, (1, 0))
    assert {tuple(k.c): v for k, v in thw.items()} == {(0, 0): 1, (1, 0): 1}


def test_tensor_highest_weights_order_independent():
    a, b = fundamental_weight(3, 0), fundamental_weight(3, 2)
    assert tensor_highest_weights(a, b, (1, 1, 1)) == tensor_highest_weights(b, a, (1, 1, 1))


def _pair_scan_highest_weights(lam1, lam2, budget):
    """Reference decomposition: concatenate the words of both truncated factor
    graphs whose lowering vectors sum within the budget, and tally the
    weights of the concatenations killed by every e_i."""
    n = lam1.n
    g1 = generate_crystal(lam1, budget)
    g2 = generate_crystal(lam2, budget)
    base = lam1 + lam2
    out = {}
    for w1, c1 in zip(g1.words, g1.cvecs):
        for w2, c2 in zip(g2.words, g2.cvecs):
            total = tuple(a + b for a, b in zip(c1, c2))
            if any(t > b for t, b in zip(total, budget)):
                continue
            if all(kernels.scan_word(w1 + w2, i, n)[0] == 0 for i in range(n)):
                kappa = lowered(base, total)
                out[kappa] = out.get(kappa, 0) + 1
    return out


def _tensor_rule_highest_weights(lam1, lam2, budget):
    """Reference decomposition by the tensor-product rule (Kashiwara, Duke
    Math. J. 63, 1991): b1.b2 is killed by every e_i exactly when b1 is the
    highest-weight word of B(lam1) and eps_i(b2) <= <lam1, h_i> for every i,
    so one pass over B(lam2) truncated at the budget, reading eps_i(b2) off
    its i-edges, tallies the highest weights."""
    bound = lam1.pairings()
    graph = generate_crystal(lam2, budget)
    eps = [graph.eps(i) for i in range(lam1.n)]
    counts = Counter(c for c, *e in zip(graph.cvecs, *eps)
                     if all(x <= b for x, b in zip(e, bound)))
    return {(lam1 + lam2).lowered(c): m for c, m in counts.items()}


@pytest.mark.parametrize("n, max_level, budgets", [
    (2, 2, [(1, 1), (2, 2), (3, 3), (3, 1)]),
    (3, 2, [(1, 1, 1), (2, 2, 2), (2, 0, 1)]),
    (4, 2, [(1, 1, 1, 1)]),
    (4, 1, [(2, 2, 2, 2), (2, 1, 2, 1)]),
])
def test_tensor_highest_weights_match_pair_scan(n, max_level, budgets):
    weights = dominant_bases(n, max_level)
    for budget in budgets:
        for lam1 in weights:
            for lam2 in weights:
                assert (tensor_highest_weights(lam1, lam2, budget)
                        == _pair_scan_highest_weights(lam1, lam2, budget)), (lam1, lam2, budget)


# The query shapes of the benchmark's queries session (QUERY_MIX in
# perfbench/workloads.py): (command, n, w or (w1, w2), lowering vector of mu
# or uniform budget, residue of branch).
QUERY_SHAPES = [
    ("mult", 2, (1, 0), (8, 8), None),
    ("mult", 3, (1, 1, 0), (3, 3, 3), None),
    ("mult", 4, (1, 0, 0, 0), (3, 3, 3, 2), None),
    ("mult", 3, (1, 1, 0), (5, 5, 4), None),
    ("fixed", 3, (1, 1, 0), (4, 4, 4), None),
    ("mult_t", 3, ((1, 0, 0), (0, 1, 0)), (3, 3, 3), None),
    ("mult_t", 2, ((1, 0), (0, 1)), (5, 5), None),
    ("fixed_t", 3, ((1, 0, 0), (0, 1, 0)), (3, 3, 3), None),
    ("branch", 2, (2, 0), (6, 6), 1),
    ("branch", 3, (1, 1, 0), (4, 4, 4), 1),
    ("branch", 3, (1, 1, 0), (5, 5, 5), 0),
    ("leaves", 3, (1, 1, 0), (5, 5, 5), None),
    ("leaves", 3, (1, 0, 0), (5, 5, 5), None),
    ("tensor", 2, ((1, 0), (1, 0)), 8, None),
    ("tensor", 3, ((1, 0, 0), (0, 1, 0)), 5, None),
    ("tensor", 3, ((1, 1, 0), (0, 1, 1)), 5, None),
    ("tensor", 3, ((1, 0, 1), (1, 1, 0)), 5, None),
    ("tensor", 3, ((1, 1, 0), (0, 1, 1)), 6, None),
]


def _automorphisms(n):
    """The diagram automorphisms i -> sign * i + rot (mod n) of affine
    A_{n-1}^(1), each as the map it induces on vectors."""
    maps = {tuple((sign * i + rot) % n for i in range(n))
            for sign in (1, -1) for rot in range(n)}
    for image in sorted(maps):
        def apply(v, image=image):
            out = [0] * n
            for i, x in enumerate(v):
                out[image[i]] = x
            return tuple(out)
        yield apply, image


@pytest.mark.parametrize("op, n, w, size, i", QUERY_SHAPES,
                         ids=[f"{e[0]}-n{e[1]}-{k}" for k, e in enumerate(QUERY_SHAPES)])
def test_query_shapes_match_graph_routes(op, n, w, size, i):
    # every diagram automorphism of the shape, with lambda (the first factor
    # of a pair) shifted by -2 delta: the graph-free answers equal the graph
    # routes they replaced
    shift = (2,) * n
    for sigma, image in _automorphisms(n):
        if op == "tensor":
            lam1, lam2 = Weight(n, sigma(w[0]), shift), Weight(n, sigma(w[1]), (0,) * n)
            budget = (size,) * n
            assert (tensor_highest_weights(lam1, lam2, budget)
                    == _tensor_rule_highest_weights(lam1, lam2, budget)), (image, w)
        elif op in ("mult_t", "fixed_t"):
            lam1, lam2 = Weight(n, sigma(w[0]), shift), Weight(n, sigma(w[1]), (0,) * n)
            mu = lowered(lam1 + lam2, sigma(size))
            expected = graph_splittings(lam1, lam2, mu)
            assert tensor_splittings(lam1, lam2, mu) == expected, (image, w)
            assert tensor_weight_multiplicity(lam1, lam2, mu) == sum(
                m1 * m2 for _, _, m1, m2 in expected)
            assert tensor_fixed_points(lam1, lam2, mu) == [
                (lowered(lam1, s), lowered(lam2, rest)) for s, rest, _, _ in expected]
        else:
            lam = Weight(n, sigma(w), shift)
            mu = lowered(lam, sigma(size))
            if op == "branch":
                assert (levi_branching(lam, mu, image[i])
                        == graph_branching(lam, mu, image[i])), (image, w)
            elif op == "leaves":
                box = itertools.product(*(range(x + 1) for x in sigma(size)))
                dominant = {lowered(lam, c) for c in box if lowered(lam, c).is_dominant()}
                strata = enumerate_leaves(lam, mu, include_empty=True)
                assert {s.kappa for s in strata} == dominant, (image, w)
            else:
                m = graph_multiplicity(lam, mu)
                assert weight_multiplicity(lam, mu) == m, (image, w)
                assert attracting_component_count(lam, mu) == m
                assert fixed_point_count(lam, mu) == (m > 0)


def test_tensor_highest_weights_delta_shifted_factor():
    lam1 = Weight(3, (1, 1, 0), (1, 1, 1))  # Lambda_0 + Lambda_1 - delta
    lam2 = Weight(3, (0, 1, 1), (0, 0, 0))
    budget = (2, 2, 2)
    thw = tensor_highest_weights(lam1, lam2, budget)
    assert thw == _pair_scan_highest_weights(lam1, lam2, budget)
    unshifted = tensor_highest_weights(Weight(3, (1, 1, 0), (0, 0, 0)), lam2, budget)
    assert thw == {lowered(k, (1, 1, 1)): m for k, m in unshifted.items()}


def test_tensor_highest_weights_off_delta_factor():
    # c = (1, 0) is no multiple of delta: 2 Lambda_0 - alpha_0 = 2 Lambda_1 - delta
    lam1 = Weight(2, (2, 0), (1, 0))
    assert lam1.pairings() == (0, 2)
    lam2 = Weight(2, (1, 0), (0, 0))
    budget = (3, 3)
    thw = tensor_highest_weights(lam1, lam2, budget)
    assert thw == _pair_scan_highest_weights(lam1, lam2, budget)
    unshifted = tensor_highest_weights(Weight(2, (0, 2), (0, 0)), lam2, budget)
    assert (sorted((k.pairings(), m) for k, m in thw.items())
            == sorted((k.pairings(), m) for k, m in unshifted.items()))


def test_tensor_weight_multiplicity_examples():
    l1, l2 = fundamental_weight(3, 1), fundamental_weight(3, 2)
    base = l1 + l2
    assert tensor_weight_multiplicity(l1, l2, lowered(base, (0, 1, 1))) == 3
    m1, m3 = fundamental_weight(4, 1), fundamental_weight(4, 3)
    assert tensor_weight_multiplicity(m1, m3, lowered(m1 + m3, (0, 1, 1, 1))) == 4
    assert tensor_weight_multiplicity(l1, l2, base) == 1


@pytest.mark.parametrize("n, top", [(2, 4), (3, 2)])
def test_tensor_splittings_on_a_box_with_non_weights(n, top):
    # tensor_splittings answers non-weights of L(lam1 + lam2) without
    # graphs; the convolution of the factors' box counts holds it to every
    # point, so the short-circuit never changes an answer
    weights = dominant_bases(n, 2)
    counts = {lam: generate_crystal(lam, (top,) * n).weight_counts() for lam in weights}
    for lam1, lam2 in itertools.product(weights, repeat=2):
        zeros = 0
        for u in itertools.product(range(-1, top + 1), repeat=n):
            expected = []
            if min(u) >= 0:
                for s in itertools.product(*(range(x + 1) for x in u)):
                    rest = tuple(a - b for a, b in zip(u, s))
                    m1, m2 = counts[lam1].get(s, 0), counts[lam2].get(rest, 0)
                    if m1 and m2:
                        expected.append((s, rest, m1, m2))
            mu = lowered(lam1 + lam2, u)
            assert tensor_splittings(lam1, lam2, mu) == expected, (lam1, lam2, u)
            zeros += min(u) >= 0 and not is_weight_of(lam1 + lam2, mu)
        assert zeros > 0, (lam1, lam2)


def test_tensor_weight_multiplicity_off_cone():
    lam = fundamental_weight(2, 0)
    assert tensor_weight_multiplicity(lam, lam, lowered(lam + lam, (-1, 0))) == 0


def test_character_product_consistency():
    # tensor multiplicities equal sum over components of component multiplicities
    l1 = fundamental_weight(2, 0)
    l2 = fundamental_weight(2, 1)
    budget = (2, 2)
    thw = tensor_highest_weights(l1, l2, budget)
    base = l1 + l2
    for u in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
        mu = lowered(base, u)
        direct = sum(m1 * m2 for _, _, m1, m2 in graph_splittings(l1, l2, mu))
        assert tensor_weight_multiplicity(l1, l2, mu) == direct
        via_components = sum(
            m * weight_multiplicity(kappa, mu) for kappa, m in thw.items()
        )
        assert direct == via_components


def test_generation_deterministic():
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    assert (generate_crystal(lam, (3, 3, 3)).canonical_digest()
            == generate_crystal(lam, (3, 3, 3)).canonical_digest())


# Canonical documents as of CONVENTION_ID v1; a change here invalidates caches.
PINNED_DIGESTS = [
    ((1, 1, 0), (0, 0, 0), (4, 4, 4), 582,
     "4668202dc303e109526f4d5afd1b130dec0becd43376cecfb8667bbb0c8c5d5e"),
    ((2, 0), (0, 0), (8, 8), 498,
     "7fbf51d221150120a6ce88f5eedb666a1723e0aa30bedfd6cb66ad86a7ab527d"),
    ((1, 0, 0, 1), (0, 0, 0, 0), (4, 4, 4, 4), 3133,
     "587aa7e4e1a0ac54167edd79bd98fbdb166036cd11407a0a12cd198525404aae"),
    ((1, 1), (0, 0), (6, 6), 231,
     "45f5e9036529eec1fe8e220c71b3a9ae4ac166c0c7ad6bf03fcddc558317ede3"),
    ((1, 1, 0), (0, 0, 0), (8, 8, 8), 20471,
     "5bc9d5fa28610088f5e01f194a855b66cce2e1f0ce048c892c7cdf788a1c11f7"),
    ((1, 0, 1), (47, 47, 47), (6, 6, 6), 3960,
     "88fcec92c81ab040abca0a49ff9210cb60bb76ae8d8fe8ecbf9e3618584ab67d"),
    ((1, 1, 0), (0, 0, 0), (0, 0, 0), 1,
     "586c91520b797bcbe7b7f81b2b8ca6174426d28455f9e982a796a6ac806699b2"),
    # the benchmark's graph classes not pinned above, at their depths; at
    # level 1 every node is a new factor and a one-factor word's child is its
    # lowered factor alone
    ((1, 0, 0), (0, 0, 0), (8, 8, 8), 2010,
     "54450b2a20a83f7f4875f1ee8f6ed845e788025afb86c697985e418887ecda3d"),
    ((1, 0), (0, 0), (16, 16), 2576,
     "1784293367246ed7fbda2685f1d0c338f6f71e4fba273a7d570146929fea5f61"),
    ((1, 0, 0, 0), (0, 0, 0, 0), (5, 5, 5, 5), 1208,
     "cf71845c7bca659c5058392fd51f6c9ecde688128dd8ee65f075864d141fa423"),
    ((1, 0, 1, 0), (0, 0, 0, 0), (4, 4, 4, 4), 3644,
     "3f8a31195483d7defc4197d10cde4f835b9ff579eaff45ed1e39eb12d84ceacf"),
    ((1, 1), (0, 0), (12, 12), 4487,
     "8c5c8514eb87d801871b706a83fef14cbd4353d9ffbc7987952e99927bbbac68"),
    ((2, 0), (0, 0), (10, 10), 1322,
     "520f9303aa6167cf1890d7b46f81f2a039c77515c63b50a18bccd8ee5d3ce481"),
]


@pytest.mark.parametrize(
    "w, c, budget, nodes, digest", PINNED_DIGESTS,
    # the test ids entries had before they carried c
    ids=[f"w{k}-budget{k}-{e[3]}-{e[4]}" for k, e in enumerate(PINNED_DIGESTS)],
)
def test_canonical_digest_pinned(w, c, budget, nodes, digest):
    g = generate_crystal(Weight(len(w), w, c), budget)
    assert len(g) == nodes
    assert g.canonical_digest() == digest


def test_canonical_digest_hashes_the_blocks(monkeypatch):
    # with no joined text to fall back on, and blocks of 3 nodes
    monkeypatch.delattr(crystal.CrystalGraph, "to_json_str")
    monkeypatch.setattr(crystal, "JSON_BLOCK_NODES", 3)
    for w, c, budget, _, digest in PINNED_DIGESTS:
        assert generate_crystal(Weight(len(w), w, c), budget).canonical_digest() == digest


def test_blocks_hold_no_sort_state_once_the_first_block_is_out():
    # the factor ranks and the list of node ids only serve the sort: after
    # the first block the serializer's own lists are the order and its inverse
    g = generate_crystal(Weight(3, (1, 1, 0), (0, 0, 0)), (8, 8, 8))
    blocks = g.json_blocks()
    assert next(blocks) == '{"budget":[8,8,8],"edges":['
    held = blocks.gi_frame.f_locals
    graph_lists = [*vars(g).values(), *g.columns]
    own = sorted(name for name, value in held.items() if isinstance(value, list)
                 and not any(value is v for v in graph_lists))
    assert own == ["order", "relabel"], own
    assert [held["relabel"][old] for old in held["order"]] == list(range(len(g)))


def _reference_json_str(g):
    """The dict-tree route the emitter replaced: a dict per node with a
    validated Weight, then json.dumps over the whole tree with sorted keys."""
    order = sorted(range(len(g.words)), key=lambda k: g.words[k])
    relabel = {old: new for new, old in enumerate(order)}
    nodes = [{
        "id": new,
        "word": [{"parts": list(parts), "charge": charge} for charge, parts in g.words[old]],
        "weight": g.weight_of(old).to_json(),
    } for new, old in enumerate(order)]
    edges = sorted(
        ({"from": relabel[a], "i": i, "to": relabel[b]} for (a, i), b in g.edges.items()),
        key=lambda e: (e["from"], e["i"]),
    )
    doc = {"lambda": g.lam.to_json(), "budget": list(g.budget), "nodes": nodes, "edges": edges}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


EMITTER_BUDGETS = {
    2: [(3, 3), (4, 1), (0, 0)],
    3: [(2, 2, 2), (3, 0, 1), (0, 0, 0)],
    4: [(1, 1, 1, 1), (2, 0, 1, 1), (0, 0, 0, 0)],
}


def _emitter_graphs(n):
    # delta-shifts by -1, 47, -120 and 305 give negative, two- and three-digit c
    for lam in dominant_bases(n, 2):
        for shift in (0, -1, 47, -120, 305):
            shifted = lowered(lam, (shift,) * n)
            for budget in EMITTER_BUDGETS[n]:
                yield generate_crystal(shifted, budget)


# Graphs of levels 3, 4 and 20,000 per n: words of many positions, ordered
# by one sort per position
DEEP_EMITTER_GRAPHS = {
    2: [((20000, 0), (1, 1)), ((2, 1), (5, 5)), ((3, 1), (5, 5))],
    3: [((2, 1, 0), (3, 3, 3)), ((2, 1, 1), (2, 2, 2))],
    4: [((1, 1, 1, 0), (2, 2, 2, 2))],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_to_json_str_matches_dict_tree(n):
    deep = (generate_crystal(Weight(n, w, (0,) * n), budget)
            for w, budget in DEEP_EMITTER_GRAPHS[n])
    for g in itertools.chain(_emitter_graphs(n), deep):
        assert g.to_json_str() == _reference_json_str(g), (g.lam, g.budget)


def _reference_dot(obj):
    """The dict-walk renderer the text reader replaced: DOT from the parsed document."""
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for node in obj["nodes"]:
        lines.append(f'  n{node["id"]} [label="c={node["weight"]["c"]}"];')
    for edge in obj["edges"]:
        color = palette[edge["i"] % len(palette)]
        lines.append(f'  n{edge["from"]} -> n{edge["to"]} [label="{edge["i"]}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dot_matches_dict_walk(n, monkeypatch):
    # At a slice of one character every slice is one record: the text and
    # the blocks are cut before every record of both sections.
    for slice_chars in (cli._DOT_SLICE_CHARS, 1):
        monkeypatch.setattr(cli, "_DOT_SLICE_CHARS", slice_chars)
        for g in _emitter_graphs(n):
            doc = g.to_json_str()
            want = _reference_dot(json.loads(doc))
            for text in (doc, g.json_blocks()):
                assert "".join(dot_from_graph_json(text)) == want, (slice_chars, g.lam, g.budget)


def _reference_graph():
    """The 20,471-node reference graph: n = 3, Lambda_0 + Lambda_1, depth 8."""
    return generate_crystal(Weight(3, (1, 1, 0), (0, 0, 0)), (8, 8, 8))


def test_dot_reads_each_section_with_its_own_pattern(monkeypatch):
    # The edge pattern reads only the edges section and the node pattern
    # only the nodes section, in slices of whole records, from the text and
    # from the blocks alike.
    class Recording:
        def __init__(self, pattern):
            self.pattern, self.read = pattern, []

        def findall(self, text, pos=0, endpos=None):
            self.read.append(text[pos:endpos])
            return self.pattern.findall(text, pos, len(text) if endpos is None else endpos)

    g = _reference_graph()
    want = _reference_dot(json.loads(g.to_json_str()))
    for doc in (g.to_json_str(), g.json_blocks()):
        edge, node = Recording(cli._DOC_EDGE), Recording(cli._DOC_NODE)
        monkeypatch.setattr(cli, "_DOC_EDGE", edge)
        monkeypatch.setattr(cli, "_DOC_NODE", node)
        assert "".join(dot_from_graph_json(doc)) == want
        assert edge.read and not any('"id":' in text for text in edge.read)
        assert node.read and not any('"from":' in text for text in node.read)
        # a slice runs on past its size only to the end of one record
        assert max(map(len, edge.read + node.read)) < cli._DOT_SLICE_CHARS + 1000


def test_dot_renders_in_less_than_one_and_a_half_times_its_length():
    # The rendered lines of each slice, never joined, are what is held, about
    # 1.1 times the DOT; joining them as well took 2.1 times, and the text
    # read whole by both patterns 4.5 times.
    import tracemalloc

    doc = _reference_graph().to_json_str()
    tracemalloc.start()
    try:
        chunks = dot_from_graph_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = sum(map(len, chunks))
    assert peak < 1.5 * length, (peak, length)


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocks_of_any_size_give_the_document(n, size, monkeypatch, tmp_path, capsys):
    # Blocks of 1 and 3 nodes split every document at many record
    # boundaries, empty edge blocks included; the joined text, and what the
    # CLI writes with no cache and through a cold and a warm cache, are the
    # dict-tree document and the dict-walk DOT all the same.
    monkeypatch.setattr(crystal, "JSON_BLOCK_NODES", size)
    for k, g in enumerate(_emitter_graphs(n)):
        want = _reference_json_str(g)
        assert g.to_json_str() == want, (g.lam, g.budget)
        want_dot = _reference_dot(json.loads(want))
        argv = ["crystal", "--lam", json.dumps(g.lam.to_json()),
                "--budget", ",".join(map(str, g.budget))]
        for fmt, doc in (("json", want + "\n"), ("dot", want_dot)):
            cache = ["--cache-dir", str(tmp_path / f"{k}.{fmt}")]
            for extra in ([], cache, cache):
                assert cli.main([*argv, "--format", fmt, *extra]) == 0
                assert capsys.readouterr() == (doc, ""), (g.lam, g.budget, fmt, extra)


def test_graph_json_schema():
    g = generate_crystal(fundamental_weight(2, 0), (1, 1))
    obj = json.loads(g.to_json_str())
    assert set(obj) == {"lambda", "budget", "nodes", "edges"}
    assert obj["lambda"] == {"n": 2, "w": [1, 0], "c": [0, 0]}
    assert obj["budget"] == [1, 1]
    ids = [node["id"] for node in obj["nodes"]]
    assert ids == list(range(len(ids)))
    for node in obj["nodes"]:
        assert set(node) == {"id", "word", "weight"}
        for factor in node["word"]:
            assert set(factor) == {"parts", "charge"}
    for edge in obj["edges"]:
        assert set(edge) == {"from", "i", "to"}
        assert 0 <= edge["from"] < len(ids) and 0 <= edge["to"] < len(ids)


def test_dot_export():
    g = generate_crystal(fundamental_weight(2, 0), (1, 1))
    dot = "".join(dot_from_graph_json(g.to_json_str()))
    assert dot.startswith("digraph crystal {")
    assert 'label="0"' in dot and 'label="1"' in dot
    assert dot.rstrip().endswith("}")


def test_node_weight_accessors():
    lam = Weight(3, (0, 1, 1), (0, 0, 0))
    g = generate_crystal(lam, (0, 1, 1))
    for node_id in range(len(g)):
        wt = g.weight_of(node_id)
        assert wt.w == lam.w
        assert wt.c == g.cvecs[node_id]
        node = g.node(node_id)
        assert node.lowering_counts() == g.cvecs[node_id]
        assert [f.charge for f in node.factors] == [1, 2]
