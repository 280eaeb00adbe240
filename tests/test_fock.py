import copy
import pickle

import pytest

from affsat import (
    ChargedPartition,
    DomainError,
    Weight,
    apply_root_operator,
    cell_residue,
    eps_phi,
    fock_weight,
    fundamental_weight,
    generate_crystal,
)

from conftest import all_partitions


def test_cell_residue_examples():
    assert cell_residue(1, 1, 0, 2) == 0
    assert cell_residue(2, 1, 0, 2) == 1
    assert cell_residue(1, 3, 1, 3) == 0


def test_cell_residue_validation():
    with pytest.raises(DomainError):
        cell_residue(0, 1, 0, 2)


def test_canonical_form():
    assert ChargedPartition((3, 1, 0, 0), 0, 2).parts == (3, 1)
    with pytest.raises(DomainError):
        ChargedPartition((1, 2), 0, 2)
    with pytest.raises(DomainError):
        ChargedPartition((2, -1), 0, 2)
    with pytest.raises(DomainError):
        ChargedPartition((), 2, 2)


def test_eps_phi_empty():
    b = ChargedPartition((), 0, 2)
    r0 = eps_phi(b, 0)
    assert (r0.eps, r0.phi) == (0, 1)
    assert r0.good_addable == (1, 1)
    assert r0.good_removable is None
    r1 = eps_phi(b, 1)
    assert (r1.eps, r1.phi) == (0, 0)
    assert r1.good_addable is None


def test_eps_phi_single_cell():
    # both addable 1-cells of (1) survive cancellation: phi - eps must be 2
    b = ChargedPartition((1,), 0, 2)
    r = eps_phi(b, 1)
    assert (r.eps, r.phi) == (0, 2)
    assert r.good_addable in ((1, 2), (2, 1))


def test_root_operator_examples():
    empty = ChargedPartition((), 0, 2)
    assert apply_root_operator(empty, 0, "lower") == ChargedPartition((1,), 0, 2)
    assert apply_root_operator(empty, 0, "raise") is None
    b = ChargedPartition((1,), 0, 2)
    fb = apply_root_operator(b, 1, "lower")
    assert apply_root_operator(fb, 1, "raise") == b


def test_root_operator_direction_validation():
    with pytest.raises(DomainError):
        apply_root_operator(ChargedPartition((), 0, 2), 0, "sideways")


def test_fock_weight_examples():
    assert fock_weight(ChargedPartition((), 0, 2)) == fundamental_weight(2, 0)
    assert fock_weight(ChargedPartition((1,), 0, 2)) == Weight(2, (1, 0), (1, 0))
    assert fock_weight(ChargedPartition((2, 1), 0, 2)) == Weight(2, (1, 0), (1, 2))


def test_fock_weight_matches_cell_residues():
    for parts in all_partitions(6):
        for n in (2, 3):
            for charge in range(n):
                counts = [0] * n
                for row, row_len in enumerate(parts, start=1):
                    for col in range(1, row_len + 1):
                        counts[cell_residue(row, col, charge, n)] += 1
                assert fock_weight(ChargedPartition(parts, charge, n)).c == tuple(counts)


def test_crystal_axioms_exhaustive():
    """Axioms over every partition with at most 8 cells, all charges, n = 2, 3."""
    for n in (2, 3):
        for parts in all_partitions(8):
            for charge in range(n):
                b = ChargedPartition(parts, charge, n)
                wt = fock_weight(b)
                for i in range(n):
                    r = eps_phi(b, i)
                    assert r.phi - r.eps == wt.pairing(i)
                    fb = apply_root_operator(b, i, "lower")
                    assert (fb is None) == (r.phi == 0)
                    if fb is not None:
                        assert apply_root_operator(fb, i, "raise") == b
                        r2 = eps_phi(fb, i)
                        assert r2.eps == r.eps + 1
                        assert r2.phi == r.phi - 1
                        assert fock_weight(fb) == wt.minus_alpha(i)
                    eb = apply_root_operator(b, i, "raise")
                    assert (eb is None) == (r.eps == 0)
                    if eb is not None:
                        assert apply_root_operator(eb, i, "lower") == b


def test_unique_highest_node_in_component():
    # among nodes reachable from the empty partition the only one killed by
    # every e_i is the empty partition itself
    for n in (2, 3):
        graph = generate_crystal(fundamental_weight(n, 0), (3,) * n)
        eps = [graph.eps(i) for i in range(n)]
        singular = [node_id for node_id, e in enumerate(zip(*eps)) if not any(e)]
        assert len(singular) == 1
        assert graph.words[singular[0]] == ((0, ()),)


def test_partition_json():
    b = ChargedPartition((2, 1), 0, 3)
    assert b.to_json() == {"parts": [2, 1], "charge": 0}
    assert ChargedPartition.from_json({"parts": [2, 1], "charge": 0}, 3) == b
    for obj in [
        {"parts": [2, 1], "charge": True},
        {"parts": [2, 1], "charge": 1.7},
        {"parts": [2, True], "charge": 0},
        {"parts": [2, 1], "charge": "x"},
        {},
    ]:
        with pytest.raises(DomainError, match="malformed partition JSON"):
            ChargedPartition.from_json(obj, 3)


def test_charged_partition_is_an_immutable_value():
    b = ChargedPartition([2, 1, 0], 1, 3)
    assert (b.parts, b.charge, b.n) == ((2, 1), 1, 3)
    for field in ("parts", "charge", "n"):
        with pytest.raises(AttributeError):
            setattr(b, field, 0)
    same = ChargedPartition((2, 1), 1, 3)
    assert b == same and hash(b) == hash(same) == hash(((2, 1), 1, 3))
    assert b != ChargedPartition((2, 1), 0, 3) and b != ((2, 1), 1, 3)
    assert repr(b) == "ChargedPartition(parts=(2, 1), charge=1, n=3)"
    assert copy.copy(b) == b and pickle.loads(pickle.dumps(b)) == b
