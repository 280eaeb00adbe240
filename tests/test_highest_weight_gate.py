"""Every query needs lambda dominant of level >= 1, and cartan.highest_pairings
is the one place that checks it: each command and library entry point
refuses a level-0 lambda with NoHighestWeightError and a non-dominant one
with DomainError, whatever mu is, before any early exit for mu."""

import json

import pytest

from affsat import (
    DomainError,
    NoHighestWeightError,
    Weight,
    attracting_component_count,
    enumerate_leaves,
    fixed_point_count,
    freudenthal_multiplicity,
    fundamental_weight,
    generate_crystal,
    is_weight_of,
    levi_branching,
    sheaf_multiplicity_table,
    tensor_fixed_points,
    tensor_highest_weights,
    tensor_weight_multiplicity,
    weight_multiplicity,
)
from affsat import freudenthal
from affsat.cartan import highest_pairings
from affsat.cli import main

from conftest import lowered

LEVEL_ZERO = Weight(2, (0, 0), (0, 0))
NON_DOMINANT = Weight(2, (1, 0), (1, 0))  # pairings (-1, 2), level 1
GOOD = fundamental_weight(2, 0)

# (lambda, the error it raises): NoHighestWeightError is a DomainError, so a
# non-dominant lambda must raise a DomainError that is not one.
BAD = [(LEVEL_ZERO, NoHighestWeightError), (NON_DOMINANT, DomainError)]


def above(lam):
    """lam + alpha_0: above lam, so never a weight of L(lam)."""
    return lowered(lam, (-1, 0))


def expect(error, call, *args):
    with pytest.raises(error) as exc:
        call(*args)
    assert error is NoHighestWeightError or not isinstance(exc.value, NoHighestWeightError)
    return exc.value


def test_highest_pairings():
    assert highest_pairings(GOOD) == (1, 0)
    assert highest_pairings(Weight(3, (0, 2, 1), (1, 1, 1))) == (0, 2, 1)  # minus delta
    err = expect(NoHighestWeightError, highest_pairings, LEVEL_ZERO)
    assert "level >= 1" in str(err)
    # -delta pairs to 0 everywhere: dominant, but of level 0
    expect(NoHighestWeightError, highest_pairings, Weight(3, (0, 0, 0), (1, 1, 1)))
    err = expect(DomainError, highest_pairings, NON_DOMINANT)
    assert "dominant" in str(err) and "(-1, 2)" in str(err)


@pytest.mark.parametrize("lam, error", BAD)
def test_library_entry_points_gate_lambda(lam, error):
    for mu in (lam, lowered(lam, (1, 1)), above(lam)):
        for call, args in [
            (weight_multiplicity, (lam, mu)),
            (levi_branching, (lam, mu, 0)),
            (enumerate_leaves, (lam, mu)),
            (freudenthal_multiplicity, (lam, mu)),
            (is_weight_of, (lam, mu)),
            (fixed_point_count, (lam, mu)),
            (attracting_component_count, (lam, mu)),
            (sheaf_multiplicity_table, (lam, mu, 0)),
        ]:
            expect(error, call, *args)
        for pair in [(lam, GOOD), (GOOD, lam)]:
            base = pair[0] + pair[1]
            for m in (base, above(base)):
                expect(error, tensor_weight_multiplicity, *pair, m)
                expect(error, tensor_fixed_points, *pair, m)
            expect(error, tensor_highest_weights, *pair, (1, 1))
    # the gate runs before the budget is read
    expect(error, generate_crystal, lam, (-1, 0))


def test_freudenthal_gates_only_on_a_memo_miss(monkeypatch):
    calls = []
    monkeypatch.setattr(freudenthal, "_memo", {})
    monkeypatch.setattr(freudenthal, "highest_pairings",
                        lambda lam: calls.append(lam) or highest_pairings(lam))
    for u in [(2, 2), (1, 1), (2, 2), (0, 0)]:
        freudenthal_multiplicity(GOOD, lowered(GOOD, u))
    assert calls == [GOOD]
    expect(NoHighestWeightError, freudenthal_multiplicity, LEVEL_ZERO, LEVEL_ZERO)
    assert LEVEL_ZERO not in freudenthal._memo


def test_tensor_rank_mismatch_builds_no_graph(monkeypatch):
    from affsat._backend import kernels

    calls = []
    expand_level = kernels.expand_level
    monkeypatch.setattr(kernels, "expand_level",
                        lambda *args: calls.append(1) or expand_level(*args))
    other = fundamental_weight(3, 0)
    for pair in [(GOOD, other), (other, GOOD)]:
        with pytest.raises(DomainError, match="different rank"):
            tensor_highest_weights(*pair, (1,) * pair[0].n)
        with pytest.raises(DomainError, match="different rank"):
            tensor_weight_multiplicity(*pair, pair[0])
    assert calls == []


def _json(lam):
    return json.dumps(lam.to_json())


def _cli_rows():
    """(argv, label) for every command form, each with a bad lambda."""
    rows = []
    for lam, _ in BAD:
        name = "level-0" if lam is LEVEL_ZERO else "non-dominant"
        mus = [("-v", "1,1"), ("--mu", _json(above(lam)))]
        for command in ("mult", "fixed", "branch", "leaves"):
            extra = ("-i", "0") if command == "branch" else ()
            for mu in mus:
                rows.append(((command, "--lam", _json(lam), *mu, *extra), name))
        for command in ("crystal", "check"):
            rows.append(((command, "--lam", _json(lam), "--depth", "1"), name))
        for pair in [(lam, GOOD), (GOOD, lam)]:
            factors = ("--lam1", _json(pair[0]), "--lam2", _json(pair[1]))
            rows.append((("tensor", *factors, "--depth", "1"), name))
            for command in ("mult", "fixed"):
                for mu in [("-v", "1,1"), ("--mu", _json(above(pair[0] + pair[1])))]:
                    rows.append(((command, *factors, *mu), name))
    return rows


@pytest.mark.parametrize("argv, label", _cli_rows())
def test_cli_refuses_a_bad_lambda(capsys, argv, label):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1, err
    needle = "level >= 1" if label == "level-0" else "must be dominant"
    assert needle in err, err
