"""Level-1 crystals realized on integer partitions with mod-n residues.

A charged partition (p, charge) models a node of the level-1 crystal with
highest weight Lambda_charge: the cell (row, col) carries the residue
(col - row + charge) mod n, lowering by f_i adds the good addable i-cell,
raising by e_i removes the good removable i-cell, and the weight is
Lambda_charge minus one alpha_j per residue-j cell.  The empty partition is
the unique highest-weight node.

Good cells come from the signature rule in affsat._kernels_py; see that
module for the reading-order convention.  e_i and f_i are
kernels.act_on_word on the one-factor word ((charge, parts),), the same
rule the higher-level crystals apply to longer words.  Which convention is
used does not matter up to isomorphism, and the test suite enforces the
crystal axioms rather than a particular picture.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index as as_int

from . import _kernels_py as kernels
from .cartan import Frozen, Weight, check_rank
from .errors import DomainError

_set = object.__setattr__


def canonical_parts(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition: drop trailing zeros, keep order."""
    parts = tuple(as_int(x) for x in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(x <= 0 for x in parts):
        raise DomainError(f"partition parts must be positive: {parts!r}")
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        raise DomainError(f"partition parts must be weakly decreasing: {parts!r}")
    return parts


def cell_residue(row: int, col: int, charge: int, n: int) -> int:
    """Residue (col - row + charge) mod n of the cell at (row, col), 1-based."""
    check_rank(n)
    if row < 1 or col < 1:
        raise DomainError("cells are 1-based: row and col must be >= 1")
    return (col - row + charge) % n


class ChargedPartition(Frozen):
    """A partition with a residue charge: one node of a level-1 crystal."""

    __slots__ = ("parts", "charge", "n")

    def __init__(self, parts, charge: int, n: int):
        _set(self, "parts", parts)
        _set(self, "charge", charge)
        _set(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        check_rank(self.n)
        _set(self, "parts", canonical_parts(self.parts))
        if not 0 <= self.charge < self.n:
            raise DomainError(f"charge must lie in 0..{self.n - 1}, got {self.charge}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts and self.charge == other.charge and self.n == other.n

    def __hash__(self):
        return hash((self.parts, self.charge, self.n))

    def __repr__(self):
        return f"ChargedPartition(parts={self.parts!r}, charge={self.charge!r}, n={self.n!r})"

    def size(self) -> int:
        return sum(self.parts)

    def to_json(self) -> dict:
        return {"parts": list(self.parts), "charge": self.charge}

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "ChargedPartition":
        """Partition from {"parts": [int, ...], "charge": int}, without coercion."""
        try:
            parts, charge = obj["parts"], obj["charge"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed partition JSON: {obj!r}") from exc
        if not (type(charge) is int and type(parts) is list
                and all(type(x) is int for x in parts)):
            raise DomainError(f"malformed partition JSON: {obj!r}: charge and parts "
                              f"must be integers")
        return cls(tuple(parts), charge, n)


# Raising/lowering capacity at one residue, with the selected good cells
# ((row, col), or None).
EpsPhi = namedtuple("EpsPhi", "eps phi good_addable good_removable")


def _cell_at(parts: tuple[int, ...], row: int, added: bool) -> tuple[int, int]:
    if added:
        col = (parts[row - 1] + 1) if row <= len(parts) else 1
    else:
        col = parts[row - 1]
    return (row, col)


def eps_phi(b: ChargedPartition, i: int) -> EpsPhi:
    """Signature-rule counts and good cells of b at residue i."""
    i %= b.n
    e, p, add_row, rem_row = kernels.signature_scan(b.parts, b.charge, b.n)[i]
    return EpsPhi(
        eps=e,
        phi=p,
        good_addable=_cell_at(b.parts, add_row, True) if p > 0 else None,
        good_removable=_cell_at(b.parts, rem_row, False) if e > 0 else None,
    )


def apply_root_operator(b: ChargedPartition, i: int, direction: str) -> ChargedPartition | None:
    """f_i (direction="lower") or e_i (direction="raise"); None at a string end."""
    word = kernels.act_on_word(((b.charge, b.parts),), i, direction, b.n)
    return None if word is None else ChargedPartition(word[0][1], b.charge, b.n)


def fock_weight(b: ChargedPartition) -> Weight:
    """Lambda_charge lowered once by alpha_j for every residue-j cell."""
    w = [0] * b.n
    w[b.charge] = 1
    return Weight(b.n, tuple(w), kernels.residue_counts(b.parts, b.charge, b.n))
