"""Properties of the signature-rule kernels, checked against cell-by-cell
recounts and against the signature rule on a word read symbol by symbol."""

import random

import pytest

from affsat import _kernels_py as kernels

from conftest import all_partitions


def test_residue_counts_against_cells():
    for parts in all_partitions(7):
        for n in (2, 3, 4):
            for charge in range(n):
                counts = [0] * n
                for row, row_len in enumerate(parts, start=1):
                    for col in range(1, row_len + 1):
                        counts[(col - row + charge) % n] += 1
                assert kernels.residue_counts(parts, charge, n) == tuple(counts)


def test_add_remove_cells():
    assert kernels.add_cell((), 1) == (1,)
    assert kernels.add_cell((2, 1), 2) == (2, 2)
    assert kernels.add_cell((2, 1), 3) == (2, 1, 1)
    assert kernels.remove_cell((2, 1), 2) == (2,)
    assert kernels.remove_cell((2, 1), 1) == (1, 1)
    assert kernels.remove_cell((1,), 1) == ()


def _boundary(parts, charge, n):
    """Addable and removable cells of each residue, counted row by row."""
    rows = len(parts)
    addable = [0] * n
    removable = [0] * n
    for r in range(1, rows + 2):
        row_len = parts[r - 1] if r <= rows else 0
        if r == 1 or parts[r - 2] > row_len:
            addable[(row_len + 1 - r + charge) % n] += 1
        if r <= rows and row_len > (parts[r] if r < rows else 0):
            removable[(row_len - r + charge) % n] += 1
    return addable, removable


def test_scan_counts_match_boundary():
    """phi - eps equals addables minus removables at each residue."""
    for parts in all_partitions(7):
        for n in (2, 3):
            for charge in range(n):
                addable, removable = _boundary(parts, charge, n)
                scan = kernels.signature_scan(parts, charge, n)
                for i in range(n):
                    eps, phi, add_row, rem_row = scan[i]
                    assert phi - eps == addable[i] - removable[i]
                    assert (add_row > 0) == (phi > 0)
                    assert (rem_row > 0) == (eps > 0)


def test_scan_shares_its_empty_entry():
    # at n = 200 a small partition has a cell at few residues: every other
    # residue's entry is one shared object, not a 4-tuple each
    n = 200
    for parts in all_partitions(7):
        for charge in (0, 100, 199):
            addable, removable = _boundary(parts, charge, n)
            with_a_cell = sum(a + r > 0 for a, r in zip(addable, removable))
            scan = kernels.signature_scan(parts, charge, n)
            assert len(set(map(id, scan))) <= with_a_cell + 1, (parts, charge)


def _reference_word_scan(tables, i):
    """The signature rule by definition: each factor contributes its eps
    removables ("-") then its phi addables ("+"), a stack cancels each "+"
    against the next unmatched "-", and everything is read off the surviving
    symbols.  A factor's first "+" carries its good addable row and its last
    "-" its good removable row; only those rows can be read off."""
    symbols = []
    for k, table in enumerate(tables):
        f_eps, f_phi, f_add, f_rem = table[i]
        symbols += [("-", k, None)] * (f_eps - 1) + [("-", k, f_rem)] * (f_eps > 0)
        symbols += [("+", k, f_add)] * (f_phi > 0) + [("+", k, None)] * (f_phi - 1)
    removables, addables = [], []
    for symbol in symbols:
        if symbol[0] == "+":
            addables.append(symbol)
        elif addables:
            addables.pop()
        else:
            removables.append(symbol)
    _, pos_f, add_row = addables[0] if addables else ("+", -1, 0)
    _, pos_e, rem_row = removables[-1] if removables else ("-", -1, 0)
    assert add_row is not None and rem_row is not None
    return (len(removables), len(addables), pos_f, pos_e, add_row, rem_row)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_scan_matches_the_signature_rule(n):
    rng = random.Random(1000 + n)
    partitions = all_partitions(8)
    checked = 0
    for level in range(1, 6):
        for _ in range(300):
            tables = [kernels.signature_scan(rng.choice(partitions), rng.randrange(n), n)
                      for _ in range(level)]
            for i in range(n):
                expected = _reference_word_scan(tables, i)
                assert kernels.word_scan(tables, i) == expected, (tables, i)
                checked += expected[0] > 0 and expected[1] > 0
    # words where both operators act, so both sides of the pass are exercised
    assert checked > 100
