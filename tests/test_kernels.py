"""Properties of the signature-rule kernels, checked against cell-by-cell
recounts."""

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


def test_scan_counts_match_boundary():
    """phi - eps equals addables minus removables at each residue."""
    for parts in all_partitions(7):
        rows = len(parts)
        for n in (2, 3):
            for charge in range(n):
                addable = [0] * n
                removable = [0] * n
                for r in range(1, rows + 2):
                    row_len = parts[r - 1] if r <= rows else 0
                    if r == 1 or parts[r - 2] > row_len:
                        addable[(row_len + 1 - r + charge) % n] += 1
                    if r <= rows and row_len > (parts[r] if r < rows else 0):
                        removable[(row_len - r + charge) % n] += 1
                scan = kernels.signature_scan(parts, charge, n)
                for i in range(n):
                    eps, phi, add_row, rem_row = scan[i]
                    assert phi - eps == addable[i] - removable[i]
                    assert (add_row > 0) == (phi > 0)
                    assert (rem_row > 0) == (eps > 0)
