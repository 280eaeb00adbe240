"""Pure-Python signature-rule kernels for residued partitions.

A partition is a tuple of weakly decreasing positive ints (canonical: no
trailing zeros), a cell (row, col) is 1-based, and its residue is
(col - row + charge) mod n.

The signature scan enumerates addable and removable cells by increasing row,
cancels addable-then-removable adjacencies per residue (parenthesis matching
with addable = open), and reports per residue:

    eps  = unpaired removables,
    phi  = unpaired addables,
    good addable row  = first (smallest-row) unpaired addable,
    good removable row = last (largest-row) unpaired removable,

with 0 standing for "none".  Adding the good addable is the lowering operator
of the level-1 crystal on partitions; removing the good removable raises.
On a word of (charge, parts) factors, word_scan folds what word_tables collects.
"""

IMPL = "python"


def signature_scan(parts, charge, n):
    """Per-residue (eps, phi, good_add_row, good_rem_row), as a tuple of n 4-tuples."""
    m = len(parts)
    stacks = [[] for _ in range(n)]
    eps = [0] * n
    last_rem = [0] * n
    for r in range(1, m + 2):
        row_len = parts[r - 1] if r <= m else 0
        # Addable cell at (r, row_len + 1): needs the row above to be longer.
        if r == 1 or parts[r - 2] > row_len:
            res = (row_len + 1 - r + charge) % n
            stacks[res].append(r)
        # Removable cell at (r, row_len): needs the row below to be shorter.
        if r <= m and row_len > (parts[r] if r < m else 0):
            res = (row_len - r + charge) % n
            if stacks[res]:
                stacks[res].pop()
            else:
                eps[res] += 1
                last_rem[res] = r
    return tuple(
        (eps[i], len(stacks[i]), stacks[i][0] if stacks[i] else 0, last_rem[i])
        for i in range(n)
    )


def word_scan(tables, i):
    """Signature fold across a word, given each factor's full scan table.

    Factor k contributes eps_k removables then phi_k addables at residue i;
    addable-then-removable adjacencies cancel across factor boundaries.
    Returns (eps, phi, pos_f, pos_e, add_row, rem_row): totals, the factor
    indices where lowering / raising act (-1 when undefined), and the good
    rows inside those factors.
    """
    eps = 0
    pos_e = -1
    rem_row = 0
    size = 0
    pos_f = -1
    add_row = 0
    for k, table in enumerate(tables):
        f_eps, f_phi, f_add, f_rem = table[i]
        if f_eps:
            if f_eps >= size:
                extra = f_eps - size
                size = 0
                if extra:
                    eps += extra
                    pos_e = k
                    rem_row = f_rem
            else:
                size -= f_eps
        if f_phi:
            if size == 0:
                pos_f = k
                add_row = f_add
            size += f_phi
    if size == 0:
        pos_f = -1
        add_row = 0
    return (eps, size, pos_f, pos_e, add_row, rem_row)


def word_tables(word, n, cache):
    """Each factor's signature_scan table, in word order, memoized in cache
    by (charge, parts) factor: the only place that memo is filled."""
    tables = []
    for factor in word:
        table = cache.get(factor)
        if table is None:
            table = cache[factor] = signature_scan(factor[1], factor[0], n)
        tables.append(table)
    return tables


def expand_level(words, cvecs, frontier, budget, n, cache):
    """Children of every frontier node under each in-budget lowering operator.

    Returns a list of (parent_id, residue, child_word, child_c) in frontier
    order with residues ascending, which is what keeps generation
    deterministic.
    """
    results = []
    for node_id in frontier:
        word, c = words[node_id], cvecs[node_id]
        tables = word_tables(word, n, cache)
        for i in range(n):
            if c[i] >= budget[i]:
                continue
            _, phi, pos_f, _, add_row, _ = word_scan(tables, i)
            if phi == 0:
                continue
            charge, parts = word[pos_f]
            child = word[:pos_f] + ((charge, add_cell(parts, add_row)),) + word[pos_f + 1 :]
            results.append((node_id, i, child, c[:i] + (c[i] + 1,) + c[i + 1 :]))
    return results


def residue_counts(parts, charge, n):
    """Number of cells of each residue, as a tuple of length n."""
    counts = [0] * n
    for r, row_len in enumerate(parts, start=1):
        full, rest = divmod(row_len, n)
        if full:
            for j in range(n):
                counts[j] += full
        start = (1 - r + charge) % n
        for k in range(rest):
            counts[(start + k) % n] += 1
    return tuple(counts)


def add_cell(parts, row):
    """Partition with one more cell at the end of the given 1-based row."""
    if row == len(parts) + 1:
        return parts + (1,)
    return parts[: row - 1] + (parts[row - 1] + 1,) + parts[row:]


def remove_cell(parts, row):
    """Partition with the last cell of the given 1-based row removed."""
    new = parts[row - 1] - 1
    if new == 0:
        return parts[: row - 1] + parts[row:]
    return parts[: row - 1] + (new,) + parts[row:]
