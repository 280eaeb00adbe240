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
A word is a tuple of factor ids in a FactorTable, which interns each
(charge, parts) factor once and memoizes its scan and its lowerings:
FactorTable.intern is the one place scan tables are filled, and word_scan
the one fold of them across a word.
"""

from .errors import ResourceCapError

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


class FactorTable:
    """Interned (charge, parts) factors of one generation, keyed by id.

    factors[id] is the factor, scans[id] its signature_scan table (computed
    once, when intern first sees the factor: the only place scans are
    stored) and lowered[id][i] the id of the factor with its good i-addable
    cell added, None until first asked for.  The good addable row depends
    only on the factor, so the lowered memo is exact.
    """

    def __init__(self, n):
        self.n = n
        self.factors = []
        self.scans = []
        self.lowered = []
        self.ids = {}

    def intern(self, factor):
        """The id of a (charge, parts) factor, interning it on first sight."""
        fid = self.ids.get(factor)
        if fid is None:
            fid = self.ids[factor] = len(self.factors)
            self.factors.append(factor)
            self.scans.append(signature_scan(factor[1], factor[0], self.n))
            self.lowered.append([None] * self.n)
        return fid


def expand_level(frontier, words, cvecs, index, edges, budget, table, node_cap):
    """Lower one BFS level in place and return the next frontier.

    words are tuples of factor ids in table, index maps each word to its
    node id, and edges[(parent, i)] receives the child's node id.  Each
    frontier node is lowered under every in-budget f_i, residues ascending;
    a child not yet in index is appended (its cvec computed then), which is
    what keeps generation deterministic.  Reaching node_cap nodes raises
    ResourceCapError before the node is stored.
    """
    scans, lowered, n = table.scans, table.lowered, table.n
    next_frontier = []
    for node_id in frontier:
        word, c = words[node_id], cvecs[node_id]
        tables = list(map(scans.__getitem__, word))
        for i in range(n):
            if c[i] >= budget[i]:
                continue
            _, phi, pos_f, _, add_row, _ = word_scan(tables, i)
            if phi == 0:
                continue
            f = word[pos_f]
            g = lowered[f][i]
            if g is None:
                charge, parts = table.factors[f]
                g = lowered[f][i] = table.intern((charge, add_cell(parts, add_row)))
            child = word[:pos_f] + (g,) + word[pos_f + 1 :]
            child_id = index.get(child)
            if child_id is None:
                child_id = len(words)
                if child_id >= node_cap:
                    raise ResourceCapError(node_cap, budget, child_id + 1)
                index[child] = child_id
                words.append(child)
                cvecs.append(c[:i] + (c[i] + 1,) + c[i + 1 :])
                next_frontier.append(child_id)
            edges[(node_id, i)] = child_id
    return next_frontier


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
