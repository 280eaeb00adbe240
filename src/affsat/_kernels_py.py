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
FactorTable.intern is the one place scan tables are filled.  fold cancels
them across a word for lowering only; raising is the fold of the mirrored
word (word_scan).  fold and word_scan serve the API-edge operators: a
(charge, parts) word is scanned by FactorTable.scan and lowered or raised by
FactorTable.act, the one place e_i and f_i act on a word outside the BFS
(the level-1 Fock crystal is its one-factor case).  The tier-1 reference
BFS holds the engine to them.

The BFS in expand_level runs the same lowering cancellation inline over
each word's factor ids, and lowers through the memo, because there the
fold runs once per (node, residue): a tables list per node and a fold call
per residue took about 0.4 s of the 1.8 s that generating the benchmark's
77 seed-1 graph_cold graphs took (2 cores, Python 3.11.7).  A finished
crystal graph keeps only its table's factors list, not the scans, memo or
ids.
"""

from .errors import DomainError, ResourceCapError

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


def fold(tables, i):
    """Lowering side of the signature rule across a word, at residue i.

    tables are the word's factors' scan tables.  Factor k contributes eps_k
    removables then phi_k addables; addable-then-removable adjacencies
    cancel across factor boundaries (expand_level runs the same loop inline).
    Returns (phi, pos_f, add_row): the surviving addables, the index of the
    factor owning the first of them and its good row there, or (0, -1, 0).
    """
    size = 0
    pos_f = -1
    add_row = 0
    for k, table in enumerate(tables):
        f_eps, f_phi, f_add, _ = table[i]
        if f_eps:
            size = size - f_eps if size > f_eps else 0
        if f_phi:
            if not size:
                pos_f = k
                add_row = f_add
            size += f_phi
    if not size:
        return 0, -1, 0
    return size, pos_f, add_row


def word_scan(tables, i):
    """Both sides of the signature rule across a word, by two folds.

    Raising is lowering of the mirrored word: factors reversed, each entry
    (eps, phi, add, rem) read as (phi, eps, rem, add), so its surviving
    addables are the word's surviving removables and its first one the
    word's last.  Returns (eps, phi, pos_f, pos_e, add_row, rem_row): totals,
    the factor indices where lowering / raising act (-1 when undefined), and
    the good rows inside those factors.
    """
    phi, pos_f, add_row = fold(tables, i)
    entries = [table[i] for table in reversed(tables)]
    mirrored = [((f_phi, f_eps, f_rem, f_add),) for f_eps, f_phi, f_add, f_rem in entries]
    eps, pos_m, rem_row = fold(mirrored, 0)
    pos_e = len(tables) - 1 - pos_m if eps else -1
    return (eps, phi, pos_f, pos_e, add_row, rem_row)


class FactorTable:
    """Interned (charge, parts) factors of one generation, keyed by id.

    factors[id] is the factor, scans[id] its signature_scan table (computed
    once, when intern first sees the factor: the only place scans are
    stored) and lowered[id][i] the id of the factor with its good i-addable
    cell added, None until first asked for.  The good addable row depends
    only on the factor, so the lowered memo is exact.  scan and act apply
    the signature rule to (charge, parts) words, interning their factors.
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

    def scan(self, word, i):
        """word_scan of a (charge, parts) word at residue i (mod n)."""
        return word_scan([self.scans[self.intern(f)] for f in word], i % self.n)

    def act(self, word, i, direction):
        """f_i (direction="lower") or e_i (direction="raise") on a (charge, parts)
        word; None at a string end."""
        if direction not in ("lower", "raise"):
            raise DomainError(f'direction must be "lower" or "raise", got {direction!r}')
        _, _, pos_f, pos_e, add_row, rem_row = self.scan(word, i)
        lower = direction == "lower"
        pos = pos_f if lower else pos_e
        if pos < 0:
            return None
        charge, parts = word[pos]
        parts = add_cell(parts, add_row) if lower else remove_cell(parts, rem_row)
        return word[:pos] + ((charge, parts),) + word[pos + 1 :]


def expand_level(frontier, words, cvecs, index, slots, budget, table, node_cap):
    """Lower one BFS level in place and return the next frontier.

    words are tuples of factor ids in table, index maps each word to its
    node id, and slots holds n edge slots per node: slots[parent * n + i] is
    the child's node id, -1 while there is no f_i-edge.  Each frontier node
    is lowered under every in-budget f_i, residues ascending; a child not
    yet in index is appended with n empty slots and its cvec, which is what
    keeps generation deterministic.  Nodes of one cvec all lie in one level,
    so the children made under f_i from one parent cvec share one cvec tuple.
    Reaching node_cap nodes raises ResourceCapError before the node is
    stored.

    Each (node, residue) runs fold(tables, i) inline over the word's factor
    ids: factor 0's removables meet no addable before them, so its entry
    opens the fold and the later factors cancel against it as in fold.
    Every word of one build has the same length, the level; at level 1 the
    child is the lowered factor alone, with no slicing.
    """
    scans, lowered, factors, n = table.scans, table.lowered, table.factors, table.n
    intern, find = table.intern, index.get
    empty = [-1] * n
    residues = range(n)
    rest = range(1, len(words[0]))
    child_cvecs = {}
    next_frontier = []
    add_word, add_cvec, add_next = words.append, cvecs.append, next_frontier.append
    for node_id in frontier:
        word, c = words[node_id], cvecs[node_id]
        base = node_id * n
        for i in residues:
            if c[i] >= budget[i]:
                continue
            _, size, add_row, _ = scans[word[0]][i]
            pos_f = 0
            for k in rest:
                f_eps, f_phi, f_add, _ = scans[word[k]][i]
                if f_eps:
                    size = size - f_eps if size > f_eps else 0
                if f_phi:
                    if not size:
                        pos_f = k
                        add_row = f_add
                    size += f_phi
            if not size:
                continue
            f = word[pos_f]
            g = lowered[f][i]
            if g is None:
                charge, parts = factors[f]
                g = lowered[f][i] = intern((charge, add_cell(parts, add_row)))
            child = word[:pos_f] + (g,) + word[pos_f + 1 :] if rest else (g,)
            child_id = find(child)
            if child_id is None:
                child_id = len(words)
                if child_id >= node_cap:
                    raise ResourceCapError(node_cap, budget, child_id + 1)
                index[child] = child_id
                add_word(child)
                cc = child_cvecs.get((c, i))
                if cc is None:
                    cc = child_cvecs[(c, i)] = c[:i] + (c[i] + 1,) + c[i + 1 :]
                add_cvec(cc)
                slots.extend(empty)
                add_next(child_id)
            slots[base + i] = child_id
    return next_frontier


def residue_counts(parts, charge, n):
    """Number of cells of each residue, as a tuple of length n."""
    counts = [0] * n
    for row, row_len in enumerate(parts, start=1):
        for col in range(1, row_len + 1):
            counts[(col - row + charge) % n] += 1
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
