"""Higher-level crystals: tensor words of charged partitions, truncated graph
generation, weight multiplicities, Levi branching and tensor decomposition.

A node of the crystal with dominant highest weight lambda is a word of
level(lambda) charged partitions whose charges are the canonical charge list
of lambda (residue i repeated <lambda, h_i> times, increasing); the node's
weight is lambda lowered by the residue counts of its cells.  Raising and
lowering act through the signature rule over the concatenated word: each
factor contributes its unpaired removables then its unpaired addables, blocks
are cancelled addable-then-removable across factor boundaries, lowering acts
on the factor owning the first surviving addable and raising on the factor
owning the last surviving removable.  For a single factor this degenerates to
the level-1 rule in affsat.fock.

Truncation is exact: lowering coefficients only ever grow along f-edges, so
the breadth-first closure under all f_i within a componentwise budget misses
nothing at the weights it covers.  Results are a deterministic function of
(lambda, budget), and a finished graph is immutable for all practical
purposes.  The signature rule runs only where a word is lowered or raised;
a finished graph reads eps_i off its i-edges (CrystalGraph.eps).

Generation works on words of factor ids: each build owns one
kernels.FactorTable, which interns every (charge, parts) factor once, stores
its signature scan (the one memo fill) and memoizes its lowerings, and
kernels.expand_level lowers and dedups a whole BFS level.  It runs only the
lowering side of the signature rule, the cancellation of kernels.fold
inline over each word's factor ids, and lowers through the memo; with no
tables list and no fold call per (node, residue), generation of the
benchmark's 77 seed-1 graph_cold graphs got about a quarter faster.  A
finished graph keeps only the table's factors list; the scans, the memo and
the intern dict go when the build returns.  Outside the BFS,
tensor_eps_phi and apply_tensor_operator are FactorTable.scan and
FactorTable.act on a fresh table, which run fold and word_scan (raising
folds the mirrored word).  A graph keeps its f-edges as flat slots, n per
node (slots[node * n + i] is the f_i-child or -1); CrystalGraph.edges, the
read-only {(from, i): to} mapping of them, is built on first read, which no
CLI command makes.  Nodes lowered under f_i from one cvec share one child
cvec tuple.  The kernel module is imported directly; affsat._backend names
it only for the benchmark's tracer and backend_name().
The cyclic collector is paused for the BFS, which allocates nothing it
could free, and the caller's setting restored after.  (charge, parts) words
are materialized only at the API edge (CrystalGraph.words, node()).
The canonical document comes from one serializer, CrystalGraph.json_blocks:
blocks of whole records, one % format per JSON_BLOCK_NODES nodes or their
edges, for a writer to consume as they come.  The text of each distinct
weight is built once, before the node blocks, and a node block's arguments
are slice-assigned from one comprehension per record field and word
position, with no per-node loop.  to_json_str joins the blocks and
canonical_digest hashes them, one block at a time.

The multiplicity queries build no graph: weight multiplicities and tensor
splittings are Freudenthal multiplicities, asked by the lowering vectors a
query holds (freudenthal.multiplicity_at), Levi branching their sl2 string
differences, and tensor decomposition the affine Racah-Speiser sum.  The
tensor sum and the splittings read each factor's multiplicities off one
flat table of their box (freudenthal.box_multiplicities), by offset, and
the tensor sum finds its dominant kappa on one walk of the box with its
pairings (cartan.box_pairings).  Tier-1 holds them to the graph routes they
replaced (node counts, e_i-killed nodes, the tensor-product rule over
B(lambda2)); `affsat check` holds the node counts to Freudenthal.  Each box
they walk (the sl2 string, the tensor budget, the splittings of u) comes
from cartan.box_points, which counts its points before the first and
refuses more than DEFAULT_NODE_CAP.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import cached_property
from operator import le, mul, sub
from types import MappingProxyType

from . import _kernels_py as kernels
from . import freudenthal
from .cartan import (
    CONVENTION_ID,
    DEFAULT_NODE_CAP,
    Weight,
    box_pairings,
    box_points,
    box_strides,
    canonical_dumps,
    dominant_lowering,
    highest_pairings,
    lowering_vector,
    validate_budget,
    weyl_orbit_lowerings,
)
from .errors import ConsistencyError
from .fock import ChargedPartition

# Nodes per block of the canonical document (CrystalGraph.json_blocks): each
# block is one % format over this many nodes, or over their edges.
JSON_BLOCK_NODES = 4096

# A factor is (charge, parts); a word is a tuple of factors, an id word a
# tuple of factor ids in a FactorTable.
Factor = tuple[int, tuple[int, ...]]
Word = tuple[Factor, ...]
IdWord = tuple[int, ...]


def canonical_charges(lam: Weight) -> tuple[int, ...]:
    """Charge list of lambda: residue i repeated <lambda, h_i> times, increasing."""
    pairings = highest_pairings(lam)
    return tuple(i for i in range(lam.n) for _ in range(pairings[i]))


class CrystalNode(namedtuple("CrystalNode", "n word")):
    """A tensor word of charged partitions."""

    __slots__ = ()

    @property
    def factors(self) -> tuple[ChargedPartition, ...]:
        return tuple(ChargedPartition(parts, charge, self.n) for charge, parts in self.word)

    def lowering_counts(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for charge, parts in self.word:
            for j, x in enumerate(kernels.residue_counts(parts, charge, self.n)):
                counts[j] += x
        return tuple(counts)


# Word-level signature data: totals plus the factor each operator acts in
# (None where it does not act).
TensorEpsPhi = namedtuple("TensorEpsPhi", "eps phi position_f position_e")


def tensor_eps_phi(node: CrystalNode, i: int) -> TensorEpsPhi:
    """Totals eps_i, phi_i of a word and where f_i / e_i would act."""
    eps, phi, pos_f, pos_e, _, _ = kernels.FactorTable(node.n).scan(node.word, i)
    return TensorEpsPhi(eps, phi, pos_f if pos_f >= 0 else None, pos_e if pos_e >= 0 else None)


def apply_tensor_operator(node: CrystalNode, i: int, direction: str) -> CrystalNode | None:
    """Word-level f_i / e_i; None at a string end."""
    word = kernels.FactorTable(node.n).act(node.word, i, direction)
    return None if word is None else CrystalNode(node.n, word)


class CrystalGraph:
    """Truncated crystal graph: nodes reachable from the highest-weight word
    by f-edges whose lowering stays within the budget.

    Nodes are id words over factors, the build FactorTable's (charge, parts)
    factors by id; words materializes them on first use.  slots holds the
    f-edges, n per node: slots[from * n + i] is the f_i-child of from, or -1
    where there is none."""

    def __init__(self, lam: Weight, budget: tuple[int, ...], factors: list[Factor],
                 id_words: list[IdWord], cvecs: list[tuple[int, ...]], slots: list[int]):
        self.lam = lam
        self.n = lam.n
        self.budget = budget
        self.factors = factors
        self.id_words = id_words
        self.cvecs = cvecs
        self.slots = slots

    def __len__(self) -> int:
        return len(self.id_words)

    @cached_property
    def words(self) -> list[Word]:
        factors = self.factors
        return [tuple([factors[f] for f in word]) for word in self.id_words]

    @cached_property
    def edges(self) -> MappingProxyType:
        """Read-only {(from, i): to} mapping of the f-edges, in ascending
        (from, i); built on first read."""
        n = self.n
        return MappingProxyType({divmod(k, n): b for k, b in enumerate(self.slots) if b >= 0})

    def node(self, node_id: int) -> CrystalNode:
        return CrystalNode(self.n, tuple(map(self.factors.__getitem__, self.id_words[node_id])))

    def weight_of(self, node_id: int) -> Weight:
        return self.lam.lowered(self.cvecs[node_id])

    def weight_counts(self) -> Counter[tuple[int, ...]]:
        """Node counts per lowering vector (relative to lambda)."""
        return Counter(self.cvecs)

    def eps(self, i: int) -> list[int]:
        """eps_i of every node: the length of the chain of i-edges into it.

        e_i only lowers c_i, so the whole i-string above a node lies inside
        the budget.  A child's id exceeds its parent's, so one pass over the
        i-slots in node order finishes a parent's value before its child's.
        """
        eps = [0] * len(self.id_words)
        for a, b in enumerate(self.slots[i % self.n :: self.n]):
            if b >= 0:
                eps[b] = eps[a] + 1
        return eps

    # -- canonical serialization ------------------------------------------

    def to_json_obj(self) -> dict:
        return json.loads(self.to_json_str())

    def to_json_str(self) -> str:
        """The canonical document as one string: the join of json_blocks()."""
        return "".join(self.json_blocks())

    def json_blocks(self) -> Iterator[str]:
        """The canonical document, written as text in blocks of whole
        records; the only serializer.

        Nodes are numbered in increasing word order and edges sorted by
        (from, i).  Keys are sorted at every level, as canonical_dumps
        would write them:

            {"budget":[..],"edges":[{"from":..,"i":..,"to":..},..],
             "lambda":{"c":[..],"n":..,"w":[..]},
             "nodes":[{"id":..,"weight":{"c":[..],"n":..,"w":[..]},
                       "word":[{"charge":..,"parts":[..]},..]},..]}

        A node's weight is lambda lowered by its cvec.  The node order is
        computed here, before the first block; each block then comes from
        one % format over JSON_BLOCK_NODES nodes, or over their edges, so
        no block splits a record and only one block's arguments are held
        at a time.
        """
        # The charge at each word position is the same in every word, so
        # words order as the tuples of their factors' ranks, and so as those
        # ranks read as the digits of one int in base len(factors).
        coded = self.id_words
        factors = self.factors
        rank = [0] * len(factors)
        for r, k in enumerate(sorted(range(len(factors)), key=factors.__getitem__)):
            rank[k] = r
        base = len(factors)
        keys = [0] * len(coded)
        for k in range(len(coded[0])):
            keys = [key * base + rank[word[k]] for key, word in zip(keys, coded)]
        # order and relabel share one int object per node id, not one each
        ids = list(range(len(coded)))
        order = sorted(ids, key=keys.__getitem__)
        del keys
        relabel = ids.copy()
        for new, old in zip(ids, order):
            relabel[old] = new
        return self._blocks(order, relabel)

    def _blocks(self, order: list[int], relabel: list[int]) -> Iterator[str]:
        """json_blocks' blocks, nodes numbered by order and relabel."""
        coded, n, slots, cvecs = self.id_words, self.n, self.slots, self.cvecs
        size = JSON_BLOCK_NODES
        spans = range(0, len(order), size)
        residues = range(n)
        yield f'{{"budget":{canonical_dumps(list(self.budget))},"edges":['
        sep = ""
        for start in spans:
            edge_args = []
            for new, old in enumerate(order[start : start + size], start):
                base = old * n
                for i in residues:
                    b = slots[base + i]
                    if b >= 0:
                        edge_args += (new, i, relabel[b])
            if edge_args:
                edges = ",".join(['{"from":%d,"i":%d,"to":%d}'] * (len(edge_args) // 3))
                yield sep + edges % tuple(edge_args)
                sep = ","
        yield f'],"lambda":{canonical_dumps(self.lam.to_json())},"nodes":['

        factor_text = [f'{{"charge":{charge},"parts":{_ints(parts)}}}'
                       for charge, parts in self.factors]
        lam_c = self.lam.c
        weight_tail = f',"n":{n},"w":{canonical_dumps(list(self.lam.w))}}}'
        weight_text = {cvec: '{"c":' + _ints([a + b for a, b in zip(lam_c, cvec)]) + weight_tail
                       for cvec in set(cvecs)}
        # a node record's % arguments are its id, its weight text and one
        # factor text per word position, each slice-assigned from one
        # comprehension over the block
        width = 2 + len(coded[0])
        record = '{"id":%d,"weight":%s,"word":[' + ",".join(["%s"] * (width - 2)) + "]}"
        for start in spans:
            block = order[start : start + size]
            node_args = [None] * (width * len(block))
            node_args[::width] = range(start, start + len(block))
            node_args[1::width] = [weight_text[cvecs[old]] for old in block]
            for pos in range(2, width):
                node_args[pos::width] = [factor_text[coded[old][pos - 2]] for old in block]
            nodes = ",".join([record] * len(block))
            yield ("," if start else "") + nodes % tuple(node_args)
        yield "]}"

    def canonical_digest(self) -> str:
        """sha256 hex digest of the canonical document, hashed block by block."""
        import hashlib

        digest = hashlib.sha256()
        for block in self.json_blocks():
            digest.update(block.encode())
        return digest.hexdigest()


def _ints(xs) -> str:
    return "[" + ",".join(map(str, xs)) + "]"


def generate_crystal(lam: Weight, budget, *, node_cap: int = DEFAULT_NODE_CAP) -> CrystalGraph:
    """Breadth-first closure of the highest-weight word under all f_i within budget.

    The node set and edge map depend only on (lambda, budget).  Exceeding
    node_cap raises ResourceCapError naming the cap.
    """
    charges = canonical_charges(lam)
    n = lam.n
    budget = validate_budget(n, budget)
    table = kernels.FactorTable(n)

    hw: IdWord = tuple(table.intern((ch, ())) for ch in charges)
    words: list[IdWord] = [hw]
    cvecs: list[tuple[int, ...]] = [(0,) * n]
    index: dict[IdWord, int] = {hw: 0}
    slots = [-1] * n

    # Nothing the BFS allocates can form a cycle (tuples and lists of ints,
    # dicts of them), so a collector pass during it would free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        frontier = [0]
        while frontier:
            frontier = kernels.expand_level(frontier, words, cvecs, index, slots, budget, table,
                                            node_cap)
    finally:
        if enabled:
            gc.enable()

    return CrystalGraph(lam, budget, table.factors, words, cvecs, slots)


def weight_multiplicity(lam: Weight, mu: Weight) -> int:
    """dim of the mu weight space of the highest-weight module for lambda.

    The Freudenthal multiplicity, with no graph; tier-1 and `affsat check`
    hold it to the crystal's node count at mu.
    """
    return freudenthal.freudenthal_multiplicity(lam, mu)


def levi_branching(lam: Weight, mu: Weight, i: int) -> dict[int, int]:
    """Multiplicities of the rank-1 restriction at node i.

    m_k, the sl2 highest-weight vectors at node i of weight mu + k alpha_i,
    is the string difference mult(mu + k alpha_i) - mult(mu + (k+1) alpha_i)
    of Freudenthal multiplicities where <mu + k alpha_i, h_i> >= 0, and 0
    elsewhere.  A negative difference raises ConsistencyError.
    """
    highest_pairings(lam)
    i %= lam.n
    u = lowering_vector(lam, mu)
    if u is None or any(x < 0 for x in u):
        return {}
    table = {}
    above = 0
    pairing = mu.pairing(i)
    for (t,) in box_points((u[i],)):  # the string mu + k alpha_i, k = u_i - t
        k = u[i] - t
        if pairing + 2 * k < 0:
            break
        at = freudenthal.multiplicity_at(lam, u[:i] + (t,) + u[i + 1 :])
        if at < above:
            raise ConsistencyError(f"sl2 string at node {i} shrinks at k={k}: {at} < {above}")
        if at > above:
            table[k] = at - above
        above = at
    return dict(sorted(table.items()))


# -- tensor products -------------------------------------------------------


def tensor_highest_weights(lam1: Weight, lam2: Weight, budget) -> dict[Weight, int]:
    """Decomposition multiplicities of lam1 (x) lam2 within a truncation.

    The affine Racah-Speiser form of the Weyl-Kac character formula (Kac,
    §10.4) at a dominant kappa = lam1 + lam2 - c.alpha, with Freudenthal
    multiplicities: m_kappa = sum_w epsilon(w) mult_lam2(lam2 - (c - d_w).alpha)
    over w(lam1 + rho) = lam1 + rho - d_w.alpha.  A term needs d_w <= c, so
    the orbit points within the budget give every term: exact at every kappa
    inside the budget.
    """
    plam1 = highest_pairings(lam1)
    ptop = [a + b for a, b in zip(plam1, highest_pairings(lam2))]
    base = lam1 + lam2
    budget = validate_budget(lam1.n, budget)
    walk = box_pairings(ptop, budget)
    strides = box_strides(budget)
    # each orbit point with its offset in the walk: c - d is the point k - off
    orbit = [(d, sign, sum(map(mul, d, strides)))
             for d, sign in weyl_orbit_lowerings([x + 1 for x in plam1], budget)]
    mult2 = freudenthal.box_multiplicities(lam2, budget)
    out = {}
    for k, (c, q) in enumerate(walk):
        if min(q) >= 0:
            m = sum([sign * mult2[k - off] for d, sign, off in orbit if all(map(le, d, c))])
            if m:
                out[base.lowered(c)] = m
    return out


def tensor_splittings(lam1: Weight, lam2: Weight, mu: Weight) -> list[tuple[tuple, tuple, int, int]]:
    """Splittings s + rest = u of the lowering vector u of mu below
    lam1 + lam2 with both factor multiplicities nonzero.

    Returns (s, rest, mult1(s), mult2(rest)) in lexicographic order of s,
    Freudenthal multiplicities; empty when mu is not below lam1 + lam2 or
    is not a weight of L(lam1 + lam2), whose weights a tensor product shares.
    """
    highest_pairings(lam1)
    highest_pairings(lam2)
    base = lam1 + lam2
    u = lowering_vector(base, mu)
    if u is None or dominant_lowering(highest_pairings(base), u) is None:
        return []
    mult1 = freudenthal.box_multiplicities(lam1, u)
    # u - s is as far from the last point of the box as s is from the first
    mult2 = freudenthal.box_multiplicities(lam2, u)
    out = []
    for k, s in enumerate(box_points(u)):
        m1 = mult1[k]
        if m1:
            m2 = mult2[-1 - k]
            if m2:
                out.append((s, tuple(map(sub, u, s)), m1, m2))
    return out


def tensor_weight_multiplicity(lam1: Weight, lam2: Weight, mu: Weight) -> int:
    """Weight multiplicity in the tensor product, as a sum over splittings
    mu = mu1 + mu2 of products of factor multiplicities."""
    return sum(m1 * m2 for _, _, m1, m2 in tensor_splittings(lam1, lam2, mu))
