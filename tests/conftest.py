import functools
import itertools
from collections import Counter

from affsat import Weight, generate_crystal, lowering_vector, positive_roots
from affsat.cartan import cartan_apply, dominant_lowering, highest_pairings


def all_partitions(max_cells):
    """Every partition with at most max_cells cells, the empty one included."""
    out = [()]

    def rec(prefix, remaining, largest):
        for p in range(min(remaining, largest), 0, -1):
            out.append(prefix + (p,))
            rec(prefix + (p,), remaining - p, p)

    rec((), max_cells, max_cells)
    return out


def dominant_bases(n, max_level):
    """All dominant weights sum w_i Lambda_i with 1 <= sum w_i <= max_level."""
    out = []
    for level in range(1, max_level + 1):
        for combo in itertools.combinations_with_replacement(range(n), level):
            w = [0] * n
            for i in combo:
                w[i] += 1
            out.append(Weight(n, tuple(w), (0,) * n))
    return out


def lowered(lam, u):
    """lam - sum u_i alpha_i as a Weight."""
    return Weight(lam.n, lam.w, tuple(a + b for a, b in zip(lam.c, u)))


def coloured_partitions(colours, d):
    """Number of colours-coloured partitions of d: the coefficient of q^d in
    prod_{m >= 1} (1 - q^m)^(-colours).  At level 1 of affine sl(n),
    mult(Lambda_j - d delta) is this number for colours = n - 1
    (Frenkel-Kac)."""
    if d < 0:
        return 0
    p = [1] + [0] * d
    for _ in range(colours):
        for m in range(1, d + 1):
            for t in range(m, d + 1):
                p[t] += p[t - m]
    return p[d]


# Crystal-graph routes to the numbers that mult, fixed and branch answer by
# Freudenthal; tests hold the library answers to them.


def graph_multiplicity(lam, mu):
    """mult(mu) as the node count at mu of the crystal truncated at mu."""
    u = lowering_vector(lam, mu)
    if u is None or min(u) < 0:
        return 0
    return generate_crystal(lam, u).weight_counts().get(u, 0)


def graph_splittings(lam1, lam2, mu):
    """(s, rest, mult1(s), mult2(rest)) for the splittings s + rest = u of the
    lowering vector u of mu below lam1 + lam2, both factors nonzero, from
    the node counts of both factor crystals truncated at u."""
    u = lowering_vector(lam1 + lam2, mu)
    if u is None or min(u) < 0:
        return []
    counts1 = generate_crystal(lam1, u).weight_counts()
    counts2 = generate_crystal(lam2, u).weight_counts()
    out = []
    for s in itertools.product(*(range(x + 1) for x in u)):
        rest = tuple(a - b for a, b in zip(u, s))
        m1, m2 = counts1.get(s, 0), counts2.get(rest, 0)
        if m1 and m2:
            out.append((s, rest, m1, m2))
    return out


def graph_branching(lam, mu, i):
    """Levi branching at node i read off the crystal truncated at mu: m_k
    counts the nodes of weight mu + k alpha_i that e_i kills."""
    i %= lam.n
    u = lowering_vector(lam, mu)
    if u is None or min(u) < 0:
        return {}
    graph = generate_crystal(lam, u)
    highest = Counter(u[i] - c[i] for c, e in zip(graph.cvecs, graph.eps(i))
                      if e == 0 and c[:i] == u[:i] and c[i + 1 :] == u[i + 1 :])
    return dict(sorted(highest.items()))


@functools.cache
def _charged_partitions(n, charge, cells):
    """(parts, residue content) of every partition of exactly `cells` cells,
    a cell (row, col) having residue (col - row + charge) mod n."""
    out = []
    for parts in all_partitions(cells):
        if sum(parts) == cells:
            content = [0] * n
            for row, row_len in enumerate(parts, start=1):
                for col in range(1, row_len + 1):
                    content[(col - row + charge) % n] += 1
            out.append((parts, content))
    return out


def flotw_count(n, charges, u):
    """mult(lambda - u.alpha) for lambda = sum_j Lambda_{charges_j}, as the
    number of FLOTW multipartitions of residue content u (Foda, Leclerc,
    Okado, Thibon and Welsh, Adv. Math. 141, 1999), which label B(lambda).

    With charges sorted, 0 <= s_1 <= ... <= s_l < n, an l-multipartition
    (p_1, ..., p_l) is FLOTW when
    - p_j[i] >= p_{j+1}[i + s_{j+1} - s_j] for j < l, and
      p_l[i] >= p_1[i + n + s_1 - s_l], for every row i (missing rows are 0);
    - for every k > 0, the residues of the last cells of the rows of length k
      do not cover all of Z/n.
    """
    return _flotw_contents(n, tuple(sorted(charges)), sum(u))[tuple(u)]


@functools.cache
def _flotw_contents(n, s, cells):
    """Residue content -> number of FLOTW multipartitions of `cells` cells
    with sorted charges s."""

    def above(upper, lower, shift):
        return all(i < len(upper) and upper[i] >= part
                   for i, part in enumerate(lower[shift:]))

    def covers_no_length(word):
        ends = {}
        for parts, charge in zip(word, s):
            for r, k in enumerate(parts, start=1):
                ends.setdefault(k, set()).add((k - r + charge) % n)
        return all(len(residues) < n for residues in ends.values())

    found = Counter()

    def extend(word, content, rest):
        j = len(word)
        last = j == len(s) - 1
        for m in [rest] if last else range(rest + 1):
            for parts, own in _charged_partitions(n, s[j], m):
                if j and not above(word[-1], parts, s[j] - s[j - 1]):
                    continue
                whole = word + (parts,)
                total = [a + b for a, b in zip(content, own)]
                if not last:
                    extend(whole, total, rest - m)
                elif above(parts, whole[0], n + s[0] - s[-1]) and covers_no_length(whole):
                    found[tuple(total)] += 1

    extend((), [0] * n, cells)
    return found


def full_root_freudenthal(lam):
    """u -> mult(lam - u.alpha) by the Freudenthal sum over every positive root
    of degree <= u_0, one term per root and each target reduced to the
    dominant chamber: the recursion as it ran before it summed once per
    stabilizer orbit, kept as the orbit sum's oracle.  Small boxes only: it
    recurses in Python and memoizes per call."""
    plam = highest_pairings(lam)

    @functools.cache
    def at_dominant(u):
        if not any(u):
            return 1
        p = [a - b for a, b in zip(plam, cartan_apply(u))]
        total = 0
        for e, multiplicity in positive_roots(lam.n, u[0]):
            norm = 0 if min(e) == max(e) else 2
            pairing = sum(x * y for x, y in zip(e, p))
            k = 1
            while all(x >= k * y for x, y in zip(u, e)):
                pairing += norm
                total += multiplicity * pairing * mult(tuple(x - k * y for x, y in zip(u, e)))
                k += 1
        denom = 2 * sum(x * (y + 1) for x, y in zip(u, plam)) - sum(
            x * y for x, y in zip(u, cartan_apply(u)))
        assert denom > 0 and 2 * total % denom == 0, (lam, u)
        return 2 * total // denom

    def mult(u):
        v = dominant_lowering(plam, u)
        return 0 if v is None else at_dominant(v)

    return mult
