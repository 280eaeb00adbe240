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
