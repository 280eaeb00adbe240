import itertools

from affsat import Weight


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
