"""Independent checks of every answer, run after the timed stream.

Each answer is compared with a route other than the one that produced it:

* crystal document: per-weight node counts equal Freudenthal multiplicities
  on the whole budget box, every edge lowers c_i by exactly one, and the
  i-edges between two weight spaces number the smaller multiplicity (JSON
  and DOT, the DOT parsed from its text);
* a repeat of a (key, format) seen earlier in the run, such as a cache hit:
  byte-identical to the first answer, which got the full check;
* mult and fixed: Freudenthal, through the splitting sum for tensor forms;
* branch: the string-difference rule over Freudenthal multiplicities;
* tensor: the character identity sum_kappa m_kappa mult_kappa(mu) =
  sum mult_1 mult_2 over splittings, at every mu inside the budget;
* leaves: the stratum labels enumerated here from their definition;
* check: the program reports OK;
* deep: the number of (n-1)-coloured partitions of d, where
  d = (2 sum c_i w_i - c^T A c) / 2 (Frenkel-Kac, level 1).

Weight pairings and the level-1 depth are computed here, not by affsat; the
Freudenthal multiplicities come from affsat.freudenthal.  Multiplicities are
invariant under delta shifts and diagram automorphisms, so checks reduce
lambda to one representative and share one memo.
"""

from __future__ import annotations

import json
import re
from itertools import product

from workloads import level_one_depth


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pairing(n: int, w, c, i: int) -> int:
    """<w.Lambda - c.alpha, h_i> for affine A_{n-1}^(1)."""
    if n == 2:
        return w[i] - 2 * c[i] + 2 * c[1 - i]
    return w[i] - 2 * c[i] + c[(i - 1) % n] + c[(i + 1) % n]


def coloured_partitions(colours: int, d: int) -> int:
    """Coefficient of q^d in prod_{m >= 1} (1 - q^m)^(-colours)."""
    if d < 0:
        return 0
    p = [1] + [0] * d
    for _ in range(colours):
        for m in range(1, d + 1):
            for t in range(m, d + 1):
                p[t] += p[t - m]
    return p[d]


def partitions(size: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, remaining, largest):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(remaining, largest), 0, -1):
            rec(prefix + (p,), remaining - p, p)

    rec((), size, size)
    return sorted(out)


def box(bounds):
    return product(*(range(b + 1) for b in bounds))


_DOT_NODE = re.compile(r'^  n(\d+) \[label="c=\[([-\d, ]*)\]"\];$')
_DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="(\d+)", color="#[0-9a-f]{6}"\];$')


class Checker:
    """Checks the answers of one run; remembers first answers per key."""

    def __init__(self):
        from affsat import Weight, freudenthal_multiplicity

        self._weight = Weight
        self._freudenthal = freudenthal_multiplicity
        self._mults: dict = {}
        self._canon: dict = {}
        self._first: dict = {}

    def mult(self, lam: dict, u) -> int:
        """Multiplicity of lam - u.alpha in L(lam), u >= 0 componentwise."""
        if any(x < 0 for x in u):
            return 0
        n, w, c, sigma = self._canonical(lam)
        key = (n, w, c, tuple(u[sigma[i]] for i in range(n)))
        if key not in self._mults:
            mu = tuple(a + b for a, b in zip(c, key[3]))
            self._mults[key] = self._freudenthal(self._weight(n, w, c), self._weight(n, w, mu))
        return self._mults[key]

    def _canonical(self, lam: dict):
        """lam up to delta shifts and diagram automorphisms, which keep every
        multiplicity: the least image (w, c) and the index map reaching it."""
        n, w, c = lam["n"], tuple(lam["w"]), tuple(lam["c"])
        key = (n, w, c)
        if key not in self._canon:
            images = []
            for sign in (1, -1):
                for rot in range(n):
                    sigma = tuple((sign * i + rot) % n for i in range(n))
                    cw = tuple(w[sigma[i]] for i in range(n))
                    cc = tuple(c[sigma[i]] - min(c) for i in range(n))
                    images.append((cw, cc, sigma))
            cw, cc, sigma = min(images)
            self._canon[key] = (n, cw, cc, sigma)
        return self._canon[key]

    def tensor_mult(self, lam1: dict, lam2: dict, u) -> int:
        return sum(self.mult(lam1, s) * self.mult(lam2, [a - b for a, b in zip(u, s)])
                   for s in box(u))

    # -- entry point ------------------------------------------------------

    def check(self, spec: dict, code, answer: str):
        """None when the answer is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code!r}"
        op = spec["op"]
        if op == "crystal":
            key = (canonical(spec["lam"]), tuple(spec["budget"]), spec["format"])
            first = self._first.get(key)
            if first is not None:
                return None if answer == first else "differs from the first answer for its key"
        try:
            reason = getattr(self, f"_check_{op}")(spec, answer)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if op == "crystal" and reason is None:
            self._first[key] = answer
        return reason

    # -- per command ------------------------------------------------------

    def _check_graph(self, spec, nodes: dict, edges) -> str | None:
        """Node counts per weight equal multiplicities, every edge lowers
        c_i by one, and each weight space sends min(mult(mu), mult(mu -
        alpha_i)) i-edges down, the sl2 string count, wherever both lie in
        the budget.  nodes maps ids to c vectors; edges are (from, to, i)."""
        lam, budget = spec["lam"], spec["budget"]
        n = lam["n"]
        space = {tuple(a + b for a, b in zip(lam["c"], u)): u for u in box(budget)}
        counts: dict = {}
        for c in nodes.values():
            counts[c] = counts.get(c, 0) + 1
        if not space.keys() >= counts.keys():
            return "node weights outside the budget"
        # Each weight in the box as one int, 12 bits per entry (budgets stay far
        # below 4096), so that lowering c_i adds step[i].
        step = [1 << (12 * i) for i in range(n)]
        code = {c: sum(x * s for x, s in zip(c, step)) for c in space}
        key = {node: code[c] for node, c in nodes.items()}
        down: dict = {}
        for a, b, i in edges:
            if not 0 <= i < n or key[b] - key[a] != step[i]:
                return f"edge {a}->{b} at residue {i} does not lower c_{i} by one"
            down[key[a] * n + i] = down.get(key[a] * n + i, 0) + 1
        if len({a * n + i for a, _, i in edges}) + len({b * n + i for _, b, i in edges}) != 2 * len(edges):
            return "two i-edges leave or enter one node"
        for c, u in space.items():
            m = self.mult(lam, u)
            if counts.get(c, 0) != m:
                return f"{counts.get(c, 0)} nodes at u={list(u)}, Freudenthal says {m}"
            for i in range(n):
                if u[i] < budget[i]:
                    below = u[:i] + (u[i] + 1,) + u[i + 1:]
                    if down.get(code[c] * n + i, 0) != min(m, self.mult(lam, below)):
                        return f"{down.get(code[c] * n + i, 0)} {i}-edges leave u={list(u)}"
        return None

    def _check_crystal(self, spec, answer):
        if spec["format"] == "dot":
            return self._check_dot(spec, answer)
        doc = json.loads(answer)
        if doc["lambda"] != spec["lam"] or doc["budget"] != spec["budget"]:
            return "lambda or budget differs from the query"
        nodes = {}
        for node in doc["nodes"]:
            if node["weight"]["w"] != spec["lam"]["w"]:
                return f"node {node['id']} has the wrong level part"
            nodes[node["id"]] = tuple(node["weight"]["c"])
        if sorted(nodes) != list(range(len(doc["nodes"]))):
            return "node ids are not 0..N-1"
        edges = [(e["from"], e["to"], e["i"]) for e in doc["edges"]]
        return self._check_graph(spec, nodes, edges)

    def _check_dot(self, spec, answer):
        lines = answer.split("\n")
        if lines[:2] != ["digraph crystal {", "  rankdir=TB;"] or lines[-2:] != ["}", ""]:
            return "not a crystal digraph"
        nodes, edges = {}, []
        for line in lines[2:-2]:
            m = _DOT_NODE.match(line)
            if m:
                nodes[int(m[1])] = tuple(int(x) for x in m[2].split(","))
                continue
            m = _DOT_EDGE.match(line)
            if not m:
                return f"unparsable DOT line {line[:60]!r}"
            edges.append((int(m[1]), int(m[2]), int(m[3])))
        return self._check_graph(spec, nodes, edges)

    def _check_mult(self, spec, answer):
        if "lam1" in spec:
            want = self.tensor_mult(spec["lam1"], spec["lam2"], spec["u"])
        else:
            want = self.mult(spec["lam"], spec["u"])
        got = json.loads(answer)
        return None if got == {"multiplicity": want} else f"{got} but Freudenthal says {want}"

    def _check_fixed(self, spec, answer):
        got = json.loads(answer)
        if "lam1" not in spec:
            m = self.mult(spec["lam"], spec["u"])
            want = {"fixed_point_count": int(m > 0), "attracting_component_count": m}
        else:
            lam1, lam2, u = spec["lam1"], spec["lam2"], spec["u"]
            n = lam1["n"]
            splittings = []
            for s in box(u):
                rest = [a - b for a, b in zip(u, s)]
                if self.mult(lam1, s) and self.mult(lam2, rest):
                    splittings.append({
                        "mu1": {"n": n, "w": lam1["w"], "c": [a + b for a, b in zip(lam1["c"], s)]},
                        "mu2": {"n": n, "w": lam2["w"], "c": [a + b for a, b in zip(lam2["c"], rest)]},
                    })
            want = {"count": len(splittings), "splittings": splittings}
        return None if got == want else "fixed-point answer differs from Freudenthal"

    def _check_branch(self, spec, answer):
        lam, u, i = spec["lam"], spec["u"], spec["i"]
        n, w = lam["n"], lam["w"]
        rows = []
        for k in range(u[i] + 1):
            at = list(u)
            at[i] -= k
            above = list(at)
            above[i] -= 1
            m = max(0, self.mult(lam, at) - self.mult(lam, above))
            if m:
                c = [a + b for a, b in zip(lam["c"], at)]
                rows.append({"k": k, "kappa_prime": {"n": n, "w": w, "c": c},
                             "pairing": pairing(n, w, c, i), "multiplicity": m})
        if spec["format"] == "json":
            return None if json.loads(answer) == {"table": rows} else "branching table differs"
        want = ["k\tkappa_prime\tpairing\tmultiplicity"] + [
            f"{r['k']}\t{canonical(r['kappa_prime'])}\t{r['pairing']}\t{r['multiplicity']}"
            for r in rows]
        return None if answer == "\n".join(want) + "\n" else "branching TSV differs"

    def _check_tensor(self, spec, answer):
        lam1, lam2, budget = spec["lam1"], spec["lam2"], spec["budget"]
        n = lam1["n"]
        base = {"n": n, "w": [a + b for a, b in zip(lam1["w"], lam2["w"])],
                "c": [a + b for a, b in zip(lam1["c"], lam2["c"])]}
        components = []
        for item in json.loads(answer)["highest_weights"]:
            kappa = item["kappa"]
            if kappa["w"] != base["w"]:
                return f"kappa {kappa} has the wrong level part"
            u_k = [a - b for a, b in zip(kappa["c"], base["c"])]
            if any(pairing(n, kappa["w"], kappa["c"], i) < 0 for i in range(n)):
                return f"kappa {kappa} is not dominant"
            components.append((kappa, u_k, item["multiplicity"]))
        for u in box(budget):
            lhs = sum(m * self.mult(kappa, [a - b for a, b in zip(u, u_k)])
                      for kappa, u_k, m in components)
            rhs = self.tensor_mult(lam1, lam2, u)
            if lhs != rhs:
                return f"character identity fails at u={list(u)}: {lhs} != {rhs}"
        return None

    def _check_leaves(self, spec, answer):
        lam, v = spec["lam"], spec["u"]
        n, w = lam["n"], lam["w"]
        level_one = sum(w) == 1
        want = []
        for c in box(v):
            kc = [a + b for a, b in zip(lam["c"], c)]
            if any(pairing(n, w, kc, i) < 0 for i in range(n)):
                continue
            empty = level_one and list(c) != list(v)
            if empty and not spec["include_empty"]:
                continue
            for size in range(min(c) + 1):
                for k in partitions(size):
                    want.append((sum(c), c, k, {"kappa": {"n": n, "w": w, "c": kc},
                                                "k": list(k), "regular_locus_empty": empty}))
        want.sort(key=lambda item: item[:3])
        got = json.loads(answer)
        return None if got == {"strata": [item[3] for item in want]} else "strata differ"

    def _check_check(self, spec, answer):
        doc = json.loads(answer)
        compared = (spec["depth"] + 1) ** spec["lam"]["n"]
        if doc["status"] != "OK" or doc["disagreements"] or doc["weights_compared"] != compared:
            return f"check reported {doc['status']} over {doc['weights_compared']} weights"
        return None

    def _check_deep(self, spec, answer):
        n = spec["lam"]["n"]
        want = coloured_partitions(n - 1, level_one_depth(n, spec["j"], spec["c"]))
        return None if answer == f"{want}\n" else f"{answer.strip()} but Frenkel-Kac says {want}"
