"""Seeded query lists for the four benchmark workloads.

A workload is a list of rounds.  Every round of a workload has the same
composition: the same query classes, each at a fixed size, so two runs (and
two seeds) do the same amount of work per round and differ only in labels.
The seed picks those labels, never the sizes:

* a Dynkin diagram automorphism of affine A_{n-1}^(1) (rotation and
  reflection of the residues), applied jointly to lambda, budgets, lowering
  vectors and residues.  It maps crystal graphs to isomorphic ones and
  multiplicities to equal ones, so cost is unchanged while the query is new;
* a delta-shift lambda - s*delta, with s in [10, 84) for crystal keys and a
  fresh s per Freudenthal group.  The crystal is the same, the cache key and
  the memo key are new, and shifted graph weights print with as many digits;
* the order of the queries inside each round and which repeats ask for DOT.

A run executes a fixed number of whole rounds, rounds_for(workload,
seconds): enough rounds to fill --seconds at the reference machine speed
(RUN_SHAPE round_s), never fewer than min_rounds.  The count depends on --seconds
alone, never on how fast the program or the host ran, so every run of a
workload at one --seconds does the same work and holds the same memos.  The
traced run executes the same rounds.

Why each workload exists, and which layer it loads or bypasses:

graph_cold
    `affsat crystal` (JSON output) with no cache.  Each query uses a distinct
    (lambda, budget) key, with n in {2,3,4} and level 1-2, up to the
    reference graph n=3, w=1,1,0, depth 8 (20,471 nodes, 3.6 MB).
    Generation and serialization do almost all the work, and the cache,
    tensor scan and Freudenthal recursion do none.  Interned words and
    direct weight dicts (ROADMAP item 2) must show their gain here.
graph_cached
    The same command with --cache-dir pointing at a fresh empty directory
    for each run.  Keys repeat with a fixed skew over a small key set, so
    most queries are hits costing a file read and a sha256 check; the first
    sight of each key is a miss, which builds the graph and writes it.  A
    share of the queries ask for --format dot.  The cache layer serves reads
    beside writes and generation runs only on misses, so a change that
    speeds hits by slowing writes, or the reverse, shows up here.
queries
    A mixed analytic session at small to medium sizes: mult (single and
    --w1/--w2), tensor, branch (json and tsv), fixed (single and tensor),
    leaves and check.  It exercises the tensor pair scan, Levi branching,
    satake and the fixed per-query CLI overhead; its graphs are small and
    never serialized, and it uses no cache.  It is the workload for ROADMAP
    items 3 and 5.  Small queries set its median and tensor sets its tail;
    check adds a small Freudenthal share.
deep_mult
    freudenthal_multiplicity on level-1 lambda at n in {2,3,4}, for dominant
    and non-dominant mu, at delta-depths past the crystal's reach.  It is
    the only workload where the Freudenthal recursion carries the work
    (ROADMAP item 4).  Queries of one lambda share the process-global memo
    within a run (each group asks its deepest weight first, then six more
    inside the box below it, as a session tabulating string functions
    would), so a change to memo lifetime or to dominant-chamber reduction
    shows up here.  A run executes a fixed number of rounds, so the memo,
    and with it peak_rss_mb, ends the same size however fast the run went.

Counts that repeat exactly for a given seed, --seconds and program:
crystal.generate.nodes, crystal.generate.edges, every *.calls count,
kernels.signature_scan.calls, satake.strata, crystal.serialize.bytes,
cli.cache.hits, cli.cache.misses, cli.cache.bytes_read and
cartan.weights_constructed.  cli.cache.bytes_written repeats too, except
that a cache entry written at a whole second loses the microseconds of its
`created_at` stamp.  py.gc_collections follows allocation counts and is
steady but not promised.  Times never repeat.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("graph_cold", "graph_cached", "queries", "deep_mult")

# Per workload: seconds per round at the reference machine speed (see
# REF_PROBE_S in run.py), the fewest rounds a run executes, and the
# nearest-rank percentile reported as latency_tail_ms.  The percentile is
# fixed so that every run reports the same statistic.  Each round
# composition below puts the median inside a block of like queries and the
# tail percentile inside the block of the costliest ones, away from the
# block edges, and min_rounds keeps at least ten samples beyond the tail
# (graph_cached counts its short opening rounds: 9, 13 and 16 queries).
RUN_SHAPE = {
    "graph_cold": {"round_s": 1.8, "min_rounds": 7, "tail_pct": 85},
    "graph_cached": {"round_s": 0.47, "min_rounds": 20, "tail_pct": 97},
    "queries": {"round_s": 1.13, "min_rounds": 5, "tail_pct": 90},
    "deep_mult": {"round_s": 1.4, "min_rounds": 9, "tail_pct": 97},
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a run of the workload executes at --seconds.  Key pools cap
    the graph lists: graph_cold draws one of 74 shifts of the symmetric
    w=1,1 at n=2 per round, so it stops at 74 rounds (--seconds 133)."""
    shape = RUN_SHAPE[workload]
    return max(shape["min_rounds"], math.ceil(seconds / shape["round_s"]))


# Budgets stay at most 16, so lambda - s*delta and every weight below it in a
# graph print c entries of exactly two digits.
SHIFTS = range(10, 84)


def unit(n: int, i: int) -> list[int]:
    return [1 if j == i else 0 for j in range(n)]


def weight(n: int, w, c=None) -> dict:
    return {"n": n, "w": list(w), "c": list(c) if c is not None else [0] * n}


class Relabel:
    """A diagram automorphism i -> sign*i + rot (mod n) of affine A_{n-1}^(1)."""

    def __init__(self, n: int, sign: int, rot: int):
        self.n, self.sign, self.rot = n, sign, rot

    @classmethod
    def draw(cls, rng: random.Random, n: int) -> "Relabel":
        return cls(n, rng.choice((1, -1)), rng.randrange(n))

    def index(self, i: int) -> int:
        return (self.sign * i + self.rot) % self.n

    def vec(self, v) -> list[int]:
        out = [0] * self.n
        for i, x in enumerate(v):
            out[self.index(i)] = x
        return out


def _csv(v) -> str:
    return ",".join(str(x) for x in v)


def _json_arg(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- argv from a query spec ---------------------------------------------------


def argv_for(spec: dict) -> list[str]:
    """The affsat command line that asks the question a spec describes."""
    op = spec["op"]
    if op == "crystal":
        lam = spec["lam"]
        argv = ["crystal", "--lam", _json_arg(lam), "--budget", _csv(spec["budget"])]
        if spec["format"] != "json":
            argv += ["--format", spec["format"]]
        if spec.get("cached"):
            argv += ["--cache-dir", "{cache_dir}"]
        return argv
    if op == "tensor":
        n = spec["lam1"]["n"]
        return ["tensor", "-n", str(n), "--w1", _csv(spec["lam1"]["w"]),
                "--w2", _csv(spec["lam2"]["w"]), "--budget", _csv(spec["budget"])]
    if op in ("mult", "fixed") and "lam1" in spec:
        n = spec["lam1"]["n"]
        return [op, "-n", str(n), "--w1", _csv(spec["lam1"]["w"]),
                "--w2", _csv(spec["lam2"]["w"]), "-v", _csv(spec["u"])]
    n = spec["lam"]["n"]
    argv = [op, "-n", str(n), "-w", _csv(spec["lam"]["w"])]
    if op == "check":
        return argv + ["--depth", str(spec["depth"])]
    argv += ["-v", _csv(spec["u"])]
    if op == "branch":
        argv += ["-i", str(spec["i"])]
        if spec["format"] != "json":
            argv += ["--format", spec["format"]]
    if op == "leaves" and spec["include_empty"]:
        argv.append("--include-empty")
    return argv


# -- graph workloads ------------------------------------------------------------

# (n, base w, uniform depth); node count and seed-time latency of a cold
# query (pure Python 3.11, 2 cores).
GRAPH_CLASSES = {
    "ref": (3, (1, 1, 0), 8),       # 20,471 nodes, 650 ms
    "n3l2": (3, (1, 1, 0), 6),      # 3,960 nodes, 105 ms
    "n2w11": (2, (1, 1), 12),       # 4,487 nodes, 105 ms
    "n4adj": (4, (1, 1, 0, 0), 4),  # 3,133 nodes, 85 ms
    "n4opp": (4, (1, 0, 1, 0), 4),  # 3,644 nodes, 95 ms
    "n3l1": (3, (1, 0, 0), 8),      # 2,010 nodes, 60 ms
    "n2l1": (2, (1, 0), 16),        # 2,576 nodes, 60 ms
    "n4l1": (4, (1, 0, 0, 0), 5),   # 1,208 nodes, 40 ms
    "n2w20": (2, (2, 0), 10),       # 1,322 nodes, 30 ms
}

# graph_cold: class -> queries per round.  Three n4adj sit at the median and
# the two reference graphs (18% of a round) hold the tail.
COLD_MIX = {"ref": 2, "n3l2": 1, "n2w11": 1, "n4adj": 3, "n3l1": 1, "n2l1": 1,
            "n4l1": 1, "n2w20": 1}

# graph_cached keeps a hot set for the whole run and slides a working set:
# every round brings one new n3l2 key (its only sight that round, so a miss)
# and repeats the new keys of the last three rounds.  Repeats are
# (count per round, of which DOT), fixed per class so that every seed
# repeats the same sizes equally often.  Of 18 queries a round, 13 are JSON
# hits of 5-6 ms (the median); the reference graph's DOT holds the tail.
CACHED_HOT = {"ref": (2, 1), "n2w11": (3, 1), "n4opp": (3, 0)}
CACHED_SLIDING = "n3l2"
CACHED_AGES = {1: (4, 1), 2: (3, 0), 3: (2, 0)}


def _graph_key(rng: random.Random, cls: str, used: set) -> dict:
    n, w, depth = GRAPH_CLASSES[cls]
    while True:
        sigma = Relabel.draw(rng, n)
        shift = rng.choice(SHIFTS)
        key = (cls, tuple(sigma.vec(w)), shift)
        if key not in used:
            used.add(key)
            break
    return {"op": "crystal", "lam": weight(n, sigma.vec(w), [shift] * n),
            "budget": [depth] * n, "format": "json", "class": cls}


def _graph_cold(rng: random.Random, rounds: int) -> list[list[dict]]:
    used: set = set()
    out = []
    for _ in range(rounds):
        specs = [_graph_key(rng, cls, used) for cls, k in COLD_MIX.items() for _ in range(k)]
        rng.shuffle(specs)
        out.append(specs)
    return out


def _graph_cached(rng: random.Random, rounds: int) -> list[list[dict]]:
    used: set = set()
    hot = {cls: _graph_key(rng, cls, used) for cls in CACHED_HOT}
    fresh: list[dict] = []
    out = []
    for _ in range(rounds):
        fresh.append(_graph_key(rng, CACHED_SLIDING, used))
        plan = [(fresh[-1], 1, 0)] + [(hot[cls], *mix) for cls, mix in CACHED_HOT.items()]
        plan += [(fresh[-1 - age], *mix) for age, mix in CACHED_AGES.items() if age < len(fresh)]
        specs = [dict(key, format=fmt, cached=True)
                 for key, repeats, dots in plan
                 for fmt in ["dot"] * dots + ["json"] * (repeats - dots)]
        rng.shuffle(specs)
        out.append(specs)
    return out


# -- analytic session ---------------------------------------------------------

# (op, n, w or (w1, w2), lowering vector or depth, extra, copies per round),
# with seed-time latencies.  A round holds 25 queries: 8 fast ones, 7 of
# 5-6 ms where the median falls, 7 slower ones and 3 large tensor
# decompositions (12%), which hold the tail.
QUERY_MIX = [
    ("mult", 2, (1, 0), (8, 8), {}, 1),                        # 2.5 ms
    ("mult", 3, (1, 1, 0), (3, 3, 3), {}, 1),                  # 3.5 ms
    ("mult", 4, (1, 0, 0, 0), (3, 3, 3, 2), {}, 1),            # 2.5 ms
    ("mult_t", 3, ((1, 0, 0), (0, 1, 0)), (3, 3, 3), {}, 1),   # 2.5 ms
    ("mult_t", 2, ((1, 0), (0, 1)), (5, 5), {}, 1),            # 2.5 ms
    ("fixed_t", 3, ((1, 0, 0), (0, 1, 0)), (3, 3, 3), {}, 1),  # 3 ms
    ("branch", 2, (2, 0), (6, 6), {"i": 1, "format": "json"}, 1),  # 3 ms
    ("leaves", 3, (1, 1, 0), (5, 5, 5), {"include_empty": False}, 1),  # 4 ms
    ("fixed", 3, (1, 1, 0), (4, 4, 4), {}, 4),                 # 5-6 ms
    ("branch", 3, (1, 1, 0), (4, 4, 4), {"i": 1, "format": "json"}, 3),  # 5-6 ms
    ("leaves", 3, (1, 0, 0), (5, 5, 5), {"include_empty": True}, 1),  # 6 ms
    ("mult", 3, (1, 1, 0), (5, 5, 4), {}, 1),                  # 9 ms
    ("check", 2, (1, 0), 8, {}, 1),                            # 5-15 ms
    ("check", 3, (1, 1, 0), 4, {}, 1),                         # 8-25 ms
    ("tensor", 2, ((1, 0), (1, 0)), 8, {}, 1),                 # 11 ms
    ("branch", 3, (1, 1, 0), (5, 5, 5), {"i": 0, "format": "tsv"}, 1),  # 15 ms
    ("tensor", 3, ((1, 0, 0), (0, 1, 0)), 5, {}, 1),           # 23 ms
    ("tensor", 3, ((1, 1, 0), (0, 1, 1)), 5, {}, 1),           # 190 ms
    ("tensor", 3, ((1, 0, 1), (1, 1, 0)), 5, {}, 1),           # 200 ms
    ("tensor", 3, ((1, 1, 0), (0, 1, 1)), 6, {}, 1),           # 630 ms
]


def _query_spec(rng: random.Random, entry) -> dict:
    op, n, w, size, extra, _ = entry
    sigma = Relabel.draw(rng, n)
    if op in ("tensor", "mult_t", "fixed_t"):
        lam1, lam2 = (weight(n, sigma.vec(x)) for x in w)
        if op == "tensor":
            return {"op": "tensor", "lam1": lam1, "lam2": lam2, "budget": [size] * n}
        return {"op": op[:-2], "lam1": lam1, "lam2": lam2, "u": sigma.vec(size)}
    lam = weight(n, sigma.vec(w))
    if op == "check":
        return {"op": "check", "lam": lam, "depth": size}
    spec = {"op": op, "lam": lam, "u": sigma.vec(size)}
    if op == "branch":
        spec.update(i=sigma.index(extra["i"]), format=extra["format"])
    if op == "leaves":
        spec["include_empty"] = extra["include_empty"]
    return spec


def _queries(rng: random.Random, rounds: int) -> list[list[dict]]:
    out = []
    for _ in range(rounds):
        specs = [_query_spec(rng, entry) for entry in QUERY_MIX for _ in range(entry[-1])]
        rng.shuffle(specs)
        out.append(specs)
    return out


# -- Freudenthal session ------------------------------------------------------

# A round holds two groups per n, each with its own lambda = Lambda_j - s*delta:
# one opens with the dominant mu = lambda - D*delta, the other with the
# non-dominant s_j(lambda) - D*delta.  That first query fills the memo for
# the whole box below it (150-700 ms at seed); DEEP_HITS more queries
# inside the box, dominant or not, are then served from the memo.  The first
# hit after a box is filled costs about 45 us, later ones 10-20 us, so of 42
# queries a round the 30 later hits hold the median in their middle; the two
# n=4 boxes hold the tail.
DEEP_DEPTH = {2: 20, 3: 10, 4: 6}
DEEP_HITS = 6


def level_one_depth(n: int, j: int, c) -> int:
    """d with mult(Lambda_j - sum c_i alpha_i) = p_{n-1}(d): (2 c_j - c^T A c) / 2."""
    if n == 2:
        quad = 2 * (c[0] - c[1]) ** 2
    else:
        quad = sum(2 * c[i] * c[i] - 2 * c[i] * c[(i + 1) % n] for i in range(n))
    return (2 * c[j] - quad) // 2


def _weyl_offsets(n: int, j: int) -> list[tuple[int, ...]]:
    """Nonzero 0/1 lowering vectors c0 with min c0 = 0 and depth 0: extremal
    weights of L(Lambda_j) other than Lambda_j itself."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if any(prefix) and min(prefix) == 0 and level_one_depth(n, j, prefix) == 0:
                out.append(tuple(prefix))
            return
        for x in (0, 1):
            rec(prefix + [x])

    rec([])
    return out


def _deep_group(rng: random.Random, n: int, shift: int, dominant: bool) -> list[dict]:
    j = rng.randrange(n)
    lam = weight(n, unit(n, j), [shift] * n)
    depth = DEEP_DEPTH[n]
    first = [depth] * n if dominant else [depth + x for x in unit(n, j)]
    specs = [{"op": "deep", "lam": lam, "c": first, "j": j}]
    offsets = [(0,) * n] + _weyl_offsets(n, j)
    for _ in range(DEEP_HITS):
        c0 = rng.choice(offsets)
        t = rng.randint(0, depth - max(c0))
        specs.append({"op": "deep", "lam": lam, "c": [x + t for x in c0], "j": j})
    return specs


def _deep_mult(rng: random.Random, rounds: int) -> list[list[dict]]:
    out = []
    for r in range(rounds):
        groups = [_deep_group(rng, n, 2 * r + dominant + 1, bool(dominant))
                  for n in (2, 3, 4) for dominant in (0, 1)]
        rng.shuffle(groups)
        out.append([spec for group in groups for spec in group])
    return out


_BUILDERS = {
    "graph_cold": _graph_cold,
    "graph_cached": _graph_cached,
    "queries": _queries,
    "deep_mult": _deep_mult,
}


def generate(workload: str, seed: int, rounds: int) -> list[dict]:
    """The workload's query list of `rounds` rounds for a seed: dicts with
    id, round, spec and, for CLI queries, argv."""
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for r, specs in enumerate(_BUILDERS[workload](rng, rounds)):
        for spec in specs:
            q = {"id": len(queries), "round": r, "spec": spec}
            if spec["op"] != "deep":
                q["argv"] = argv_for(spec)
            queries.append(q)
    return queries


def digest(queries: list[dict]) -> str:
    """sha256 of the canonical JSON of a query list."""
    text = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
