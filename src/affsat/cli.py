"""Command-line front end and the persistent crystal-graph cache.

One query, one document: every command writes exactly one JSON, DOT or TSV
document to stdout and keeps diagnostics on stderr.  Exit codes: 0 success,
2 validation error, 3 node-cap exceeded (crystal, capped by building, and
check, refused from its Freudenthal table before its graph is built; mult,
fixed, branch and tensor answer by Freudenthal and the Weyl group, whose
recursion refuses to store more weights than the default cap, and whose box
walks, check's included, refuse to visit more points than it; leaves
refuses to list more strata than it), out of memory or a box entry of 2^63
or more, 1 internal inconsistency (check's two routes disagreed, or a
multiplicity failed a consistency check).

The parser is the contract: each subcommand binds its handler and declares
exactly the options the handler reads.  Each input is given one way.
lambda is -n with -w framing dims (lambda = sum w_i Lambda_i) or --lam weight
JSON {"n":..,"w":..,"c":..}, which carries its own rank, so -n goes only with
-w, --w1 and --w2.  mu is -v gauge dims (mu = lambda - sum v_i alpha_i) or
--mu JSON.  mult and fixed take lambda or a tensor pair (--w1/--w2 or
--lam1/--lam2), each factor read as lambda is.  The budget of crystal and
tensor is --budget, --depth or -v.
The graph cache keeps {key}.json per key under --cache-dir (default
$AFFSAT_CACHE_DIR; an empty value means no cache), plus {key}.dot once
--format dot is asked, keyed by a digest of (schema version, rank, lambda,
budget, convention id).  An entry is the document's sha256 hex digest, a
newline and the document; a warm hit serves it byte-identical once the
digest matches.  --format dot is rendered once from the JSON entry and
served from its own digest-checked entry.  --node-cap bounds building only:
a hit builds nothing, so it is served whatever the cap, and an argv whose
cold run exits 3 exits 0 once its entry is cached.  Version-1 entries are
never read and can be deleted.  Nothing is ever evicted: the cache grows
until its {key}.json and {key}.dot files are deleted, which is always safe.

Only what a command runs is imported: crystal generation, satake,
freudenthal, hashlib and the cache's file handling load inside the
functions that call them, so a cache hit loads no graph code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .cartan import (CONVENTION_ID, DEFAULT_NODE_CAP, Weight, box_points, canonical_dumps,
                     validate_budget, weights_from_dims)
from .errors import ConsistencyError, DomainError, GraphCapError, ResourceCapError

# DOT bytes are part of the cache contract since {key}.dot entries are
# served as stored: any change to dot_from_graph_json's output must bump
# this (the pinned DOT digests in the tests fail first).
SCHEMA_VERSION = 2
ENV_CACHE_DIR = "AFFSAT_CACHE_DIR"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


# What the CLI reads as an integer: ASCII digits with an optional minus sign,
# where int() would also take "_", "+", surrounding spaces and other scripts'
# digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _int_arg(text: str) -> int:
    """argparse type for the integer options."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _node_cap_arg(text: str) -> int:
    cap = _int_arg(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"--node-cap must be at least 1, got {cap}")
    return cap


def _parse_vector(text: str, n: int, name: str) -> tuple[int, ...]:
    entries = text.split(",")
    if not all(map(_INTEGER.fullmatch, entries)):
        raise DomainError(f"malformed {name} vector {text!r}: expected comma-separated integers")
    vec = tuple(map(int, entries))
    if len(vec) != n:
        raise DomainError(f"{name} vector must have length n={n}, got {len(vec)}")
    return vec


def _weight_from_json_arg(text: str) -> Weight:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed weight JSON {text!r}: {exc}") from exc
    except RecursionError:
        raise DomainError("malformed weight JSON: nested too deeply") from None
    return Weight.from_json(obj)


def _weight(args, dims_flag: str, json_flag: str) -> Weight:
    """The weight given by json_flag's weight JSON or by dims_flag's framing
    dims w at rank -n (sum w_i Lambda_i): lambda, or one tensor factor."""
    text = getattr(args, json_flag.lstrip("-"))
    if text is not None:
        if args.n is not None:
            raise DomainError(f"-n goes with {dims_flag}, not {json_flag}: "
                              "weight JSON carries its own rank")
        return _weight_from_json_arg(text)
    name = dims_flag.lstrip("-")
    dims = getattr(args, name)
    if args.n is None or dims is None:
        raise DomainError(f"pass -n with {dims_flag}, or an explicit {json_flag} JSON weight")
    return weights_from_dims(args.n, _parse_vector(dims, args.n, name), (0,) * args.n)[0]


def _resolve_mu(args, lam: Weight) -> Weight:
    if args.mu is not None:
        return _weight_from_json_arg(args.mu)
    v = _parse_vector(args.v, lam.n, "v")
    if any(x < 0 for x in v):
        raise DomainError("v entries must be nonnegative")
    return lam.lowered(v)


def _resolve_budget(args, lam: Weight) -> tuple[int, ...]:
    if args.budget is not None:
        return _parse_vector(args.budget, lam.n, "budget")
    if args.depth is not None:
        return (args.depth,) * lam.n
    if args.v is not None:
        return _parse_vector(args.v, lam.n, "v")
    raise DomainError("no budget: pass --budget, --depth or -v")


def _tensor_pair(args) -> tuple[Weight, Weight]:
    return _weight(args, "--w1", "--lam1"), _weight(args, "--w2", "--lam2")


def _operands(args) -> tuple[Weight, Weight | None, Weight]:
    """(lambda1, lambda2, mu) of mult and fixed.  Any tensor factor option
    selects the tensor form; otherwise lambda2 is None and lambda1 is lambda."""
    if args.w1 is None and args.w2 is None and args.lam1 is None and args.lam2 is None:
        lam = _weight(args, "-w", "--lam")
        return lam, None, _resolve_mu(args, lam)
    if args.w is not None or args.lam is not None:
        raise DomainError("-w/--lam and the tensor factors --w1/--w2/--lam1/--lam2 conflict")
    lam1, lam2 = _tensor_pair(args)
    return lam1, lam2, _resolve_mu(args, lam1 + lam2)


# -- cache ------------------------------------------------------------------


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _cache_key(lam: Weight, budget: tuple[int, ...]) -> str:
    payload = canonical_dumps({
        "schema_version": SCHEMA_VERSION,
        "n": lam.n,
        "lambda": lam.to_json(),
        "budget": list(budget),
        "convention_id": CONVENTION_ID,
    })
    return _sha256(payload)


def _cached(path, make) -> str:
    """The document stored at path when its digest line matches, else make()'s.

    A corrupt or unreadable entry is rebuilt with a warning and overwritten
    atomically (mkstemp + os.replace); a write failure degrades to
    build-without-store.
    """
    import tempfile
    from pathlib import Path

    if path.exists():
        try:
            digest, _, doc = path.read_text().partition("\n")
            if _sha256(doc) == digest:
                return doc
            print(f"affsat: cache entry {path.name} failed its digest check; rebuilding",
                  file=sys.stderr)
        except (OSError, ValueError):
            print(f"affsat: cache entry {path.name} is unreadable; rebuilding", file=sys.stderr)
    doc = make()
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(_sha256(doc) + "\n" + doc)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"affsat: cache write failed ({exc}); continuing without store", file=sys.stderr)
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
    return doc


def cache_get_or_build(lam: Weight, budget, cache_dir: str | None, *,
                       node_cap: int = DEFAULT_NODE_CAP, fmt: str = "json") -> str:
    """Canonical graph JSON, or its DOT rendering (fmt="dot"), for (lambda,
    budget), served from cache when possible.

    Each format has its own entry, {key}.json or {key}.dot, served only when
    its stored digest matches.  A DOT miss is rendered from the JSON entry,
    so a full miss builds once and writes both.
    """
    from pathlib import Path

    if fmt not in ("json", "dot"):
        raise DomainError(f"unknown graph format {fmt!r}: expected 'json' or 'dot'")
    budget = validate_budget(lam.n, budget)

    def build() -> str:
        from . import crystal

        return crystal.generate_crystal(lam, budget, node_cap=node_cap).to_json_str()

    if cache_dir is None:
        return dot_from_graph_json(build()) if fmt == "dot" else build()
    root = Path(cache_dir)
    if root.exists() and not root.is_dir():
        raise DomainError(f"cache dir {cache_dir!r} exists and is not a directory")
    key = _cache_key(lam, budget)
    if fmt == "dot":
        return _cached(root / f"{key}.dot",
                       lambda: dot_from_graph_json(_cached(root / f"{key}.json", build)))
    return _cached(root / f"{key}.json", build)


# A node's id and c, and an edge, in the layout CrystalGraph.to_json_str writes.
_DOC_NODE = re.compile(r'\{"id":(\d+),"weight":\{"c":\[([-\d,]+)\]')
_DOC_EDGE = re.compile(r'\{"from":(\d+),"i":(\d+),"to":(\d+)\}')


def dot_from_graph_json(doc: str) -> str:
    """DOT rendering of a canonical graph document, read from its text: nodes
    labelled by weight, edges labelled by residue and colored by residue class."""
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")
    nodes = [f'  n{k} [label="c=[{c.replace(",", ", ")}]"];' for k, c in _DOC_NODE.findall(doc)]
    edges = [f'  n{a} -> n{b} [label="{i}", color="{palette[int(i) % len(palette)]}"];'
             for a, i, b in _DOC_EDGE.findall(doc)]
    return "\n".join(["digraph crystal {", "  rankdir=TB;", *nodes, *edges, "}", ""])


# -- commands ----------------------------------------------------------------


def _cmd_crystal(args) -> tuple[str, int]:
    lam = _weight(args, "-w", "--lam")
    return cache_get_or_build(lam, _resolve_budget(args, lam),
                              args.cache_dir or os.environ.get(ENV_CACHE_DIR) or None,
                              node_cap=args.node_cap, fmt=args.format), EXIT_OK


def _cmd_mult(args) -> tuple[str, int]:
    from . import crystal

    lam1, lam2, mu = _operands(args)
    if lam2 is None:
        m = crystal.weight_multiplicity(lam1, mu)
    else:
        m = crystal.tensor_weight_multiplicity(lam1, lam2, mu)
    return canonical_dumps({"multiplicity": m}), EXIT_OK


def _cmd_tensor(args) -> tuple[str, int]:
    from . import crystal

    lam1, lam2 = _tensor_pair(args)
    budget = _resolve_budget(args, lam1)
    hw = crystal.tensor_highest_weights(lam1, lam2, budget)
    items = sorted(hw.items(), key=lambda kv: (sum(kv[0].c), kv[0].c))
    doc = canonical_dumps({
        "highest_weights": [{"kappa": k.to_json(), "multiplicity": m} for k, m in items],
    })
    return doc, EXIT_OK


def _cmd_branch(args) -> tuple[str, int]:
    from . import satake

    lam = _weight(args, "-w", "--lam")
    mu = _resolve_mu(args, lam)
    if not 0 <= args.i < lam.n:
        raise DomainError(f"-i must be a residue in 0..{lam.n - 1}, got {args.i}")
    rows = satake.sheaf_multiplicity_table(lam, mu, args.i)
    if args.format == "tsv":
        out = ["k\tkappa_prime\tpairing\tmultiplicity"]
        for row in rows:
            out.append(f"{row.k}\t{canonical_dumps(row.kappa_prime.to_json())}\t"
                       f"{row.pairing}\t{row.multiplicity}")
        return "\n".join(out) + "\n", EXIT_OK
    doc = canonical_dumps({
        "table": [
            {"k": row.k, "kappa_prime": row.kappa_prime.to_json(),
             "pairing": row.pairing, "multiplicity": row.multiplicity}
            for row in rows
        ],
    })
    return doc, EXIT_OK


def _cmd_leaves(args) -> tuple[str, int]:
    from . import satake

    lam = _weight(args, "-w", "--lam")
    mu = _resolve_mu(args, lam)
    strata = satake.enumerate_leaves(lam, mu, include_empty=args.include_empty)
    return canonical_dumps({"strata": [s.to_json() for s in strata]}), EXIT_OK


def _cmd_fixed(args) -> tuple[str, int]:
    from . import satake

    lam1, lam2, mu = _operands(args)
    if lam2 is None:
        count = satake.attracting_component_count(lam1, mu)
        doc = {"fixed_point_count": 1 if count > 0 else 0, "attracting_component_count": count}
    else:
        splittings = satake.tensor_fixed_points(lam1, lam2, mu)
        doc = {"count": len(splittings),
               "splittings": [{"mu1": a.to_json(), "mu2": b.to_json()} for a, b in splittings]}
    return canonical_dumps(doc), EXIT_OK


def _cmd_check(args) -> tuple[str, int]:
    from . import crystal, freudenthal

    lam = _weight(args, "-w", "--lam")
    budget = (args.depth,) * lam.n
    table = freudenthal.box_multiplicities(lam, budget)
    if sum(table) > args.node_cap:  # truncation is exact: the graph's node count
        raise GraphCapError(args.node_cap, budget, sum(table))
    counts = crystal.generate_crystal(lam, budget, node_cap=args.node_cap).weight_counts()
    compared = len(table)
    disagreements = []
    for u, want in zip(box_points(budget), table):
        got = counts.get(u, 0)
        if got != want:
            disagreements.append({"c": list(u), "crystal": got, "freudenthal": want})
    ok = not disagreements
    message = f"crystal vs Freudenthal: {'OK' if ok else 'FAIL'} ({compared} weights compared)"
    print(message, file=sys.stderr)
    doc = canonical_dumps({
        "status": "OK" if ok else "FAIL",
        "weights_compared": compared,
        "disagreements": disagreements,
        "message": message,
    })
    return doc, EXIT_OK if ok else EXIT_INTERNAL


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line is a validation error: exit 2, one stderr line."""
        raise DomainError(message)


def _one_of(parser, *options, required=False):
    """(flag, help) pairs of options that exclude each other; returns their group."""
    group = parser.add_mutually_exclusive_group(required=required)
    for flag, text in options:
        group.add_argument(flag, help=text)
    return group


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand, its handler and the options it reads; built once, on first use."""
    parser = _ArgumentParser(
        prog="affsat",
        allow_abbrev=False,
        description="Affine type-A crystal combinatorics: truncated crystal graphs, "
                    "weight multiplicities, tensor decompositions, branching tables, "
                    "symplectic-leaf labels and fixed-point predicates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, about, *, lam=True, mu=False, tensor=False, budget=False,
                node_cap=False):
        sp = sub.add_parser(name, help=about, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        sp.add_argument("-n", type=_int_arg, help="rank (number of residues) of framing dims, >= 2")
        if lam:
            _one_of(sp, ("-w", "framing dims, comma separated (defines lambda)"),
                    ("--lam", "explicit lambda as weight JSON"))
        if tensor:
            _one_of(sp, ("--w1", "framing dims of the first factor"),
                    ("--lam1", "first factor as weight JSON"))
            _one_of(sp, ("--w2", "framing dims of the second factor"),
                    ("--lam2", "second factor as weight JSON"))
        if mu:
            _one_of(sp, ("-v", "gauge dims, comma separated (defines mu)"),
                    ("--mu", "explicit mu as weight JSON"), required=True)
        if budget:
            group = _one_of(sp, ("-v", "lowering budget, comma separated (as --budget)"),
                            ("--budget", "lowering budget, comma separated"))
            group.add_argument("--depth", type=_int_arg, help="uniform budget shorthand")
        if node_cap:
            sp.add_argument("--node-cap", type=_node_cap_arg, default=DEFAULT_NODE_CAP,
                            help="refuse to build a graph of more than this many nodes "
                                 "(a cache hit builds nothing and is served whatever the cap)")
        return sp

    sp = command("crystal", _cmd_crystal, "truncated crystal graph of lambda", budget=True,
                 node_cap=True)
    sp.add_argument("--format", choices=("json", "dot"), default="json", help="output format")
    sp.add_argument("--cache-dir", help=f"graph cache directory (default ${ENV_CACHE_DIR})")
    command("mult", _cmd_mult, "weight multiplicity (tensor variant via --w1/--w2)",
            mu=True, tensor=True)
    command("tensor", _cmd_tensor, "tensor decomposition within a budget",
            lam=False, tensor=True, budget=True)
    sp = command("branch", _cmd_branch, "rank-1 branching table at residue i", mu=True)
    sp.add_argument("-i", type=_int_arg, required=True, help="residue index in 0..n-1")
    sp.add_argument("--format", choices=("json", "tsv"), default="json", help="output format")
    sp = command("leaves", _cmd_leaves, "symplectic-leaf stratum labels", mu=True)
    sp.add_argument("--include-empty", action="store_true",
                    help="keep strata whose regular locus is empty")
    command("fixed", _cmd_fixed, "fixed point and attracting-component counts",
            mu=True, tensor=True)
    sp = command("check", _cmd_check, "compare the crystal engine against Freudenthal",
                 node_cap=True)
    sp.add_argument("--depth", type=_int_arg, required=True, help="uniform budget")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.handler(args)
    except DomainError as exc:
        print(f"affsat: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceCapError, MemoryError, OverflowError) as exc:
        print(f"affsat: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"affsat: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(doc if doc.endswith("\n") else doc + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
