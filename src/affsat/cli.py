"""Command-line front end and the persistent crystal-graph cache.

One query, one document: every command writes exactly one JSON, DOT or TSV
document to stdout and keeps diagnostics on stderr.  crystal with no cache
writes the blocks of CrystalGraph.json_blocks as they come, never the
joined text; its graph is built, and every exit 2 or 3 decided, before the
first byte (out of memory while writing blocks exits 3 after a truncated
document).  A reader that closes stdout early ends a command quietly, with
its exit code and an empty stderr.  Exit codes: 0 success,
2 validation error, 3 node-cap exceeded (crystal, capped by building, and
check, refused from its Freudenthal table before its graph is built; both
refuse a level over the default cap before the highest-weight word of one
factor per unit of level is built, whatever --node-cap is; mult,
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
newline and the document, in UTF-8; a miss writes the chunks it built, in
slices, and the fixed-width digest line last, then serves those chunks, and
a warm hit reads the entry once, as bytes, and serves it byte-identical once
the digest matches, before its first byte.  --format dot is rendered once
from the JSON entry and served from its own digest-checked entry.  DOT is
read from the JSON text, the entry's or the uncached blocks', in slices of
whole records, the edge pattern over the edges section and the node pattern
over the nodes section, and is kept as each slice's lines, never joined.
--node-cap bounds building only: a hit builds nothing, so it is served
whatever the cap, and an argv whose cold run exits 3 exits 0 once its
entry is cached.  Version-1 entries are never read and can be deleted.
Nothing is ever evicted: the cache grows until its {key}.json and {key}.dot
files are deleted, which is always safe.

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
from collections.abc import Iterable, Iterator

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
# The most digits an input integer may have: safely under the interpreter's
# 4,300-digit limit on converting between int and str, so that an answer
# can print the numbers it derives from its inputs.
MAX_INPUT_DIGITS = 4000


def _integer(text: str) -> int:
    """An integer token; DomainError past MAX_INPUT_DIGITS digits."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_INPUT_DIGITS:
        raise DomainError(f"an integer has at most {MAX_INPUT_DIGITS} digits, got one of {digits}")
    return int(text)


def _int_arg(text: str) -> int:
    """argparse type for the integer options."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return _integer(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _node_cap_arg(text: str) -> int:
    cap = _int_arg(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"--node-cap must be at least 1, got {cap}")
    return cap


def _parse_vector(text: str, n: int, name: str) -> tuple[int, ...]:
    entries = text.split(",")
    if not all(map(_INTEGER.fullmatch, entries)):
        raise DomainError(f"malformed {name} vector {text!r}: expected comma-separated integers")
    vec = tuple(map(_integer, entries))
    if len(vec) != n:
        raise DomainError(f"{name} vector must have length n={n}, got {len(vec)}")
    return vec


def _weight_from_json_arg(text: str) -> Weight:
    try:
        obj = json.loads(text, parse_int=_integer)
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


def _cache_key(lam: Weight, budget: tuple[int, ...]) -> str:
    import hashlib

    payload = canonical_dumps({
        "schema_version": SCHEMA_VERSION,
        "n": lam.n,
        "lambda": lam.to_json(),
        "budget": list(budget),
        "convention_id": CONVENTION_ID,
    })
    return hashlib.sha256(payload.encode()).hexdigest()


# An entry's first line, the document's sha256 hex digest and a newline, has
# this fixed width, so the entry's writer leaves room for it and writes it last.
_DIGEST_LINE = 65
# Characters of a stored document encoded, hashed and written at a time.
_WRITE_CHARS = 1 << 20


def _cached(path, make) -> str | list[str]:
    """The document stored at path when its digest line matches, as one
    string, else the chunks make() returns, stored by _store first.

    A hit reads the entry once, as bytes, checks the digest over a view of
    the body and decodes it once, as UTF-8.  A missing entry is a silent
    miss; a corrupt or unreadable one is rebuilt with a warning.
    """
    import hashlib

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.find(b"\n")
        body = memoryview(data)[cut + 1 :]
        doc = str(body, "utf-8")
        if cut >= 0 and hashlib.sha256(body).hexdigest() == data[:cut].decode("utf-8"):
            return doc
        print(f"affsat: cache entry {path.name} failed its digest check; rebuilding",
              file=sys.stderr)
    except (FileNotFoundError, NotADirectoryError):  # no entry, or no cache dir yet
        pass
    except (OSError, ValueError):
        print(f"affsat: cache entry {path.name} is unreadable; rebuilding", file=sys.stderr)
    chunks = make()
    _store(path, chunks)
    return chunks


def _store(path, chunks: Iterable[str]) -> None:
    """Write the document the chunks join to, each chunk in _WRITE_CHARS
    slices through one sha256 and the digest line last, to a temp file that
    replaces path's entry atomically; a write failure degrades to no store."""
    import hashlib
    import tempfile
    from pathlib import Path

    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        digest = hashlib.sha256()
        with os.fdopen(fd, "wb") as fh:
            fh.seek(_DIGEST_LINE)
            for chunk in chunks:
                for start in range(0, len(chunk), _WRITE_CHARS):
                    block = chunk[start : start + _WRITE_CHARS].encode("utf-8")
                    digest.update(block)
                    fh.write(block)
            fh.seek(0)
            fh.write(digest.hexdigest().encode() + b"\n")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"affsat: cache write failed ({exc}); continuing without store", file=sys.stderr)
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


def cache_get_or_build(lam: Weight, budget, cache_dir: str | None, *,
                       node_cap: int = DEFAULT_NODE_CAP, fmt: str = "json") -> str | Iterable[str]:
    """Canonical graph JSON, or its DOT rendering (fmt="dot"), for (lambda,
    budget), served from cache when possible.

    Each format has its own entry, {key}.json or {key}.dot, served only when
    its stored digest matches, as one string.  A DOT miss is rendered from
    the JSON entry, so a full miss builds once and writes both.  A miss
    returns the chunks its entry, complete by then, was written from: the
    joined document for JSON, the renderer's chunks for DOT.  With no cache
    the JSON document is returned as the iterator of its blocks
    (CrystalGraph.json_blocks), for the caller to write as they come, and DOT
    is rendered from those blocks; the graph is built either way first.
    """
    from pathlib import Path

    if fmt not in ("json", "dot"):
        raise DomainError(f"unknown graph format {fmt!r}: expected 'json' or 'dot'")
    budget = validate_budget(lam.n, budget)

    def graph():
        from . import crystal

        return crystal.generate_crystal(lam, budget, node_cap=node_cap)

    if cache_dir is None:
        blocks = graph().json_blocks()
        return dot_from_graph_json(blocks) if fmt == "dot" else blocks
    root = Path(cache_dir)
    if root.exists() and not root.is_dir():
        raise DomainError(f"cache dir {cache_dir!r} exists and is not a directory")
    key = _cache_key(lam, budget)

    def build() -> list[str]:
        # a miss is served once its entry is complete, so it holds the whole text
        return [graph().to_json_str()]

    if fmt == "dot":
        return _cached(root / f"{key}.dot",
                       lambda: dot_from_graph_json(_cached(root / f"{key}.json", build)))
    return _cached(root / f"{key}.json", build)


# A node's id and c, and an edge, in the layout CrystalGraph.json_blocks writes.
_DOC_NODE = re.compile(r'\{"id":(\d+),"weight":\{"c":\[([-\d,]+)\]')
_DOC_EDGE = re.compile(r'\{"from":(\d+),"i":(\d+),"to":(\d+)\}')
# Characters of a document read at a time when rendering DOT; a slice runs on
# to just before the next record, so no record is cut.
_DOT_SLICE_CHARS = 1 << 16


def dot_from_graph_json(doc: str | Iterable[str]) -> list[str]:
    """DOT rendering of a canonical graph document, read from its text: nodes
    labelled by weight, edges labelled by residue and colored by residue class.

    doc is the document, or blocks of whole records whose concatenation is
    the document (CrystalGraph.json_blocks).  The text before "nodes":[ is
    the edges section and the rest the nodes section, so blocks before the
    one holding it are edges and that block carries both halves.  Each
    section is read in slices of whole records, about _DOT_SLICE_CHARS
    characters each, the edge pattern over edge slices only and the node
    pattern over node slices only.  The DOT is returned unjoined: its header,
    the rendered lines of each node slice, then of each edge slice, its footer.
    """
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")
    nodes, edges = [], []
    in_edges = True
    for block in (doc,) if isinstance(doc, str) else doc:
        cut = block.find('"nodes":[') if in_edges else 0
        in_edges = cut < 0
        if in_edges:
            cut = len(block)
        for start, stop in _record_slices(block, 0, cut, ',{"from":'):
            edges.append("".join([f'  n{a} -> n{b} [label="{i}", '
                                  f'color="{palette[int(i) % len(palette)]}"];\n'
                                  for a, i, b in _DOC_EDGE.findall(block, start, stop)]))
        for start, stop in _record_slices(block, cut, len(block), ',{"id":'):
            nodes.append("".join([f'  n{k} [label="c=[{c.replace(",", ", ")}]"];\n'
                                  for k, c in _DOC_NODE.findall(block, start, stop)]))
    return ["digraph crystal {\n  rankdir=TB;\n", *nodes, *edges, "}\n"]


def _record_slices(text: str, start: int, stop: int, record: str) -> Iterator[tuple[int, int]]:
    """Spans tiling text[start:stop], each of at least _DOT_SLICE_CHARS
    characters and ending just before the next occurrence of record (a
    record's start), or at stop."""
    while start < stop:
        end = text.find(record, start + _DOT_SLICE_CHARS, stop)
        end = stop if end < 0 else end
        yield start, end
        start = end


# -- commands ----------------------------------------------------------------


def _cmd_crystal(args) -> tuple[str | Iterable[str], int]:
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
    failure = None  # written after its except block, which frees the failed frames
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.handler(args)
    except DomainError as exc:
        print(f"affsat: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceCapError, MemoryError, OverflowError) as exc:
        failure = str(exc) or "out of memory"
    except ConsistencyError as exc:
        print(f"affsat: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if failure is None:
            _write(doc)
    except BrokenPipeError:
        # The reader closed stdout early and wants no more.  stdout's
        # descriptor goes to os.devnull, so the interpreter's final flush of
        # what is still buffered stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except MemoryError:
        del doc
        failure = "out of memory"
    if failure:
        print(f"affsat: {failure}", file=sys.stderr)
        return EXIT_RESOURCE
    return code


def _write(doc: str | Iterable[str]) -> None:
    """Write doc, a document or the blocks of one, to stdout as they come,
    ending it with a newline, and flush."""
    last = ""
    for last in (doc,) if isinstance(doc, str) else doc:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
