"""Closed-loop client: one fresh interpreter, one query at a time.

Started by run.py with a scrubbed environment.  It imports affsat and
creates an empty cache directory (its set-up time ends there), reads the
query list, and then sends each query of the list only after the previous
one has answered.  No threads, no pools.  The list holds a fixed number of
rounds, so the work of a run never depends on how fast it went.

CLI queries go through affsat.cli.main(argv) in-process with stdout and
stderr captured, so a query's latency runs from argv to the last stdout
byte.  deep_mult queries call affsat.freudenthal.freudenthal_multiplicity,
timed from the weight JSON to the printed integer.  Process-global memos
persist across the queries of a run, as in a notebook session.

After setting up, then before a query whenever a quarter second of timed
stream has passed since the last probe, and after the last query, the client
times a fixed pure-Python probe that calls nothing in affsat (see probe());
run.py uses these to scale times to one machine speed.

Answers, exit codes and latencies are written to `answers` outside the
timed region, each as one JSON header line followed by the answer's raw
UTF-8 bytes; run.py checks them.

    python3 perfbench/client.py --out DIR --t0 T [--trace] [--setup-only]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

PROBE_EVERY_S = 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="run directory holding queries.json")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def probe_once() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i % 7, (i * 31) % 101, i // 7)
        table[key] = table.get((key[0], key[1], key[2] - 1), 0) + i
    items = sorted(table.items(), key=lambda kv: (kv[0][1], kv[0]))
    json.dumps([[list(k), v] for k, v in items[:2000]])
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed piece of tuple, dict, sort and JSON work (best of
    three, collector off so the heap of the run does not weigh on it).  On a
    shared machine whose speed drifts, this probe slows and speeds with it."""
    gc.disable()
    try:
        return min(probe_once() for _ in range(3))
    finally:
        gc.enable()


def main(argv=None) -> int:
    args = parse_args(argv)
    import affsat
    from affsat import cli, freudenthal
    from affsat.cartan import Weight

    cache_dir = os.path.join(args.out, f"cache-{os.getpid()}")
    os.mkdir(cache_dir)
    setup_s = time.monotonic() - args.t0

    # Each probe is [answers written before it, seconds].
    summary = {"setup_s": setup_s, "probes": [[0, probe()]]}
    if args.setup_only:
        write_json(os.path.join(args.out, f"setup-{os.getpid()}.json"), summary)
        return 0

    with open(os.path.join(args.out, "queries.json")) as fh:
        queries = json.load(fh)
    for q in queries:
        if "argv" in q:
            q["argv"] = [cache_dir if a == "{cache_dir}" else a for a in q["argv"]]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def run_cli(q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(q["argv"])
            except SystemExit as exc:
                code = exc.code
            latency = time.perf_counter() - start
        return latency, code, out.getvalue(), err.getvalue()

    def run_deep(q):
        spec = q["spec"]
        start = time.perf_counter()
        lam = Weight.from_json(spec["lam"])
        mu = Weight(lam.n, lam.w, tuple(a + b for a, b in zip(lam.c, spec["c"])))
        answer = f"{freudenthal.freudenthal_multiplicity(lam, mu)}\n"
        return time.perf_counter() - start, 0, answer, ""

    timed = since_probe = 0.0
    completed = 0
    with open(os.path.join(args.out, "answers"), "wb") as fh:
        for q in queries:
            if since_probe >= PROBE_EVERY_S:
                summary["probes"].append([completed, probe()])
                since_probe = 0.0
            if tracer:
                tracer.query_id = q["id"]
            runner = run_deep if q["spec"]["op"] == "deep" else run_cli
            try:
                latency, code, answer, err = runner(q)
            except Exception:  # a failed query is counted, never fatal
                latency, code, answer, err = 0.0, "exception", "", traceback.format_exc()
            timed += latency
            since_probe += latency
            completed += 1
            body = answer.encode()
            fh.write(json.dumps({"id": q["id"], "latency": latency, "code": code,
                                 "stderr": err, "bytes": len(body)}).encode() + b"\n")
            fh.write(body)
            # Free the answer before the next query, so peak RSS is one query's.
            del answer, body
    summary["probes"].append([completed, probe()])
    if tracer:
        tracer.uninstall_gc()
        tracer.dump(os.path.join(args.out, "spans.jsonl"))

    summary.update(
        completed=completed,
        timed_s=timed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=sys.version.split()[0],
        backend=affsat.backend_name(),
        convention_id=affsat.CONVENTION_ID,
    )
    write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
