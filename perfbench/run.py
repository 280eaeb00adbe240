"""affsat session benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload graph_cold --seed 1 --seconds 12 --trace 0

Generates the workload's query list from the seed, with as many rounds as
fill --seconds at the reference machine speed (see workloads.py), runs it
in fresh child interpreters (client.py) with a scrubbed environment, checks
every answer against an independent route (checks.py) outside the timed
region, and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of a timed run.  --trace 1 runs the
same list twice, untraced and traced, checks that both
gave byte-identical answers, and reports the per-layer metrics.  Metric
names and units are those of BENCHMARK.json at the repository root.  Times
are scaled to one machine speed by a probe timed between queries (see
REF_PROBE_S); the report prints the unscaled end-to-end values beside them.

error_rate (failed / attempted) is printed in the report and carried by the
attempted and failed fields; it is 0 on a correct program, so it is not one
of the bounded metrics.  Must run from a checkout holding src/affsat; the
command exits with status 2 and prints no result anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 9  # setups per run, the timed client's own included

# Times are reported at one machine speed: this benchmark was tuned on a
# shared 2-core machine whose speed drifted by up to a factor of two between
# runs.  The client times a fixed probe (client.probe) after setting up and
# then about every quarter second of timed stream, between queries; each
# query's latency is multiplied by REF_PROBE_S over the mean of the probes on
# either side of it, and each setup by REF_PROBE_S over the probe its child
# took right after setting up.  REF_PROBE_S is the probe's time on that
# machine when quiet; only ratios between runs matter.
REF_PROBE_S = 0.007
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed stream per run at the reference machine speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("AFFSAT_CACHE_DIR", "AFFSAT_PURE_PYTHON", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{HERE}"
    return env


def run_client(run_dir: Path, *flags: str) -> None:
    argv = [sys.executable, str(HERE / "client.py"), "--out", str(run_dir)]
    argv += ["--t0", repr(time.monotonic()), *flags]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def run_stream(run_dir: Path, *flags: str) -> dict:
    """One client run of the whole query list; its summary."""
    run_client(run_dir, *flags)
    return json.loads((run_dir / "summary.json").read_text())


def read_answers(run_dir: Path):
    """The client's answers in order: header dicts with the answer text added."""
    with open(run_dir / "answers", "rb") as fh:
        for line in fh:
            record = json.loads(line)
            record["answer"] = fh.read(record.pop("bytes")).decode()
            yield record


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def latency_stats(latencies: list[float], tail_pct: float) -> dict:
    """Median and tail in ms.  The tail is the workload's fixed percentile,
    which its round count keeps at least ten samples below the top."""
    values = sorted(latencies)
    rank = math.ceil(tail_pct / 100 * len(values))
    return {
        "p50_ms": 1000 * statistics.median(values),
        "tail_ms": 1000 * values[rank - 1],
        "tail_pct": tail_pct,
        "samples": len(values),
        "beyond": len(values) - rank,
    }


def answer_scales(summary: dict, count: int) -> list[float]:
    """Per answer, REF_PROBE_S over the mean of the probes around it."""
    probes = summary["probes"]
    scales, k = [], 0
    for j in range(count):
        while probes[k + 1][0] <= j:
            k += 1
        scales.append(2 * REF_PROBE_S / (probes[k][1] + probes[k + 1][1]))
    return scales


def scale(answers: list[dict], summary: dict) -> list[dict]:
    """The answers with each latency scaled to the reference machine speed."""
    return [dict(a, latency=a["latency"] * f)
            for a, f in zip(answers, answer_scales(summary, len(answers)))]


def round_rate(queries: list[dict], answers: list[dict]) -> tuple[float, int]:
    """Queries per second of the median round, and the number of rounds.

    Rounds have equal composition, and the median round shrugs off a burst
    of load from outside the benchmark."""
    per_round: dict[int, list[float]] = {}
    for a in answers:
        per_round.setdefault(queries[a["id"]]["round"], []).append(a["latency"])
    return statistics.median(len(v) / sum(v) for v in per_round.values()), len(per_round)


def check_answers(queries: list[dict], run_dir: Path) -> tuple[list[dict], list]:
    """Check every answer of a client run.  Returns the answers without their
    text (a sha256 digest stands in) and the failures as (id, reason)."""
    from checks import Checker

    checker = Checker()
    answers, failures = [], []
    for a in read_answers(run_dir):
        reason = checker.check(queries[a["id"]]["spec"], a["code"], a["answer"])
        if reason is not None:
            failures.append((a["id"], reason))
        a["answer"] = hashlib.sha256(a["answer"].encode()).hexdigest()
        answers.append(a)
    return answers, failures


def measure(args, queries: list[dict], run_dir: Path):
    """Timed run: end-to-end metrics with notes, answers, failures, summary."""
    from workloads import RUN_SHAPE

    shape = RUN_SHAPE[args.workload]
    for _ in range(SETUP_SAMPLES - 1):
        run_client(run_dir, "--setup-only")
    setups = []
    for path in run_dir.glob("setup-*.json"):
        child = json.loads(path.read_text())
        setups.append((child["setup_s"], child["probes"][0][1]))
    summary = run_stream(run_dir)
    setups.append((summary["setup_s"], summary["probes"][0][1]))
    raw, failures = check_answers(queries, run_dir)
    answers = scale(raw, summary)
    lat = latency_stats([a["latency"] for a in answers], shape["tail_pct"])
    raw_lat = latency_stats([a["latency"] for a in raw], shape["tail_pct"])
    throughput, rounds = round_rate(queries, answers)
    values = {
        "throughput_qps": throughput,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "setup_s": statistics.median(t * REF_PROBE_S / p for t, p in setups),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    notes = {
        "throughput_qps": f"median round of {rounds}, unscaled "
                          f"{round_rate(queries, raw)[0]:.3f}; {len(answers)} queries",
        "latency_p50_ms": f"of {lat['samples']} samples, unscaled {raw_lat['p50_ms']:.3f}",
        "latency_tail_ms": f"p{lat['tail_pct']:g} of {lat['samples']} samples, "
                           f"{lat['beyond']} beyond, unscaled {raw_lat['tail_ms']:.3f}",
        "setup_s": f"median of {len(setups)} child starts, unscaled "
                   f"{statistics.median(t for t, _ in setups):.4f}",
        "peak_rss_mb": f"probe median {1000 * statistics.median(p for _, p in summary['probes']):.3f}"
                       f" ms against {1000 * REF_PROBE_S:g} ms",
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, notes, answers, failures, summary


def trace(args, queries: list[dict], run_dir: Path):
    """Traced run: per-layer metrics with notes, answers, failures, summary."""
    import tracing

    plain = run_stream(run_dir)
    answers, failures = check_answers(queries, run_dir)
    summary = run_stream(run_dir, "--trace")
    traced = [dict(a, answer=hashlib.sha256(a["answer"].encode()).hexdigest())
              for a in read_answers(run_dir)]
    if len(traced) != len(answers):
        failures.append((-1, "traced run answered a different number of queries"))
    for a, b in zip(answers, traced):
        if (a["id"], a["code"], a["answer"]) != (b["id"], b["code"], b["answer"]):
            failures.append((b["id"], "traced answer differs from the untraced one"))
    overhead = (round_rate(queries, scale(answers, plain))[0]
                / round_rate(queries, scale(traced, summary))[0])
    spans, counts, gc_s = tracing.load(run_dir / "spans.jsonl")
    keep = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    shutil.copyfile(run_dir / "spans.jsonl", keep)
    notes = {"trace.overhead": f"{len(spans)} spans kept in {keep.relative_to(ROOT)}"}
    scales = answer_scales(summary, len(traced))
    query_scale = {a["id"]: f for a, f in zip(traced, scales)}
    metrics = tracing.layer_metrics(spans, counts, gc_s * statistics.median(scales), overhead,
                                    query_scale)
    return metrics, notes, answers, failures, summary


def meta(args, queries: list[dict], summary: dict) -> dict:
    from workloads import digest

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": queries[-1]["round"] + 1,
        "query_digest": digest(queries),
        "python": summary["python"],
        "backend": summary["backend"],
        "convention_id": summary["convention_id"],
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    if not (SRC / "affsat" / "__init__.py").is_file():
        print(f"perfbench: no affsat sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    args = parse_args(argv)
    from workloads import generate, rounds_for

    queries = generate(args.workload, args.seed, rounds_for(args.workload, args.seconds))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        (run_dir / "queries.json").write_text(json.dumps(queries))
        import affsat  # noqa: F401  (byte-compiles src before any timed child starts)

        step = trace if args.trace else measure
        metrics, notes, answers, failures, summary = step(args, queries, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit:<6} {notes.get(name, '')}".rstrip())
    print(f"error_rate  {len(failures) / len(answers):.6f}  ({len(failures)} of {len(answers)})")
    for qid, reason in failures[:20]:
        print(f"failed query {qid}: {reason}")
    print("meta " + json.dumps(meta(args, queries, summary), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(answers),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
