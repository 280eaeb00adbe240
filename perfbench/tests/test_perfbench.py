"""Tests of the benchmark itself: seeded generation, checkers, reported names.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def generate(workload: str, seed: int) -> list[dict]:
    """The query list a run at BENCHMARK.json's run_seconds executes."""
    return workloads.generate(workload, seed,
                              workloads.rounds_for(workload, SPEC["run_seconds"]))


def answer(query: dict) -> str:
    """The program's answer to one generated query, run in-process."""
    from affsat import Weight, cli, freudenthal

    spec = query["spec"]
    if spec["op"] == "deep":
        lam = Weight.from_json(spec["lam"])
        mu = Weight(lam.n, lam.w, tuple(a + b for a, b in zip(lam.c, spec["c"])))
        return f"{freudenthal.freudenthal_multiplicity(lam, mu)}\n"
    argv = [a for a in query["argv"]]
    if "{cache_dir}" in argv:
        i = argv.index("{cache_dir}")
        del argv[i - 1 : i + 1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def first(workload: str, **match) -> dict:
    """The first generated query whose spec has the given items."""
    for q in generate(workload, 1):
        if all(q["spec"].get(k) == v for k, v in match.items()):
            return q
    raise LookupError(match)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_query_list(workload):
    a = workloads.digest(generate(workload, 7))
    assert a == workloads.digest(generate(workload, 7))
    assert a != workloads.digest(generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [0, SPEC["run_seconds"]])
def test_tail_keeps_ten_samples_beyond_it(workload, seconds):
    rounds = workloads.rounds_for(workload, seconds)
    count = len(workloads.generate(workload, 1, rounds))
    stats = run.latency_stats([float(i) for i in range(count)],
                              workloads.RUN_SHAPE[workload]["tail_pct"])
    assert stats["beyond"] >= 10


@pytest.mark.parametrize("workload", ["graph_cold", "graph_cached", "queries"])
def test_rounds_have_one_composition(workload):
    """Seeds relabel queries, never resize them: every round costs the same.
    (deep_mult draws the depths of its memo hits, which cost next to nothing.)"""
    def shape(q):
        spec = q["spec"]
        size = spec.get("budget", spec.get("u", spec.get("depth")))
        return spec["op"], spec.get("class"), json.dumps(sorted(size) if isinstance(size, list) else size), spec.get("format")

    rounds = {}
    for seed in (1, 2):
        for q in generate(workload, seed):
            rounds.setdefault((seed, q["round"]), []).append(shape(q))
    # graph_cached fills its sliding window over the first rounds.
    settled = [sorted(v) for (seed, r), v in rounds.items() if r >= 3]
    assert all(s == settled[0] for s in settled)


def test_graph_cold_keys_are_distinct():
    keys = [json.dumps([q["spec"]["lam"], q["spec"]["budget"]])
            for q in generate("graph_cold", 3)]
    assert len(keys) == len(set(keys))


def corrupt_json_node(text: str) -> str:
    doc = json.loads(text)
    doc["nodes"][-1]["weight"]["c"][0] += 1
    return json.dumps(doc)


def test_graph_cold_checker_flags_a_corrupted_graph():
    q = first("graph_cold", **{"class": "n2w20"})
    good = answer(q)
    assert Checker().check(q["spec"], 0, good) is None
    assert Checker().check(q["spec"], 0, corrupt_json_node(good)) is not None
    doc = json.loads(good)
    doc["edges"].pop()
    assert Checker().check(q["spec"], 0, json.dumps(doc)) is not None
    doc = json.loads(good)
    doc["nodes"].pop()
    assert Checker().check(q["spec"], 0, json.dumps(doc)) is not None
    assert Checker().check(q["spec"], 3, good) is not None


def test_graph_cached_checker_flags_a_corrupted_hit_and_dot():
    q = first("graph_cached", **{"class": "n4opp"})
    checker = Checker()
    good = answer(q)
    assert checker.check(q["spec"], 0, good) is None
    assert checker.check(q["spec"], 0, good) is None
    assert checker.check(q["spec"], 0, good.replace("[", " [", 1)) is not None

    dot_spec = dict(q["spec"], format="dot")
    dot = answer({"spec": dot_spec, "argv": workloads.argv_for(dot_spec)})
    assert Checker().check(dot_spec, 0, dot) is None
    lines = dot.split("\n")
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    del lines[edge - 1]  # the last node line
    assert Checker().check(dot_spec, 0, "\n".join(lines)) is not None


@pytest.mark.parametrize("op", ["mult", "fixed", "branch", "tensor", "leaves", "check"])
def test_queries_checker_flags_corrupted_answers(op):
    q = first("queries", op=op, **({"budget": [8, 8]} if op == "tensor" else {}))
    good = answer(q)
    checker = Checker()
    assert checker.check(q["spec"], 0, good) is None
    digits = [i for i, ch in enumerate(good) if ch.isdigit() and ch != "0"]
    # Change the last nonzero digit that matters: counts sit late in each document.
    for i in reversed(digits):
        bad = good[:i] + str(int(good[i]) % 9 + 1) + good[i + 1 :]
        if bad != good:
            break
    assert checker.check(q["spec"], 0, bad) is not None
    if op == "check":
        assert checker.check(q["spec"], 0, good.replace('"OK"', '"FAIL"')) is not None


def test_queries_checker_flags_tensor_and_tsv_corruption():
    q = first("queries", op="tensor", budget=[8, 8])
    doc = json.loads(answer(q))
    doc["highest_weights"][-1]["multiplicity"] += 1
    assert Checker().check(q["spec"], 0, json.dumps(doc)) is not None
    q = first("queries", op="branch", format="tsv")
    good = answer(q)
    assert Checker().check(q["spec"], 0, good) is None
    assert Checker().check(q["spec"], 0, good.rstrip("\n")) is not None


def test_deep_mult_checker_flags_a_wrong_multiplicity():
    q = first("deep_mult")
    good = answer(q)
    assert Checker().check(q["spec"], 0, good) is None
    assert Checker().check(q["spec"], 0, f"{int(good) + 1}\n") is not None


def test_coloured_partitions_give_the_level_one_strings():
    from checks import coloured_partitions

    assert [coloured_partitions(1, d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert [coloured_partitions(2, d) for d in range(5)] == [1, 2, 5, 10, 20]


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_mult", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
