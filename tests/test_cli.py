import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affsat import Weight, cli
from affsat.cli import build_parser, main

from conftest import coloured_partitions, graph_branching

# `python -m affsat` in a child interpreter, importing this checkout's src/
# whether or not the package is installed.
AFFSAT = [sys.executable, "-m", "affsat"]
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


NINES_5000 = "9" * 5000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_entry(path):
    """A cache entry's stored digest and document."""
    digest, newline, doc = path.read_text().partition("\n")
    assert newline, path
    return digest, doc


def test_mult_example(capsys):
    code, out, _ = run_cli(capsys, "mult", "-n", "2", "-w", "1,0", "-v", "2,2")
    assert code == 0
    assert json.loads(out) == {"multiplicity": 2}


@pytest.mark.parametrize("d", [1, 2])
def test_mult_at_rank_800(capsys, d):
    # Frenkel-Kac: mult(Lambda_0 - d delta) is the number of 799-coloured
    # partitions of d, 799 and 320,399
    w, v = ",".join(["1"] + ["0"] * 799), ",".join([str(d)] * 800)
    code, out, _ = run_cli(capsys, "mult", "-n", "800", "-w", w, "-v", v)
    assert code == 0
    assert json.loads(out) == {"multiplicity": coloured_partitions(799, d)}


def test_mult_explicit_weight_json(capsys):
    lam = '{"n": 2, "w": [1, 0], "c": [0, 0]}'
    mu = '{"n": 2, "w": [1, 0], "c": [2, 2]}'
    code, out, _ = run_cli(capsys, "mult", "--lam", lam, "--mu", mu)
    assert code == 0
    assert json.loads(out) == {"multiplicity": 2}


def test_mult_tensor_variant(capsys):
    code, out, _ = run_cli(capsys, "mult", "-n", "3", "--w1", "0,1,0", "--w2", "0,0,1",
                           "-v", "0,1,1")
    assert code == 0
    assert json.loads(out) == {"multiplicity": 3}


def test_leaves_example(capsys):
    code, out, _ = run_cli(capsys, "leaves", "-n", "2", "-w", "1,0", "-v", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["strata"]) == 2
    code, out, _ = run_cli(capsys, "leaves", "-n", "2", "-w", "1,0", "-v", "1,1",
                           "--include-empty")
    assert len(json.loads(out)["strata"]) == 3
    for stratum in json.loads(out)["strata"]:
        assert set(stratum) == {"kappa", "k", "regular_locus_empty"}
        assert set(stratum["kappa"]) == {"n", "w", "c"}


def test_check_example(capsys):
    code, out, err = run_cli(capsys, "check", "-n", "2", "-w", "1,0", "--depth", "4")
    assert code == 0
    assert "crystal vs Freudenthal: OK (25 weights compared)" in err
    doc = json.loads(out)
    assert doc["status"] == "OK"
    assert doc["weights_compared"] == 25
    assert doc["disagreements"] == []


def test_crystal_json_document(capsys):
    code, out, _ = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"lambda", "budget", "nodes", "edges"}
    assert doc["budget"] == [2, 2]


def test_crystal_dot_format(capsys):
    code, out, _ = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "1",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.rstrip().endswith("}")


@pytest.mark.parametrize("argv, digest", [
    # the 20,471-node reference graph
    (("-n", "3", "-w", "1,1,0", "--depth", "8"),
     "485ae6bf5fae38d0c032a8d8e007941039df9da9d0d659152de228176bdb0cf5"),
    # lambda shifted by -2 delta: negative c in every label
    (("--lam", '{"n":3,"w":[1,1,0],"c":[-2,-2,-2]}', "--depth", "3"),
     "ff419646a560ace16cfa4bf07b0300a2f9c546d1d9643b4e1e73a4fa1be70cea"),
    # budget 0: the highest-weight node alone
    (("-n", "3", "-w", "1,1,0", "--depth", "0"),
     "58c063ae006a3ceff9208e276d65b0e26da65880f4038ece329798f96cc23e01"),
])
def test_crystal_dot_pinned(tmp_path, capsys, argv, digest):
    args = ("crystal", *argv, "--format", "dot", "--cache-dir", str(tmp_path))
    for cache in ("cold", "warm"):
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, ""), cache
        assert hashlib.sha256(out.encode()).hexdigest() == digest, cache
    # the JSON entry and the DOT entry rendered from it, nothing else
    args = build_parser().parse_args(["crystal", *argv])
    lam = cli._weight(args, "-w", "--lam")
    key = cli._cache_key(lam, cli._resolve_budget(args, lam))
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.dot", f"{key}.json"]


def test_crystal_unknown_format(capsys):
    code, out, err = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "1",
                             "--format", "svg")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "invalid choice" in err


def test_branch_tsv(capsys):
    code, out, _ = run_cli(capsys, "branch", "-n", "2", "-w", "1,0", "-v", "2,2",
                           "-i", "1", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k\tkappa_prime\tpairing\tmultiplicity"
    assert len(lines) == 3


def test_branch_json(capsys):
    code, out, _ = run_cli(capsys, "branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", "1")
    assert code == 0
    table = json.loads(out)["table"]
    assert [(row["k"], row["multiplicity"]) for row in table] == [(0, 1), (1, 1)]


def test_tensor_command(capsys):
    code, out, _ = run_cli(capsys, "tensor", "-n", "3", "--w1", "0,1,0", "--w2", "0,0,1",
                           "-v", "0,1,1")
    assert code == 0
    doc = json.loads(out)
    assert [entry["kappa"]["c"] for entry in doc["highest_weights"]] == [[0, 0, 0], [0, 1, 1]]


@pytest.mark.parametrize("argv, digest", [
    (("-n", "3", "--w1", "1,1,0", "--w2", "0,1,1", "--depth", "4"),
     "b6b18fd7f7db9dfdbcb4466e11b48516d09ca258f5dd3470cec7e46ce52577c5"),
    (("-n", "2", "--w1", "2,0", "--w2", "1,1", "--depth", "5"),
     "3d22a46acf5bdde223ec2c9dc652b20e1f17ba68a99597877ddda215d3daa17c"),
    (("-n", "4", "--w1", "1,0,0,0", "--w2", "0,1,0,1", "--budget", "2,1,2,1"),
     "6ec52684e0c66137e6c25650bf3908057116202c9c3440c6d0ae3450719652ac"),
])
def test_tensor_output_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "tensor", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_negative_depth(capsys):
    # the budget check of crystal generation refuses it, for every command;
    # a box with a negative entry holds no point, so the box cap passes it
    commands = [("crystal", "-n", "2", "-w", "1,0"),
                ("tensor", "-n", "2", "--w1", "1,0", "--w2", "0,1"),
                ("check", "-n", "2", "-w", "1,0")]
    for argv, depth in itertools.product(commands, ("-1", "-3000")):
        code, out, err = run_cli(capsys, *argv, "--depth", depth)
        assert (code, out) == (2, ""), (argv, depth)
        assert len(err.splitlines()) == 1 and "nonnegative" in err, (argv, depth)


def test_tensor_level_zero_factor(capsys):
    zero = '{"n": 3, "w": [0, 0, 0], "c": [0, 0, 0]}'
    lam = '{"n": 3, "w": [0, 1, 0], "c": [0, 0, 0]}'
    off_cone = '{"n": 3, "w": [0, 1, 0], "c": [-1, 0, 0]}'
    for argv in [("tensor", "--depth", "1"), ("mult", "--mu", off_cone),
                 ("fixed", "--mu", off_cone)]:
        code, out, err = run_cli(capsys, *argv, "--lam1", lam, "--lam2", zero)
        assert (code, out) == (2, ""), argv
        assert "level >= 1" in err, argv


def test_fixed_command(capsys):
    code, out, _ = run_cli(capsys, "fixed", "-n", "2", "-w", "1,0", "-v", "1,1")
    assert code == 0
    assert json.loads(out) == {"attracting_component_count": 1, "fixed_point_count": 1}


def test_fixed_tensor_variant(capsys):
    code, out, _ = run_cli(capsys, "fixed", "-n", "3", "--w1", "0,1,0", "--w2", "0,0,1",
                           "-v", "0,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert len(doc["splittings"]) == 3


def test_validation_errors(capsys, tmp_path, monkeypatch):
    assert run_cli(capsys, "mult", "-n", "2", "-w", "1,x", "-v", "0,0")[0] == 2
    assert run_cli(capsys, "mult", "-n", "3", "-w", "1,0", "-v", "0,0,0")[0] == 2
    assert run_cli(capsys, "mult", "-n", "1", "-w", "1", "-v", "0")[0] == 2
    assert run_cli(capsys, "mult", "-n", "2", "-w", "0,0", "-v", "0,0")[0] == 2
    assert run_cli(capsys, "crystal", "-n", "2", "-w", "1,0")[0] == 2       # no budget
    for lam in [
        '{"n": "x", "w": [1, 0], "c": [0, 0]}',
        '{"n": 2.0, "w": [1, 0], "c": [0, 0]}',
        '{"n": true, "w": [1, 0], "c": [0, 0]}',
        '{"n": 2, "w": [1, 0], "c": [true, 0]}',
        '{"n": 2, "w": [1, 0.5], "c": [0, 0]}',
        '{"n": 2, "w": ["1", 0], "c": [0, 0]}',
        '{"n": 2, "w": "10", "c": [0, 0]}',
        '{"n": 2, "w": [1, 0], "c": {"0": 0}}',
        '{"n": 2, "w": [1, 0]}',
        '[2, [1, 0], [0, 0]]',
        "[" * 5000 + "]" * 5000,  # deeper than the JSON decoder recurses
    ]:
        code, out, err = run_cli(capsys, "mult", "--lam", lam, "-v", "0,0")
        assert (code, out) == (2, ""), lam
        assert len(err.splitlines()) == 1 and "malformed weight JSON" in err, lam
    # Integers are ASCII digits with an optional minus: no "_", "+", spaces
    # or other scripts' digits, all of which int() would accept.
    for argv in [
        ("crystal", "-n", "2", "-w", "1_0,0", "--depth", "0"),
        ("crystal", "-n", "2", "-w", "1,0", "--budget", "\u0662,1"),
        ("crystal", "-n", "2", "-w", " 1,0", "--depth", "0"),
        ("crystal", "-n", "2", "-w", "+1,0", "--depth", "0"),
        ("mult", "-n", "2", "-w", "1,0", "-v", "1,\uff11"),
        # an empty budget is malformed, not absent
        ("crystal", "-n", "2", "-w", "1,0", "--budget", ""),
        ("crystal", "-n", "2", "-w", "1,0", "-v", ""),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and "expected comma-separated integers" in err, argv
    for argv in [
        ("crystal", "-n", "+2", "-w", "1,0", "--depth", "0"),
        ("crystal", "-n", " 2", "-w", "1,0", "--depth", "0"),
        ("crystal", "-n", "2", "-w", "1,0", "--depth", "1_0"),
        ("crystal", "-n", "2", "-w", "1,0", "--depth", "\u0662"),
        ("crystal", "-n", "2", "-w", "1,0", "--depth", "1", "--node-cap", "1_000"),
        ("branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", "\u0661"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and "expected an integer" in err, argv
    # Every other malformed command line, too, returns 2 with one stderr line.
    for argv, message in [
        ((), "required: command"),
        (("crystal", "-n", "2", "-w", "1,0", "--depth", "1", "--bogus"), "unrecognized"),
        # options are spelled out: a prefix is not read as the option it starts
        (("crystal", "-n", "2", "-w", "1,0", "--depth", "1", "--cache", str(tmp_path)),
         "unrecognized arguments: --cache"),
        (("crystal", "-n", "2", "-w", "1,0", "--dep", "1"), "unrecognized arguments: --dep"),
        (("crystal", "-n", "2", "-w", "1,0", "--depth", "1", "--node-cap", "0"),
         "--node-cap must be at least 1"),
        # --mu was accepted and never read by crystal and tensor
        (("crystal", "-n", "2", "-w", "1,0", "--depth", "1", "--mu", "garbage"), "unrecognized"),
        (("tensor", "-n", "3", "--w1", "0,1,0", "--w2", "0,0,1", "-v", "0,1,1",
          "--mu", "garbage"), "unrecognized"),
        # only crystal and check build a crystal, so only they have a node cap
        *[((command, "-n", "2", "-w", "1,0", "-v", "1,1", *extra, "--node-cap", "5"),
           "unrecognized arguments: --node-cap")
          for command, extra in [("leaves", ()), ("mult", ()), ("fixed", ()),
                                 ("branch", ("-i", "0"))]],
        (("tensor", "-n", "2", "--w1", "1,0", "--w2", "0,1", "--depth", "1", "--node-cap", "5"),
         "unrecognized arguments: --node-cap"),
        # Each form below was accepted with part of it never read.
        # tensor reads no lambda: -w and --lam are not its options
        (("tensor", "-n", "2", "-w", "9,9", "--lam", "garbage", "--w1", "1,0", "--w2", "0,1",
          "--depth", "1"), "--lam"),
        (("tensor", "-n", "2", "-w", "9,9", "--w1", "1,0", "--w2", "0,1", "--depth", "1"),
         "unrecognized arguments: -w 9,9"),
        # any tensor factor selects the tensor form, which reads no -w or --lam
        (("mult", "-n", "2", "-w", "1,0", "-v", "0,0", "--w2", "0,1"), "tensor factors"),
        (("fixed", "-n", "2", "-w", "1,0", "-v", "0,0", "--lam2", "garbage"),
         "tensor factors"),
        (("mult", "-n", "2", "-w", "0,1", "--w1", "1,0", "--w2", "0,1", "-v", "0,0"),
         "tensor factors"),
        # lambda, mu and each tensor factor are given one way
        (("mult", "-n", "2", "-w", "1,1", "--lam", '{"n":2,"w":[1,0],"c":[0,0]}', "-v", "1,1"),
         "not allowed with"),
        (("mult", "-n", "2", "-w", "1,0", "-v", "1,1", "--mu", '{"n":2,"w":[1,0],"c":[2,2]}'),
         "not allowed with"),
        (("fixed", "-n", "2", "--w1", "1,0", "--lam1", '{"n":2,"w":[1,0],"c":[0,0]}',
          "--w2", "0,1", "-v", "0,0"), "not allowed with"),
        # weight JSON carries its rank: -n beside it is never read
        (("crystal", "-n", "3", "--lam", '{"n":2,"w":[1,0],"c":[0,0]}', "--depth", "1"),
         "-n goes with -w"),
        (("mult", "-n", "2", "--lam1", '{"n":2,"w":[1,0],"c":[0,0]}',
          "--lam2", '{"n":2,"w":[0,1],"c":[0,0]}', "-v", "1,1"), "-n goes with --w1"),
        # each tensor factor is read as lambda is: half a pair, or a mixed pair, is refused
        (("tensor", "--lam1", '{"n":2,"w":[1,0],"c":[0,0]}', "--depth", "1"),
         "pass -n with --w2, or an explicit --lam2"),
        (("mult", "-n", "2", "--w1", "1,0", "-v", "1,1"), "pass -n with --w2, or an explicit --lam2"),
        (("fixed", "-n", "2", "--w1", "1,0", "--lam2", '{"n":2,"w":[0,1],"c":[0,0]}',
          "-v", "1,1"), "-n goes with --w2, not --lam2"),
        (("tensor", "--w1", "1,0", "--lam2", '{"n":2,"w":[0,1],"c":[0,0]}', "--depth", "1"),
         "pass -n with --w1, or an explicit --lam1"),
        # the budget, too, is given one way
        *[((command, *operands, *first, *second), "not allowed with")
          for command, operands in [("crystal", ("-n", "2", "-w", "1,0")),
                                    ("tensor", ("-n", "2", "--w1", "1,0", "--w2", "0,1"))]
          for first, second in [(("--budget", "1,1"), ("--depth", "5")),
                                (("--budget", "1,1"), ("-v", "0,0")),
                                (("--depth", "5"), ("-v", "0,0"))]],
        # what the parser requires
        (("mult", "-n", "2", "-w", "1,0"), "one of the arguments -v --mu is required"),
        (("branch", "-n", "2", "-w", "1,0", "-v", "2,2"), "required: -i"),
        (("check", "-n", "2", "-w", "1,0"), "required: --depth"),
        (("mult", "-n", "2", "-w", "1,0", "-v=-1,0"), "v entries must be nonnegative"),
        (("branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", "1", "--format", "dot"),
         "invalid choice"),
        # an integer past the digit bound, which int() and str() convert no further
        # than 4,300 digits, is refused wherever it is read
        (("mult", "-n", "2", "-w", "1,0", "-v", f"{NINES_5000},1"), "at most 4000 digits"),
        (("mult", "--lam", f'{{"n":2,"w":[1,0],"c":[{NINES_5000},0]}}', "-v", "1,1"),
         "at most 4000 digits"),
        (("crystal", "-n", "2", "-w", "1,0", "--budget", f"{NINES_5000},1"),
         "at most 4000 digits"),
        (("leaves", "-n", "2", "-w", "1,0", "-v", f"1,{NINES_5000}"), "at most 4000 digits"),
        (("crystal", "--lam", '{"n":2,"w":[1,0],"c":[%s,%s]}' % (("9" * 4300,) * 2),
          "--depth", "1"), "at most 4000 digits"),
        (("crystal", "-n", "2", "-w", "1,0", "--depth", NINES_5000),
         "argument --depth: an integer has at most 4000 digits"),
        # lambda is checked before its level is held to the cap
        (("crystal", "--lam", '{"n":2,"w":[-1,6000000],"c":[0,0]}', "--depth", "1"),
         "highest weight must be dominant"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and message in err, argv
    # A box too large to enumerate is out of resources: exit 3, one line.
    from affsat import crystal

    charges = []
    monkeypatch.setattr(crystal, "canonical_charges",
                        lambda lam, real=crystal.canonical_charges: charges.append(lam) or real(lam))
    for argv in [
        ("leaves", "-n", "2", "-w", "1,0", "-v", "9223372036854775807,0"),
        ("tensor", "-n", "2", "--w1", "1,0", "--w2", "0,1", "--budget", "0,99999999999999999999"),
        # a box whose point count has too many digits to print
        ("leaves", "-n", "2", "-w", "1,0", "-v", ",".join(["9" * cli.MAX_INPUT_DIGITS] * 2)),
        # a highest-weight word longer than the default node cap, one factor
        # per unit of level, is refused before it is built
        *[(command, "-n", "2", "-w", f"{top},0", "--depth", "1")
          for command in ("crystal", "check")
          for top in ("100000000000", "9" * cli.MAX_INPUT_DIGITS)],
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("affsat: "), argv
    assert charges == []
    assert not any(tmp_path.iterdir())


def test_inputs_at_the_digit_bound_are_answered(capsys):
    """A c entry of MAX_INPUT_DIGITS digits is read, and the answers print
    the numbers one digit longer that they derive from it."""
    top = "9" * cli.MAX_INPUT_DIGITS
    lam = '{"n":2,"w":[1,0],"c":[%s,%s]}' % (top, top)
    for argv in [("crystal", "--lam", lam, "--depth", "1"),
                 ("leaves", "--lam", lam, "-v", "1,1"),
                 ("branch", "--lam", lam, "-v", "1,1", "-i", "0")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert "1" + "0" * cli.MAX_INPUT_DIGITS in out, argv


def test_help_exits_zero(capsys):
    for argv in [("--help",), ("crystal", "--help")]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: affsat")


def test_tensor_help_lists_no_lambda(capsys):
    with pytest.raises(SystemExit):
        main(["tensor", "--help"])
    out = capsys.readouterr().out
    assert "--w1 W1" in out
    assert "-w W" not in out and "--lam LAM" not in out


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_v_help_names_its_role(capsys):
    """-v defines mu where there is a mu, and is the budget on crystal and tensor."""
    budget_help = "lowering budget, comma separated (as --budget)"
    for command, want in [("crystal", budget_help), ("tensor", budget_help),
                          ("mult", "gauge dims, comma separated (defines mu)")]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"-v V {want}" in out, out


def test_mu_in_another_base(capsys):
    """A --mu whose w differs from lambda's is compared through the base change."""
    lam = '{"n":2,"w":[1,1],"c":[0,0]}'
    for mu in ('{"n":2,"w":[3,-1],"c":[2,2]}', '{"n":2,"w":[1,1],"c":[2,3]}'):
        assert run_cli(capsys, "mult", "--lam", lam, "--mu", mu)[:2] == (0, '{"multiplicity":4}\n')
    lam = '{"n":3,"w":[1,0,0],"c":[0,0,0]}'
    for mu in ('{"n":3,"w":[0,2,-1],"c":[1,2,1]}', '{"n":3,"w":[1,0,0],"c":[1,1,1]}'):
        assert run_cli(capsys, "mult", "--lam", lam, "--mu", mu)[:2] == (0, '{"multiplicity":2}\n')
    # Lambda_0 - (-Lambda_0 + 2 Lambda_1) = 2(Lambda_0 - Lambda_1) is not in the root lattice.
    mu = '{"n":3,"w":[-1,2,0],"c":[0,0,0]}'
    assert run_cli(capsys, "mult", "--lam", lam, "--mu", mu)[:2] == (0, '{"multiplicity":0}\n')



@pytest.mark.parametrize("mu", [
    '{"n":2,"w":[1,0],"c":[-1,0]}',  # lambda + alpha_0, above lambda
    '{"n":2,"w":[0,1],"c":[0,0]}',   # lambda - mu = Lambda_0 - Lambda_1, off the root lattice
])
@pytest.mark.parametrize("argv, empty", [
    (("leaves",), '{"strata":[]}\n'),
    (("branch", "-i", "0"), '{"table":[]}\n'),
    (("mult",), '{"multiplicity":0}\n'),
    (("fixed",), '{"attracting_component_count":0,"fixed_point_count":0}\n'),
])
def test_mu_not_below_lambda_answers_empty(capsys, argv, empty, mu):
    """Every mu query answers a mu that is not below lambda with its empty result."""
    code, out, err = run_cli(capsys, *argv, "--lam", '{"n":2,"w":[1,0],"c":[0,0]}', "--mu", mu)
    assert (code, out, err) == (0, empty, "")

def test_node_cap_must_be_positive(capsys):
    for cap in ("0", "-1"):
        code, out, err = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "1",
                                 "--node-cap", cap)
        assert code == 2
        assert out == ""
        assert "--node-cap must be at least 1" in err
    code, _, _ = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "0",
                         "--node-cap", "1")
    assert code == 0


def test_branch_residue_range(capsys):
    for i in ("2", "5", "-1"):
        code, out, err = run_cli(capsys, "branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", i)
        assert code == 2
        assert out == ""
        assert "0..1" in err


def test_resource_cap_exit(capsys):
    # crystal is capped by building: the count is how far generation got
    assert run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "3",
                   "--node-cap", "5") == (3, "", (
        "affsat: crystal generation exceeded the node cap of 5 nodes "
        "(budget (3, 3) produced at least 6); raise node_cap or shrink the budget\n"))
    # a level over the default cap is refused before its word is built
    assert run_cli(capsys, "crystal", "-n", "2", "-w", "100000000000,0", "--depth", "1") == (
        3, "", "affsat: the highest-weight word of level 100000000000 would have more factors "
               "than the node cap of 5000000\n")
    # that bound is the default cap, not --node-cap: a word of 11 factors is one node
    code, out, err = run_cli(capsys, "crystal", "-n", "2", "-w", "11,0", "--depth", "0",
                             "--node-cap", "10")
    assert (code, err) == (0, "") and len(json.loads(out)["nodes"]) == 1


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_node_cap_bounds_building_only(tmp_path, capsys, fmt):
    # a hit builds nothing, so the cap that refuses the cold build does not
    # refuse the cached document, which is the uncapped run's, byte for byte
    argv = ("crystal", "-n", "2", "-w", "1,0", "--depth", "3", "--format", fmt)
    capped = (*argv, "--node-cap", "2", "--cache-dir", str(tmp_path))
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and want
    code, out, err = run_cli(capsys, *capped)
    assert (code, out) == (3, "") and "node cap of 2 nodes" in err
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, want, "")
    assert run_cli(capsys, *capped) == (0, want, "")


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("cached", [False, True])
def test_capped_crystal_writes_nothing(tmp_path, capsys, fmt, cached):
    # The graph is built, and refused, before the first stdout byte.
    cache = ["--cache-dir", str(tmp_path)] if cached else []
    code, out, err = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "3",
                             "--node-cap", "5", "--format", fmt, *cache)
    assert (code, out) == (3, "") and "node cap of 5 nodes" in err
    assert list(tmp_path.iterdir()) == []


def test_crystal_writes_in_less_memory_than_its_document(monkeypatch):
    # crystal writes the document's blocks as they come, so what serializing
    # and writing allocate at their peak stays below the document's length;
    # a document built whole before its write takes several times that.
    import tracemalloc

    from affsat import crystal

    graph = crystal.generate_crystal(Weight(3, (1, 1, 0), (0, 0, 0)), (9, 9, 9))
    assert len(graph) >= 40_000
    length = len(graph.to_json_str())
    monkeypatch.setattr(crystal, "generate_crystal", lambda *args, **kwargs: graph)

    class Discard:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            code = main(["crystal", "-n", "3", "-w", "1,1,0", "--depth", "9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < length, (peak, length)


@pytest.mark.parametrize("lam, depth, head", [("1,1,0", "8", 20), ("1,1,0", "2", 0),
                                             ("1,0,0", "1", 0)])
def test_a_reader_that_closes_early_ends_crystal_quietly(lam, depth, head):
    # The 3.6 MB document at depth 8 is far larger than a pipe's buffer, so
    # the child is still writing blocks when its reader goes after 20 bytes.
    # The other two readers are gone before the child starts: the first
    # block fails, or the whole small document, once stdout is flushed.  The
    # child's stdout is block-buffered, as in a shell pipeline.
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([*AFFSAT, "crystal", "-n", "3", "-w", lam, "--depth", depth],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(head) == b'{"budget":[8,8,8],"e'[:head]
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


class _Held:
    """An object that a command running out of memory holds in its frame."""


def _freed_before_stderr(monkeypatch):
    """A list for weak references to _Held objects; stderr asserts that each
    is dead when the CLI writes to it."""
    refs = []
    stderr = sys.stderr

    class Stderr:
        def write(self, text):
            assert all(ref() is None for ref in refs), "the failed frames are still held"
            return stderr.write(text)

    monkeypatch.setattr(sys, "stderr", Stderr())
    return refs


def test_memory_error_while_writing_exits_3(capsys, monkeypatch):
    # out of memory in the blocks, or in stdout while the blocks wait
    # suspended: either way the blocks' frame, which holds an object, is freed
    # and the document dropped before the line is written
    from affsat import crystal

    refs = _freed_before_stderr(monkeypatch)
    stdout = sys.stdout

    class Stdout:
        def write(self, text):
            if text == "]}":
                raise MemoryError
            return stdout.write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    for suspended in (False, True):
        def blocks(self):
            held = _Held()
            refs.append(weakref.ref(held))
            yield '{"budget":[2,2],"edges":['
            if not suspended:
                raise MemoryError
            yield "]}"

        monkeypatch.setattr(crystal.CrystalGraph, "json_blocks", blocks)
        assert run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "2") == (
            3, '{"budget":[2,2],"edges":[', "affsat: out of memory\n"), suspended


@pytest.mark.parametrize("argv", [
    ("crystal", "-n", "3", "-w", "1,1,0", "--depth", "3"),
    ("crystal", "-n", "3", "-w", "1,1,0", "--depth", "3", "--format", "dot"),
    ("check", "-n", "3", "-w", "1,1,0", "--depth", "3"),
])
def test_commands_never_read_the_edge_mapping(capsys, monkeypatch, argv):
    # the documents and check read the slots; edges is built on first read
    from affsat import crystal

    graphs = []
    generate = crystal.generate_crystal

    def capture(*args, **kwargs):
        graphs.append(generate(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(crystal, "generate_crystal", capture)
    assert run_cli(capsys, *argv)[0] == 0
    [g] = graphs
    assert "edges" not in g.__dict__
    assert len(g.edges) == sum(b >= 0 for b in g.slots) > 0
    assert g.__dict__["edges"] is g.edges


def _count_graph_builds(monkeypatch):
    """A list that grows by one per BFS level any crystal build expands."""
    from affsat._backend import kernels

    calls = []
    expand_level = kernels.expand_level
    monkeypatch.setattr(kernels, "expand_level",
                        lambda *args: calls.append(1) or expand_level(*args))
    return calls


def _level_one_multiplicity(j, c):
    """mult(Lambda_j - c.alpha) at n = 2 by Frenkel-Kac: p(d) for the depth
    d = c_j - (c_0 - c_1)^2, and 0 when d < 0."""
    return coloured_partitions(1, c[j] - (c[0] - c[1]) ** 2)


def test_mult_answers_without_a_graph(capsys, monkeypatch):
    # mult and fixed answer by Freudenthal, off the weight lattice and deep
    # below lambda, and build no crystal
    calls = _count_graph_builds(monkeypatch)
    lam = ("-n", "2", "-w", "1,0")
    assert run_cli(capsys, "mult", *lam, "-v", "30,20") == (0, '{"multiplicity":0}\n', "")
    deep = _level_one_multiplicity(0, (30, 30))
    assert deep == 5604
    assert run_cli(capsys, "mult", *lam, "-v", "30,30") == (
        0, f'{{"multiplicity":{deep}}}\n', "")
    assert run_cli(capsys, "fixed", *lam, "-v", "30,30") == (
        0, f'{{"attracting_component_count":{deep},"fixed_point_count":1}}\n', "")
    assert calls == []


def test_tensor_forms_answer_without_a_graph(capsys, monkeypatch):
    # the tensor forms of mult and fixed sum Freudenthal multiplicities over
    # splittings, and tensor runs the Racah-Speiser sum: no crystal either way
    calls = _count_graph_builds(monkeypatch)
    pair = ("-n", "2", "--w1", "1,0", "--w2", "0,1")
    assert run_cli(capsys, "mult", *pair, "-v", "30,20") == (0, '{"multiplicity":0}\n', "")
    assert run_cli(capsys, "fixed", *pair, "-v", "30,20") == (
        0, '{"count":0,"splittings":[]}\n', "")
    u = (12, 12)
    terms = [_level_one_multiplicity(0, s) * _level_one_multiplicity(1, (u[0] - s[0], u[1] - s[1]))
             for s in itertools.product(range(u[0] + 1), range(u[1] + 1))]
    code, out, _ = run_cli(capsys, "mult", *pair, "-v", "12,12")
    assert (code, json.loads(out)) == (0, {"multiplicity": sum(terms)})
    code, out, _ = run_cli(capsys, "fixed", *pair, "-v", "12,12")
    assert (code, json.loads(out)["count"]) == (0, sum(map(bool, terms)))
    code, out, _ = run_cli(capsys, "tensor", *pair, "--depth", "12")
    assert code == 0 and len(json.loads(out)["highest_weights"]) > 10
    assert calls == []


def test_branch_answers_without_a_graph(capsys, monkeypatch):
    # branch takes string differences of Freudenthal multiplicities; it
    # equals the count of e_i-killed crystal nodes (built before counting)
    lam = Weight(3, (1, 1, 0), (0, 0, 0))
    table = graph_branching(lam, lam.lowered((3, 3, 3)), 1)
    calls = _count_graph_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "branch", "-n", "3", "-w", "1,1,0", "-v", "3,3,3", "-i", "1")
    assert code == 0
    assert {row["k"]: row["multiplicity"] for row in json.loads(out)["table"]} == table
    assert calls == []


def test_memory_error_exit(capsys, monkeypatch):
    # the failing build's frame holds an object, freed before the line is
    # written
    from affsat import crystal

    refs = _freed_before_stderr(monkeypatch)

    def exhausted(*args, **kwargs):
        held = _Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    monkeypatch.setattr(crystal, "generate_crystal", exhausted)
    assert run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "2") == (
        3, "", "affsat: out of memory\n")


@pytest.mark.parametrize("command", ["mult", "fixed"])
def test_freudenthal_depth_guard_exits_3(command):
    # Each would start a recursion down to lambda - (2^63 - 1) delta.
    proc = subprocess.run(
        [*AFFSAT, command, "-n", "2", "-w", "1,0", "-v", "9223372036854775807,9223372036854775807"],
        capture_output=True, text=True, env=SRC_ENV, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1 and "node cap of 5000000" in proc.stderr
    assert "crystal generation" not in proc.stderr


@pytest.mark.parametrize("argv,box,points", [
    ("branch -n 2 -w 1,0 -v 99999999,99999999 -i 0", "99999999,", 10**8),
    ("tensor -n 2 --w1 1,0 --w2 1,0 --budget 100000,100000", "100000, 100000", 100001**2),
    ("leaves -n 2 -w 1,0 -v 100000,100000", "100000, 100000", 100001**2),
    ("mult -n 2 --w1 1,0 --w2 0,1 -v 3000,3000", "3000, 3000", 3001**2),
    ("fixed -n 2 --w1 1,0 --w2 0,1 -v 3000,3000", "3000, 3000", 3001**2),
    ("check -n 2 -w 1,0 --depth 3000", "3000, 3000", 3001**2),
])
def test_box_walk_over_the_cap_exits_3(argv, box, points):
    # Each walk is counted before its first point: the Levi string at node i
    # (u_i + 1 points), the tensor or leaves box, the splittings box of u,
    # check's box, counted before its graph is built.
    proc = subprocess.run([*AFFSAT, *argv.split()], capture_output=True, text=True,
                          env=SRC_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        f"affsat: walking the box ({box}) would visit {points} points, "
        "over the node cap of 5000000"]


@pytest.mark.parametrize("argv,cap,budget,nodes", [
    ("check -n 3 -w 1,1,0 --depth 20", 5_000_000, "20, 20, 20", 29_354_253),
    ("check -n 2 -w 1,0 --depth 60 --node-cap 1000000", 1_000_000, "60, 60", 26_438_440),
    ("check -n 2 -w 1,0 --depth 4 --node-cap 23", 23, "4, 4", 24),
])
def test_check_over_the_node_cap_exits_3_before_building(capsys, monkeypatch, argv, cap,
                                                         budget, nodes):
    # the Freudenthal table sums to the graph's exact node count, read
    # before the first BFS level is expanded, and the message says so
    calls = _count_graph_builds(monkeypatch)
    assert run_cli(capsys, *argv.split()) == (3, "", (
        f"affsat: the graph of budget ({budget}) has {nodes} nodes, "
        f"over the node cap of {cap}\n"))
    assert calls == []


def test_check_within_the_node_cap_builds_once(capsys, monkeypatch):
    from affsat import crystal

    builds = []
    generate = crystal.generate_crystal
    monkeypatch.setattr(crystal, "generate_crystal",
                        lambda *args, **kwargs: builds.append(1) or generate(*args, **kwargs))
    calls = _count_graph_builds(monkeypatch)
    # 24 nodes, a cap of exactly that many
    code, out, err = run_cli(capsys, "check", "-n", "2", "-w", "1,0", "--depth", "4",
                             "--node-cap", "24")
    assert (code, json.loads(out)["status"], builds) == (0, "OK", [1])
    assert calls and err == "crystal vs Freudenthal: OK (25 weights compared)\n"


def test_too_many_strata_exit_3():
    # a box of 132,651 points holding 14,390,273 strata: counted, not listed
    proc = subprocess.run([*AFFSAT, "leaves", "-n", "3", "-w", "1,1,0", "-v", "50,50,50"],
                          capture_output=True, text=True, env=SRC_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "affsat: listing the strata of the box (50, 50, 50) would give 14390273 labels, "
        "over the node cap of 5000000"]


def test_check_reports_disagreement(capsys, monkeypatch):
    from affsat import freudenthal

    table = freudenthal.box_multiplicities
    monkeypatch.setattr(freudenthal, "box_multiplicities",
                        lambda lam, box: [m + 1 for m in table(lam, box)])
    code, out, err = run_cli(capsys, "check", "-n", "2", "-w", "1,0", "--depth", "1")
    doc = json.loads(out)
    assert (code, doc["status"], doc["weights_compared"]) == (1, "FAIL", 4)
    assert doc["disagreements"] == [
        {"c": [0, 0], "crystal": 1, "freudenthal": 2},
        {"c": [0, 1], "crystal": 0, "freudenthal": 1},
        {"c": [1, 0], "crystal": 1, "freudenthal": 2},
        {"c": [1, 1], "crystal": 1, "freudenthal": 2},
    ]
    assert "FAIL" in err


def test_branch_reports_a_shrinking_sl2_string(capsys, monkeypatch):
    # the string differences are multiplicities only while the string grows
    # towards its middle; a shrinking step is a disagreement, exit 1
    from affsat import freudenthal

    real = freudenthal.multiplicity_at
    lam = Weight(2, (1, 0), (0, 0))
    top, below = real(lam, (2, 0)) + 5, real(lam, (2, 1))
    assert below < top
    monkeypatch.setattr(freudenthal, "multiplicity_at",
                        lambda lam, v: real(lam, v) + (5 if v[1] == 0 else 0))
    assert run_cli(capsys, "branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", "1") == (
        1, "", "affsat: internal consistency failure: sl2 string at node 1 shrinks at "
               f"k=1: {below} < {top}\n")


def test_consistency_error_exit(capsys, monkeypatch):
    from affsat import crystal
    from affsat.errors import ConsistencyError

    def inconsistent(*args):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(crystal, "weight_multiplicity", inconsistent)
    assert run_cli(capsys, "mult", "-n", "2", "-w", "1,0", "-v", "1,1") == (
        1, "", "affsat: internal consistency failure: routes disagree\n")


def test_cache_entry_that_is_a_directory(tmp_path, capsys):
    # The entry cannot be read or replaced: the document is built and
    # served, with one warning for each, and no temp file is left behind.
    argv = ("crystal", "-n", "2", "-w", "1,0", "--depth", "2")
    _, want, _ = run_cli(capsys, *argv)
    cache_dir = tmp_path / "cache"
    run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    [entry_path] = cache_dir.iterdir()
    entry_path.unlink()
    entry_path.mkdir()
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert (code, out) == (0, want)
    lines = err.splitlines()
    assert len(lines) == 2
    assert "unreadable; rebuilding" in lines[0] and "cache write failed" in lines[1]
    assert list(cache_dir.iterdir()) == [entry_path]


def test_cache_round_trip(tmp_path, capsys):
    args = ("crystal", "-n", "2", "-w", "1,1", "--depth", "2", "--cache-dir", str(tmp_path))
    code1, cold, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert list(tmp_path.glob("*.json"))
    code2, warm, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert warm == cold


def test_cache_corruption_recovery(tmp_path, capsys):
    args = ("crystal", "-n", "2", "-w", "1,0", "--depth", "2", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *args)
    entry_path = next(tmp_path.glob("*.json"))
    digest, doc = read_entry(entry_path)
    entry_path.write_text(digest + "\n" + doc[:-1] + " ")
    code, rebuilt, err = run_cli(capsys, *args)
    assert code == 0
    assert rebuilt == cold
    assert "digest" in err
    # the corrupt entry was overwritten with a good one
    assert read_entry(entry_path) == (digest, cold.rstrip("\n"))


def test_cache_entry_layout(tmp_path, capsys):
    args = ("crystal", "-n", "2", "-w", "1,0", "--depth", "2", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *args)
    [entry_path] = tmp_path.iterdir()
    doc = cold.rstrip("\n")
    digest = hashlib.sha256(doc.encode()).hexdigest()
    assert entry_path.read_text() == digest + "\n" + doc
    # A version-1 envelope at this key, an entry with no newline and an empty
    # entry are each rebuilt with one warning, and the entry is rewritten.
    envelope = json.dumps({"schema_version": 1, "key": entry_path.stem, "sha256": digest,
                           "created_at": "2026-01-01T00:00:00+00:00", "payload": doc})
    for bad in (envelope, digest + doc, ""):
        entry_path.write_text(bad)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (0, cold), bad[:80]
        assert len(err.splitlines()) == 1 and "rebuilding" in err, bad[:80]
        assert entry_path.read_text() == digest + "\n" + doc


def test_a_cache_entry_can_be_written_from_any_chunks(tmp_path, monkeypatch):
    # Empty chunks, chunks shorter and longer than a write slice, and a
    # character of two UTF-8 bytes make one entry, which is then a hit.
    monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
    chunks = ["", "ab", "c" * 20, "", "é"]
    path = tmp_path / "entry.json"
    cli._store(path, chunks)
    body = "".join(chunks).encode()
    assert path.read_bytes() == hashlib.sha256(body).hexdigest().encode() + b"\n" + body
    assert cli._cached(path, lambda: pytest.fail("a hit builds nothing")) == "".join(chunks)


def test_cache_write_failure_degrades(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    args = ("crystal", "-n", "2", "-w", "1,0", "--depth", "1",
            "--cache-dir", str(blocker / "sub"))
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["budget"] == [1, 1]
    assert "cache write failed" in err


def test_cache_dir_is_file_is_validation_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, err = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "1",
                           "--cache-dir", str(blocker))
    assert code == 2
    assert "not a directory" in err


def test_cache_concurrent_writers(tmp_path):
    # Four writers miss on one key at once; a few rounds, as the overlap is up
    # to the scheduler.
    for round_no in range(5):
        cache_dir = tmp_path / str(round_no)
        argv = [*AFFSAT, "crystal", "-n", "3", "-w", "1,1,0",
                "--depth", "4", "--cache-dir", str(cache_dir)]
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=SRC_ENV) for _ in range(4)]
        results = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        assert [err for _, err in results] == [""] * 4
        outs = {out for out, _ in results}
        assert len(outs) == 1
        [entry_path] = cache_dir.iterdir()  # no temp file left behind
        digest, doc = read_entry(entry_path)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert doc + "\n" == outs.pop()


DOT_ARGV = ("crystal", "-n", "2", "-w", "1,0", "--depth", "2", "--format", "dot")


def _count_builds_and_renders(monkeypatch):
    """Two lists that grow by one per graph built and per DOT rendering."""
    from affsat import crystal

    builds, renders = [], []
    generate, render = crystal.generate_crystal, cli.dot_from_graph_json
    monkeypatch.setattr(crystal, "generate_crystal",
                        lambda *args, **kwargs: builds.append(1) or generate(*args, **kwargs))
    monkeypatch.setattr(cli, "dot_from_graph_json", lambda doc: renders.append(1) or render(doc))
    return builds, renders


def test_dot_hit_builds_and_renders_nothing(tmp_path, capsys, monkeypatch):
    _, want, _ = run_cli(capsys, *DOT_ARGV)
    args = (*DOT_ARGV, "--cache-dir", str(tmp_path))
    assert run_cli(capsys, *args) == (0, want, "")
    builds, renders = _count_builds_and_renders(monkeypatch)
    assert run_cli(capsys, *args) == (0, want, "")
    assert (builds, renders) == ([], [])


def test_dot_miss_over_a_json_hit_renders_once(tmp_path, capsys, monkeypatch):
    _, want, _ = run_cli(capsys, *DOT_ARGV)
    run_cli(capsys, *DOT_ARGV[:-2], "--cache-dir", str(tmp_path))
    [json_path] = tmp_path.iterdir()
    builds, renders = _count_builds_and_renders(monkeypatch)
    assert run_cli(capsys, *DOT_ARGV, "--cache-dir", str(tmp_path)) == (0, want, "")
    assert (builds, renders) == ([], [1])
    dot_path = json_path.with_suffix(".dot")
    assert sorted(tmp_path.iterdir()) == [dot_path, json_path]
    assert read_entry(dot_path) == (hashlib.sha256(want.encode()).hexdigest(), want)


def test_bad_dot_entry_is_rendered_again_from_json(tmp_path, capsys, monkeypatch):
    # A corrupt entry, one whose body or digest line does not decode and one
    # with no newline are each rendered again from the JSON entry with one
    # warning, and rewritten.
    args = (*DOT_ARGV, "--cache-dir", str(tmp_path))
    _, want, _ = run_cli(capsys, *args)
    [dot_path] = tmp_path.glob("*.dot")
    good = dot_path.read_bytes()
    digest, doc = read_entry(dot_path)
    builds, renders = _count_builds_and_renders(monkeypatch)
    for bad, warning in (((digest + "\n" + doc[:-2] + " \n").encode(), "failed its digest check"),
                         (good[:-1] + b"\xff", "is unreadable"),
                         (b"\xff" * 64 + good[64:], "is unreadable"),
                         (digest.encode(), "failed its digest check")):
        dot_path.write_bytes(bad)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (0, want), bad[:80]
        assert err == f"affsat: cache entry {dot_path.name} {warning}; rebuilding\n", bad[:80]
        assert dot_path.read_bytes() == good
    assert (builds, renders) == ([], [1, 1, 1, 1])


def test_dot_entry_that_is_a_directory(tmp_path, capsys, monkeypatch):
    # The entry can be neither read nor replaced: the document is rendered
    # from the JSON entry and served, with one warning for each, and no temp
    # file is left behind.
    args = (*DOT_ARGV, "--cache-dir", str(tmp_path))
    _, want, _ = run_cli(capsys, *args)
    [dot_path] = tmp_path.glob("*.dot")
    dot_path.unlink()
    dot_path.mkdir()
    builds, renders = _count_builds_and_renders(monkeypatch)
    code, out, err = run_cli(capsys, *args)
    assert (code, out, builds, renders) == (0, want, [], [1])
    lines = err.splitlines()
    assert len(lines) == 2
    assert "unreadable; rebuilding" in lines[0] and "cache write failed" in lines[1]
    assert sorted(tmp_path.iterdir()) == [dot_path, dot_path.with_suffix(".json")]


def test_dot_write_failure_still_prints_the_document(tmp_path, capsys):
    _, want, _ = run_cli(capsys, *DOT_ARGV)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, out, err = run_cli(capsys, *DOT_ARGV, "--cache-dir", str(blocker / "sub"))
    assert (code, out) == (0, want)
    # neither the JSON entry nor the DOT entry could be stored
    assert [line.split(" (")[0] for line in err.splitlines()] == ["affsat: cache write failed"] * 2


def test_cache_get_or_build_refuses_an_unknown_format(tmp_path):
    from affsat.errors import DomainError

    lam = Weight(2, (1, 0), (0, 0))
    with pytest.raises(DomainError, match="unknown graph format 'svg'"):
        cli.cache_get_or_build(lam, (1, 1), str(tmp_path), fmt="svg")
    assert list(tmp_path.iterdir()) == []


def test_dot_concurrent_writers(tmp_path):
    # Four --format dot writers miss on one key at once; a few rounds, as the
    # overlap is up to the scheduler.
    for round_no in range(3):
        cache_dir = tmp_path / str(round_no)
        argv = [*AFFSAT, "crystal", "-n", "3", "-w", "1,1,0", "--depth", "4",
                "--format", "dot", "--cache-dir", str(cache_dir)]
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=SRC_ENV) for _ in range(4)]
        results = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        assert [err for _, err in results] == [""] * 4
        [out] = {out for out, _ in results}
        # exactly the two entries, no temp file left behind, both digests valid
        json_path, dot_path = sorted(cache_dir.iterdir(), key=lambda p: p.suffix != ".json")
        assert (json_path.suffix, dot_path.name) == (".json", json_path.stem + ".dot")
        for path in (json_path, dot_path):
            digest, doc = read_entry(path)
            assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert doc == out


def test_env_var_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AFFSAT_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "crystal", "-n", "2", "-w", "1,0", "--depth", "1")
    assert code == 0
    assert list(tmp_path.glob("*.json"))


def test_empty_env_var_means_no_cache(tmp_path, monkeypatch, capsys):
    argv = ("crystal", "-n", "2", "-w", "1,0", "--depth", "1")
    _, want, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("AFFSAT_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (0, want, "")
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [*AFFSAT, "mult", "-n", "2", "-w", "1,0", "-v", "1,1"],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"multiplicity": 1}
    proc = subprocess.run(
        [*AFFSAT, "mult", "-n", "2", "-w", "1,0", "-v", "1"],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc.returncode == 2


def test_stdout_is_single_json_document(capsys):
    for argv in [
        ("mult", "-n", "2", "-w", "1,0", "-v", "1,1"),
        ("leaves", "-n", "2", "-w", "1,0", "-v", "1,1"),
        ("tensor", "-n", "2", "--w1", "1,0", "--w2", "1,0", "--depth", "1"),
        ("fixed", "-n", "2", "-w", "1,0", "-v", "1,1"),
        ("check", "-n", "2", "-w", "1,0", "--depth", "2"),
        ("branch", "-n", "2", "-w", "1,0", "-v", "1,1", "-i", "0"),
        ("crystal", "-n", "2", "-w", "1,0", "--depth", "1"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out)  # exactly one well-formed document
        assert out.endswith("\n")


@pytest.mark.parametrize("lam", [
    '{"n":2,"w":[2,0],"c":[1,0]}',
    '{"n":3,"w":[2,1,1],"c":[1,0,0]}',
    '{"n":4,"w":[2,1,0,1],"c":[1,0,0,0]}',
])
def test_check_weight_off_delta(capsys, lam):
    # Dominant weights whose c is no multiple of delta
    code, out, err = run_cli(capsys, "check", "--lam", lam, "--depth", "3")
    assert code == 0
    assert ": OK (" in err
    assert json.loads(out)["disagreements"] == []


# -- argv fuzz ------------------------------------------------------------------

def _argv(n: int, cache_dir: str):
    """argv at rank n: a well-formed command line over the CLI's option
    vocabulary, then in most cases one mutation (a part dropped, a value
    replaced by junk, or stray options and tokens added), in a random order."""
    entries = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    framing = entries.filter(any)  # level >= 1

    def weight(w, c):
        return st.tuples(w, c).map(lambda wc: json.dumps({"n": n, "w": wc[0], "c": wc[1]}))

    # dominant when c is a multiple of delta
    highest = weight(framing, st.integers(-1, 3).map(lambda k: [k] * n))
    shifted = weight(entries, st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    values = {
        "-n": st.just(str(n)),
        "--depth": st.integers(0, 3).map(str),
        "-i": st.integers(0, n - 1).map(str),
        "--format": st.sampled_from(["json", "dot", "tsv"]),
        "--node-cap": st.sampled_from(["1", "50", "100000", "100000"]),
        "--cache-dir": st.just(cache_dir),
        "--include-empty": st.just(None),
        "--mu": shifted,
        **dict.fromkeys(("-w", "--w1", "--w2"), framing.map(lambda v: ",".join(map(str, v)))),
        **dict.fromkeys(("-v", "--budget"), entries.map(lambda v: ",".join(map(str, v)))),
        **dict.fromkeys(("--lam", "--lam1", "--lam2"), highest),
    }

    def opt(*flags):
        return st.tuples(*map(values.get, flags)).map(lambda vs: [
            token for flag, v in zip(flags, vs) for token in ([flag] if v is None else [flag, v])])

    def fmt(*choices):
        return st.sampled_from(choices).map(lambda f: ["--format", f])

    lam = opt("-n", "-w") | opt("--lam")
    pair = opt("-n", "--w1", "--w2") | opt("--lam1", "--lam2")
    mu = opt("-v") | opt("--mu")
    budget = opt("--depth") | opt("--budget") | opt("-v")
    own = {
        "crystal": [lam, budget, fmt("json", "dot"), opt("--cache-dir"), opt("--node-cap")],
        "mult": [lam | pair, mu],
        "tensor": [pair, budget],
        "branch": [lam, mu, opt("-i"), fmt("json", "tsv")],
        "leaves": [lam, mu, opt("--include-empty")],
        "fixed": [lam | pair, mu],
        "check": [lam, opt("--depth"), opt("--node-cap")],
    }
    junk = st.sampled_from(["", "x", "-", "--", "--bogus", "-1", "1,2,3,4", "{", "-h", "--help",
                            str(5 - n), '{"n":2}', NINES_5000])
    stray = st.sampled_from(sorted(values)).flatmap(opt) | junk.map(lambda t: [t])

    def mutate(parts, how):
        if how == "drop":
            return st.integers(0, len(parts) - 1).map(lambda k: parts[:k] + parts[k + 1:])
        if how == "junk":
            return st.tuples(st.integers(0, len(parts) - 1), junk).map(
                lambda kj: [p if k != kj[0] else p[:-1] + [kj[1]] for k, p in enumerate(parts)])
        if how == "stray":
            return st.lists(stray, min_size=1, max_size=2).map(lambda extra: parts + extra)
        return st.just(parts)

    def command(name):
        how = st.sampled_from(["keep", "keep", "drop", "junk", "stray"])
        return st.tuples(st.tuples(*own[name]), how).flatmap(
            lambda ph: mutate(list(ph[0]), ph[1])).flatmap(st.permutations).map(
            lambda parts: [name, *(token for p in parts for token in p)])

    return st.sampled_from(sorted(own) + ["", "bogus"]).flatmap(
        lambda name: command(name) if name in own else stray.map(lambda t: [name, *t]))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_argv_fuzz(tmp_path_factory, data):
    """Every argv exits 0, 2 or 3.  A failure prints nothing to stdout and one
    stderr line; a success prints exactly one document in its format."""
    cache_dir = str(tmp_path_factory.getbasetemp() / "fuzz-cache")
    argv = data.draw(_argv(data.draw(st.sampled_from([2, 3])), cache_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and {"-h", "--help"} & set(argv), argv
            assert out.getvalue().startswith("usage: affsat"), argv
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
        return
    assert len(err.splitlines()) <= 1, (argv, err)
    fmt = getattr(build_parser().parse_args(argv), "format", "json")
    if fmt == "json":
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), argv
    elif fmt == "dot":
        assert out.startswith("digraph crystal {\n") and out.endswith("\n}\n"), argv
        assert out.count("digraph") == 1, argv
    else:
        header, *rows = out.splitlines()
        assert header == "k\tkappa_prime\tpairing\tmultiplicity", argv
        assert all(len(row.split("\t")) == 4 for row in rows), argv
