"""The benchmark's tracer (perfbench/tracing.py) wraps affsat attributes by
name, so a refactor that drops one of them breaks traced benchmark runs.
This installs it against src/ and runs one traced crystal query."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from affsat import cli

tracer = tracing.Tracer()
tracer.install()
assert cli.main(["crystal", "-n", "2", "-w", "1,0", "--depth", "2"]) == 0
assert tracer.counts["crystal.serialize.bytes"] > 0
assert any(span[0] == "crystal.generate_crystal" for span in tracer.spans)
"""


def test_benchmark_tracer_installs():
    # install() rewraps module attributes, so it runs in a child interpreter.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
