"""The benchmark's tracer (perfbench/tracing.py) wraps affsat attributes by
name, so a refactor that drops one of them breaks traced benchmark runs.
This installs it against src/ and runs a traced crystal query twice on one
cache key, the second time as DOT: one miss, then one hit.  Then one mult,
branch, leaves and check query and one Freudenthal call, so that the spans
of the query layers and the signature-scan count are seen too."""

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
query = ["crystal", "-n", "2", "-w", "1,0", "--depth", "2", "--cache-dir", sys.argv[3]]
assert cli.main(query) == 0
assert cli.main(query + ["--format", "dot"]) == 0
assert tracer.counts["crystal.serialize.bytes"] > 0
# The tracer finds entries by cli._cache_key and the {key}.json name.
assert tracer.counts["cli.cache.misses"] == 1, dict(tracer.counts)
assert tracer.counts["cli.cache.hits"] == 1, dict(tracer.counts)
names = [span[0] for span in tracer.spans]
assert "crystal.generate_crystal" in names and "cli.dot_from_graph_json" in names, names

from affsat import freudenthal
from affsat.cartan import Weight

for query in (["mult", "-n", "2", "-w", "1,0", "-v", "2,2"],
              ["branch", "-n", "2", "-w", "1,0", "-v", "2,2", "-i", "1"],
              ["leaves", "-n", "2", "-w", "1,0", "-v", "1,1"],
              ["check", "-n", "2", "-w", "1,0", "--depth", "2"]):
    assert cli.main(query) == 0, query
assert freudenthal.freudenthal_multiplicity(Weight(2, (1, 0), (0, 0)),
                                            Weight(2, (1, 0), (3, 3))) == 3
names = {span[0] for span in tracer.spans}
for name in ("crystal.weight_multiplicity", "crystal.levi_branching",
             "satake.enumerate_leaves", "satake.sheaf_multiplicity_table",
             "freudenthal.freudenthal_multiplicity"):
    assert name in names, (name, sorted(names))
assert tracer.counts["kernels.signature_scan.calls"] > 0, dict(tracer.counts)
"""


def test_benchmark_tracer_installs(tmp_path):
    # install() rewraps module attributes, so it runs in a child interpreter.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
