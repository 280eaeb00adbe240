"""The package's public surface and what importing it costs: `import affsat`
loads no submodule, and the CLI loads a command's modules only when that
command runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import affsat

ROOT = Path(__file__).resolve().parents[1]

# The names `affsat` exported eagerly before its exports became lazy, by module.
EXPORTS = {
    "_backend": ["backend_name"],
    "cartan": ["Weight", "cartan_matrix", "delta", "dims_from_weights", "dominance_leq",
               "dominant_representative", "fundamental_weight", "is_dominant", "is_weight_of",
               "lowering_vector", "rho", "simple_root", "weight_invariants",
               "weights_from_dims"],
    "crystal": ["CONVENTION_ID", "DEFAULT_NODE_CAP", "CrystalGraph", "CrystalNode",
                "apply_tensor_operator", "generate_crystal", "levi_branching",
                "tensor_eps_phi", "tensor_highest_weights", "tensor_weight_multiplicity",
                "weight_multiplicity"],
    "errors": ["AffsatError", "ConsistencyError", "DomainError", "IncomparableWeightsError",
               "NoHighestWeightError", "RankError", "ResourceCapError"],
    "fock": ["ChargedPartition", "apply_root_operator", "cell_residue", "eps_phi",
             "fock_weight"],
    "freudenthal": ["PositiveRoot", "freudenthal_multiplicity", "positive_roots"],
    "satake": ["BranchRow", "Stratum", "attracting_component_count", "enumerate_leaves",
               "fixed_point_count", "sheaf_multiplicity_table", "tensor_fixed_points"],
}

DEFERRED = ["dataclasses", "inspect", "typing", "hashlib", "tempfile", "pathlib", "affsat.crystal",
            "affsat.satake", "affsat.fock", "affsat._kernels_py"]

# -S keeps site hooks from importing modules affsat itself should not need.
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
deferred, cache_dir = json.loads(sys.argv[2]), sys.argv[3]

def affsat_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "affsat")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert affsat.cli.main(list(argv)) == 0, argv
    return out.getvalue()

import affsat
assert affsat_modules() == ["affsat"], affsat_modules()
import affsat.cli, affsat.freudenthal
loaded = [m for m in deferred if m in sys.modules]
assert not loaded, loaded
assert affsat_modules() == ["affsat", "affsat.cartan", "affsat.cli", "affsat.errors",
                            "affsat.freudenthal"], affsat_modules()
doc = run("crystal", "-n", "3", "-w", "1,1,0", "--depth", "4", "--cache-dir", cache_dir)
assert {"affsat.crystal", "affsat._kernels_py", "hashlib"} <= set(sys.modules)
assert "affsat.fock" not in sys.modules
assert "affsat._backend" not in sys.modules
assert "affsat.satake" not in sys.modules
leaves = run("leaves", "-n", "3", "-w", "1,1,0", "-v", "2,2,2")
assert "affsat.satake" in sys.modules
# annotations are never evaluated, so no module needs typing for them
import affsat.crystal, affsat.satake, affsat.fock
assert "typing" not in sys.modules
print(json.dumps([doc, leaves]))
"""


def test_commands_import_only_what_they_run(tmp_path):
    import hashlib

    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(ROOT / "src"), json.dumps(DEFERRED),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc, leaves = json.loads(proc.stdout)
    # the pinned canonical document of this graph (582 nodes), and the strata
    assert doc.endswith("\n") and hashlib.sha256(doc[:-1].encode()).hexdigest() == (
        "4668202dc303e109526f4d5afd1b130dec0becd43376cecfb8667bbb0c8c5d5e")
    assert hashlib.sha256(leaves.encode()).hexdigest() == (
        "d75e2361ec3b51e387f64ceb08c26d1c9c80e9c1dd933ee7867d1bfcb10a598d")


# A warm hit of each format, after the entries are written.
WARM_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import affsat.cli
docs = []
for fmt in ("json", "dot"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert affsat.cli.main(["crystal", "-n", "3", "-w", "1,1,0", "--depth", "4",
                                "--format", fmt, "--cache-dir", sys.argv[2]]) == 0, fmt
    docs.append(out.getvalue())
loaded = [m for m in ("affsat.crystal", "affsat.fock", "affsat._kernels_py", "affsat._backend")
          if m in sys.modules]
assert not loaded, loaded
print(json.dumps(docs))
"""


def test_cache_hits_load_no_graph_code(tmp_path):
    """A hit serves its entry through cli alone: the budget is checked in
    cartan, and crystal is imported only to build."""
    import contextlib
    import io

    from affsat import cli

    cold = []
    for fmt in ("json", "dot"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["crystal", "-n", "3", "-w", "1,1,0", "--depth", "4",
                             "--format", fmt, "--cache-dir", str(tmp_path)]) == 0
        cold.append(out.getvalue())
    entries = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(Path(name).suffix for name in entries) == [".dot", ".json"]
    proc = subprocess.run([sys.executable, "-S", "-c", WARM_SCRIPT, str(ROOT / "src"),
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == cold
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == entries


@pytest.mark.parametrize("module, name",
                         [(m, name) for m, names in EXPORTS.items() for name in names])
def test_export_resolves_to_its_module(module, name):
    from importlib import import_module

    assert getattr(affsat, name) is getattr(import_module(f"affsat.{module}"), name)
    assert name in affsat.__all__ and name in dir(affsat)


def test_export_list_and_star_import():
    assert sorted(affsat.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    namespace = {}
    exec("from affsat import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(affsat.__all__)
    assert affsat.crystal.CONVENTION_ID is affsat.cartan.CONVENTION_ID
    with pytest.raises(AttributeError, match="no_such_name"):
        affsat.no_such_name
    with pytest.raises(ImportError):
        exec("from affsat import no_such_name", {})


def test_input_errors_are_domain_errors():
    """The CLI maps DomainError to exit 2; every input error is one."""
    from affsat import errors

    for name in ("RankError", "NoHighestWeightError", "IncomparableWeightsError"):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.DomainError), name
        assert issubclass(cls, errors.AffsatError) and issubclass(cls, ValueError), name
    for cls in (errors.ResourceCapError, errors.ConsistencyError):
        assert not issubclass(cls, errors.DomainError), cls


def _imports(module: str) -> set[tuple[str, str]]:
    """(module, name) for each `from module import name` in src/affsat/{module}.py,
    and ("itertools", "product") for an `itertools.product` attribute."""
    tree = ast.parse((ROOT / "src" / "affsat" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {(node.module, alias.name) for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) == ("itertools", "product")):
            found.add(("itertools", "product"))
    return found


def test_only_cartan_walks_a_box():
    """cartan.box_points is the one box walk, so it alone holds the box cap:
    no other module imports itertools.product or BoxCapError."""
    modules = [path.stem for path in sorted((ROOT / "src" / "affsat").glob("*.py"))]
    assert "cartan" in modules
    imports = {m: _imports(m) for m in modules}
    assert [m for m in modules if ("itertools", "product") in imports[m]] == ["cartan"]
    assert [m for m in modules if ("errors", "BoxCapError") in imports[m]] == ["cartan"]


def _uses(module: str, names: set[str]) -> set[str]:
    """Which of names src/affsat/{module}.py defines, imports (or imports
    from), reads or calls."""
    tree = ast.parse((ROOT / "src" / "affsat" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
            found |= set((node.module or "").split("."))
        elif isinstance(node, ast.Import):
            found |= {part for alias in node.names for part in alias.name.split(".")}
    return found & names


def test_only_kernels_applies_the_signature_rule_to_words():
    """scan_word and act_on_word are the one home of e_i and f_i on a word: no
    module but _kernels_py touches add_cell, remove_cell or word_scan."""
    modules = [path.stem for path in sorted((ROOT / "src" / "affsat").glob("*.py"))]
    names = {"add_cell", "remove_cell", "word_scan"}
    assert _uses("_kernels_py", names) == names
    assert [m for m in modules if _uses(m, names)] == ["_kernels_py"]


def test_only_the_package_names_the_backend_shim():
    """_backend is kept for backend_name() and the benchmark's tracer: every
    module imports _kernels_py directly, and none but __init__ (which exports
    backend_name lazily) names _backend."""
    modules = [path.stem for path in sorted((ROOT / "src" / "affsat").glob("*.py"))]
    assert {"__init__", "_backend", "crystal", "fock"} <= set(modules)
    assert [m for m in modules if m != "__init__" and _uses(m, {"_backend"})] == []
    assert [m for m in modules if _uses(m, {"_kernels_py"})] == ["_backend", "crystal", "fock"]
