"""The package namespace: the public names it exports and where each one lives."""

import ast
import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qospread

PUBLIC = {
    "constructions": ["ConstructionParams", "FamilyMember", "MASA", "MATRIX_ALGEBRA", "SpreadFamily",
                      "build_masa_spread", "build_recursive", "build_spread_2", "expected_count"],
    "finite_field": ["FieldSpec", "GFElement", "field_trace", "find_irreducible", "find_nonresidue",
                     "format_element", "gf"],
    "phase_space": ["GFPhasePoint", "PhasePoint", "Subspace", "pi1", "span_enumerate"],
    "report": ["VerificationReport"],
    "verify": ["check_mub_overlaps", "extract_mub_bases", "verify_qo_numeric", "verify_symbolic"],
    "weyl": ["WeylMonomial", "monomial_text", "synthesize"],
}


def test_all_lists_the_29_public_names():
    assert qospread.__all__ == [
        "ConstructionParams", "FamilyMember", "FieldSpec", "GFElement", "GFPhasePoint", "MASA", "MATRIX_ALGEBRA",
        "PhasePoint", "SpreadFamily", "Subspace", "VerificationReport", "WeylMonomial", "build_masa_spread",
        "build_recursive", "build_spread_2", "check_mub_overlaps", "expected_count", "extract_mub_bases",
        "field_trace", "find_irreducible", "find_nonresidue", "format_element", "gf", "monomial_text", "pi1",
        "span_enumerate", "synthesize", "verify_qo_numeric", "verify_symbolic",
    ]
    assert sorted(name for names in PUBLIC.values() for name in names) == qospread.__all__
    assert qospread.__version__ == "0.1.0"


def test_each_name_is_its_home_modules_object():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"qospread.{module}")
        for name in names:
            assert getattr(qospread, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qospread import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == qospread.__all__
    assert all(namespace[name] is getattr(qospread, name) for name in qospread.__all__)
    assert set(qospread.__all__) <= set(dir(qospread))


ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_the_readme_library_example_runs():
    """README's one ```python block, run as written against the public names."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1 and "from qospread import (" in blocks[0]
    exec(compile(blocks[0], "README.md", "exec"), {})


def _bench_tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_the_benchmark_imports_only_public_names():
    """bench/micro.py's ``from qospread import ...`` names, read from its source:
    the public ones are in ``__all__``, the private ones are modules with the
    attributes it reads from them."""
    tree = _bench_tree("micro.py")
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "qospread" for alias in node.names]
    public = [name for name in names if not name.startswith("_")]
    assert "synthesize" in public and set(public) <= set(qospread.__all__)
    modules = {name: importlib.import_module(f"qospread.{name}") for name in set(names) - set(public)}
    assert "_modlin" in modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"


def test_the_tracer_finds_its_layers_and_methods():
    """bench/trace_cli.py's ``LAYERS`` modules import and its ``METHODS`` resolve."""
    values = {target.id: ast.literal_eval(node.value) for node in _bench_tree("trace_cli.py").body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("LAYERS", "METHODS")}
    assert set(values["METHODS"]) <= set(values["LAYERS"])
    for layer in values["LAYERS"]:
        module = importlib.import_module(f"qospread.{layer}")
        for qualified in values["METHODS"].get(layer, ()):
            cls_name, method = qualified.split(".")
            assert method in vars(getattr(module, cls_name)), qualified


def _python(script: str, *args: str, **env: str) -> str:
    """The stdout of ``script`` in a fresh interpreter, OPENBLAS_NUM_THREADS unset unless given."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env = {**base, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env,
                          check=True).stdout


def test_import_loads_no_layer_and_no_numpy():
    script = ("import sys, qospread\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('qospread.')))")
    assert _python(script) == "[]\n"


# Runs one CLI command through an entry path.  "module" is python -m qospread.cli
# (runpy sets argv[0] to the module's file), "script" the console script,
# "importer" another program that imports qospread.cli with the command as its
# own argv[1].
RUN_ENTRY = """
import contextlib, io, sys

entry, command = sys.argv[1], sys.argv[2:]
sys.argv = [{"module": "-m", "script": "/usr/local/bin/qospread", "importer": "/usr/local/bin/other"}[entry], *command]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        if entry == "module":
            import runpy
            runpy.run_module("qospread.cli", run_name="__main__", alter_sys=True)
        else:
            from qospread.cli import main
            main()
    except SystemExit:
        pass
"""

# Prints what OPENBLAS_NUM_THREADS held when numpy was first imported.
NUMPY_IMPORT_SPY = """
import os, sys

class NumpySpy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, NumpySpy())
""" + RUN_ENTRY + """
print(NumpySpy.seen)
"""

# Prints the layers the command never loaded, whether the collector is on and
# whether anything is frozen; the first argument is the collector state the caller sets.
GC_SPY = """
import gc, sys

gc.enable() if sys.argv.pop(1) == "on" else gc.disable()
""" + RUN_ENTRY + """
print(sorted({"qospread.verify", "qospread.weyl"} - set(sys.modules)), gc.isenabled(), gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("command,threads", [
    ("generate", "1"), ("verify", "1"), ("example", "1"), ("mub", "1"), ("--help", "1"),
])
def test_cli_sets_blas_threads_before_numpy_loads(entry, command, threads):
    assert _python(NUMPY_IMPORT_SPY, entry, command) == f"{[threads]}\n"


@pytest.mark.parametrize("entry", ["module", "script"])
def test_cli_keeps_the_callers_blas_threads(entry):
    for command in ("generate", "mub"):
        assert _python(NUMPY_IMPORT_SPY, entry, command, OPENBLAS_NUM_THREADS="2") == "['2']\n"


@pytest.mark.parametrize("command", ["generate", "verify", "example", "mub"])
def test_cli_leaves_blas_threads_to_other_programs(command):
    assert _python(NUMPY_IMPORT_SPY, "importer", command) == "[None]\n"


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("command", ["--help", "generate"])
def test_cli_freezes_its_imports_and_loads_only_what_it_runs(tmp_path, entry, command):
    argv = [command] if command == "--help" else [command, "--p", "3", "--out", str(tmp_path / "fam.yaml")]
    for caller in ("on", "off"):
        assert _python(GC_SPY, caller, entry, *argv) == "['qospread.verify', 'qospread.weyl'] True True\n"
    assert command == "--help" or (tmp_path / "fam.yaml").exists()


@pytest.mark.parametrize("caller", ["on", "off"])
def test_cli_leaves_the_collector_to_other_programs(tmp_path, caller):
    out = _python(GC_SPY, caller, "importer", "generate", "--p", "3", "--out", str(tmp_path / "fam.yaml"))
    assert out == f"['qospread.verify', 'qospread.weyl'] {caller == 'on'} False\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_collector_alone(tmp_path, enabled):
    from qospread.cli import main

    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        assert main(["generate", "--p", "3", "--out", str(tmp_path / "fam.yaml")]) == 0
        assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    finally:
        gc.enable() if was else gc.disable()
