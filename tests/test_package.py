"""The package namespace: the public names it exports and where each one lives."""

import gc
import importlib
import os
import subprocess
import sys

import pytest

import qospread

PUBLIC = {
    "constructions": ["ConstructionParams", "FamilyMember", "INFINITY", "MASA", "MATRIX_ALGEBRA", "SpreadFamily",
                      "build_C", "build_D", "build_masa_spread", "build_recursive", "build_spread_2", "embed_hat",
                      "expected_count"],
    "finite_field": ["FieldSpec", "GFElement", "field_trace", "find_irreducible", "find_nonresidue",
                     "format_element", "gf", "trace_dual_basis"],
    "phase_space": ["GFPhasePoint", "PhasePoint", "Subspace", "check_pairwise_trivial", "check_partition",
                    "classify_subspace", "gf_symplectic", "pi1", "span_enumerate", "symplectic_basis",
                    "symplectic_product"],
    "report": ["VerificationReport"],
    "verify": ["check_mub_overlaps", "counting_identity_holds", "extract_and_check_mub", "extract_mub_bases",
               "verify_full_algebra", "verify_qo_numeric", "verify_qo_symbolic"],
    "weyl": ["WeylMonomial", "basis_matrices", "commutation_phase", "monomial_text", "synthesize", "weyl_mul"],
}


def test_all_lists_the_46_public_names():
    assert qospread.__all__ == [
        "ConstructionParams", "FamilyMember", "FieldSpec", "GFElement", "GFPhasePoint", "INFINITY", "MASA",
        "MATRIX_ALGEBRA", "PhasePoint", "SpreadFamily", "Subspace", "VerificationReport", "WeylMonomial",
        "basis_matrices", "build_C", "build_D", "build_masa_spread", "build_recursive", "build_spread_2",
        "check_mub_overlaps", "check_pairwise_trivial", "check_partition", "classify_subspace",
        "commutation_phase", "counting_identity_holds", "embed_hat", "expected_count", "extract_and_check_mub",
        "extract_mub_bases", "field_trace", "find_irreducible", "find_nonresidue", "format_element", "gf",
        "gf_symplectic", "monomial_text", "pi1", "span_enumerate", "symplectic_basis",
        "symplectic_product", "synthesize", "trace_dual_basis", "verify_full_algebra", "verify_qo_numeric",
        "verify_qo_symbolic", "weyl_mul",
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
    ("generate", "1"), ("verify", "1"), ("example", "1"), ("mub", "1"), ("--help", None),
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
