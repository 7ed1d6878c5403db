"""Cold start: which of specqual's modules a fresh interpreter loads.

``operators`` and ``experiments`` serve only convergence studies, so
``import specqual`` and every CLI subcommand but ``converge`` leave them
unloaded; the package hands out their names on first access.  The module
sets are read from ``python -X importtime``, which lists each module as it
is imported and leaves stdout alone, so the same calls also pin their
printed bytes against the golden files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specqual
from specqual import experiments, operators

SRC = Path(specqual.__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
STUDY_MODULES = {"specqual.operators", "specqual.experiments"}

OPERATORS_NAMES = (
    "DimensionError", "MembershipVerdict", "OperatorError", "SourceElement", "SpectralModel",
    "load_matrix_csv", "make_model", "make_source_element", "membership_probe",
    "model_from_json", "regularization_error", "log_regularization_error", "regularize",
    "svd_decompose",
)
EXPERIMENTS_NAMES = (
    "ConvergenceStudy", "ConverseProbe", "ExperimentError", "MaximalSourceReport", "SlopeFit",
    "converse_probe", "fit_order", "maximal_source_demo", "run_convergence",
)

# id -> (CLI argv, golden file holding "exit N" and stdout, or None)
SUBCOMMANDS = {
    "classify": (("classify", "--filter", "tikhonov", "--order", "alpha"), None),
    "srho": (("srho", "--filter", "ex4", "--order", "-1/ln(alpha)",
              "--lambda", "0.01,0.1,1,10", "--format", "csv"), "cli_srho_ex4.txt"),
    "classical": (("classical", "--filter", "ex8", "--param", "k=2"), "cli_classical_ex8.txt"),
    "mp-check": (("mp-check", "--filter", "showalter", "--order", "exp(-1/sqrt(alpha))"),
                 "cli_mp_showalter.txt"),
    "construct": (("construct", "--filter", "showalter", "--format", "csv"),
                  "cli_construct_showalter.txt"),
    "input-error": (("srho", "--filter", "landweber", "--order", "alpha", "--lambda", "3"),
                    None),
}

README_CONVERGE = ("converge", "--filter", "tikhonov", "--model", "diag:j^-2", "--dim", "200",
                   "--source", "lambda", "--fit-window", "2.5e-4:1e-3")


def cold_run(tmp_path, *args):
    """``python -X importtime ARGS`` in a fresh interpreter: its exit code,
    stdout bytes, stderr without the import lines, and the specqual
    modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          cwd=tmp_path, capture_output=True, timeout=120)
    err, loaded = "", set()
    for line in proc.stderr.decode().splitlines(keepends=True):
        if line.startswith("import time:"):
            loaded.add(line.rsplit("|", 1)[1].strip())
        else:
            err += line
    ours = {name for name in loaded if name.split(".")[0] == "specqual"}
    return proc.returncode, proc.stdout, err, ours


def test_import_specqual_skips_study_modules(tmp_path):
    code, _, _, loaded = cold_run(tmp_path, "-c", "import specqual")
    assert code == 0
    assert "specqual.qualification" in loaded
    assert not loaded & STUDY_MODULES


@pytest.mark.parametrize("case", sorted(SUBCOMMANDS))
def test_subcommand_skips_study_modules(tmp_path, case):
    """Each call prints what it printed when the package loaded all its
    modules: the golden bytes where a file holds them."""
    argv, golden = SUBCOMMANDS[case]
    code, out, err, loaded = cold_run(tmp_path, "-m", "specqual.cli", *argv)
    assert not loaded & STUDY_MODULES
    if golden is not None:
        assert f"exit {code}\n".encode() + out == (GOLDEN_DIR / golden).read_bytes()
    elif case == "input-error":
        assert (code, out) == (2, b"")
        assert json.loads(err) == {
            "error": "ParameterRangeError",
            "message": "lambda exceeds 2.0 (valid range) for filter 'landweber'"}
    else:
        assert code == 0
        assert json.loads(out)["level"] == "optimal"


def test_converge_loads_study_modules(tmp_path):
    code, out, _, loaded = cold_run(tmp_path, "-m", "specqual.cli", *README_CONVERGE)
    assert code == 0
    assert loaded >= STUDY_MODULES
    assert out == (GOLDEN_DIR / "converge_readme.json").read_bytes()


class TestLazyExports:
    def test_names_are_the_submodule_objects(self):
        for module, names in ((operators, OPERATORS_NAMES), (experiments, EXPERIMENTS_NAMES)):
            for name in names:
                assert getattr(specqual, name) is getattr(module, name), name

    def test_dir_lists_them(self):
        assert set(OPERATORS_NAMES + EXPERIMENTS_NAMES) <= set(dir(specqual))

    def test_star_import_binds_them(self):
        namespace = {}
        exec("from specqual import *", namespace)
        assert namespace["svd_decompose"] is operators.svd_decompose
        assert namespace["run_convergence"] is experiments.run_convergence

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            specqual.nosuch  # noqa: B018
        assert not hasattr(specqual, "nosuch")

    def test_from_import_yields_the_submodule(self):
        from specqual import experiments as e
        from specqual import operators as o

        assert o is sys.modules["specqual.operators"]
        assert e is sys.modules["specqual.experiments"]
        assert o.svd_decompose is specqual.svd_decompose
