"""The lazy import surface.

Each CLI command runs in a fresh ``python -m stonespec.cli`` process, which
imports only the layers that command runs and prints what the in-process
``CliRunner`` prints.  (``CliRunner`` alone cannot show a missing
function-local import: the test process has already imported every layer.)
The package's lazily served names are the objects of their submodules.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import stonespec
from stonespec import io as sio
from stonespec import cli, verify
from stonespec.corpus import corpus
from stonespec.spectral import make_spectral_family, observable_fn

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(stonespec.__file__).resolve().parents[1])

LATTICE_LAYERS = frozenset({"stonespec", "stonespec.errors", "stonespec._kernels",
                            "stonespec.lattice", "stonespec.corpus", "stonespec.io",
                            "stonespec.spectral", "stonespec.stone", "stonespec.recon"})
MATRIX_LAYERS = LATTICE_LAYERS | {"stonespec.matrix"}
GELFAND_LAYERS = MATRIX_LAYERS | {"stonespec.gelfand"}
EVERY_LAYER = GELFAND_LAYERS | {"stonespec.verify"}

# command -> (arguments, with {lattice}, {family}, {table} and {matrix} for the
# fixture files; the stonespec modules a fresh process imports)
COMMANDS = {
    "check": (["check", "--lattice", "{lattice}"], LATTICE_LAYERS),
    "quasipoints": (["quasipoints", "--lattice", "{lattice}"], LATTICE_LAYERS),
    "obsfn": (["obsfn", "--lattice", "{lattice}", "--family", "{family}"], LATTICE_LAYERS),
    "reconstruct": (["reconstruct", "--lattice", "{lattice}", "--fn", "{table}"],
                    LATTICE_LAYERS),
    "matrix spectral": (["matrix", "spectral", "--matrix", "{matrix}"], MATRIX_LAYERS),
    "matrix rays": (["matrix", "rays", "--matrix", "{matrix}"], MATRIX_LAYERS),
    "matrix approx": (["matrix", "approx", "--matrix", "{matrix}", "--eps", "0.3"],
                      MATRIX_LAYERS),
    "matrix gelfand": (["matrix", "gelfand", "--matrix", "{matrix}"], GELFAND_LAYERS),
    "verify": (["verify", "--suite", "lattice"], EVERY_LAYER),
}

# the package's public names, by the submodule that defines them
PUBLIC = {
    "errors": "LatticeError NotObservableError SchemaError",
    "lattice": "FiniteOML StructureReport generated_sublattice inspect_order principal_ideal "
               "verify_structure",
    "corpus": "benzene boolean_lattice chain2 corpus mo",
    "stone": "DualIdeal Quasipoint enumerate_dual_ideals ideals_containing principal_filter "
             "quasipoints quasipoints_containing stone_density",
    "spectral": "ObservableTable PreSpectralFamily SpectralFamily make_pre_spectral_family "
                "make_spectral_family mirrored_fn negate observable_fn restrict spectralize "
                "translate",
    "recon": "f_from_r is_abstract_observable is_completely_increasing "
             "observable_from_quasipoint_data r_from_f reconstruct",
    "matrix": "EigenDecomposition ProjectorFamily eig expectation mirrored_ray ray_obs "
              "reconstruct_from_rays spectral_family_of spectrum step_approx",
    "gelfand": "DiagonalAlgebra gelfand_transform orthogonal_representation",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    MO2 = corpus()["MO2"]
    E = make_spectral_family(MO2, [(0.0, MO2.index("a")), (1.0, MO2.top)])
    paths = {"lattice": tmp / "mo2.json", "family": tmp / "family.json",
             "table": tmp / "table.json", "matrix": GOLDEN / "rot6.json"}
    sio.save_lattice(MO2, paths["lattice"])
    sio.save_family(E, paths["family"])
    sio.save_table(observable_fn(E), paths["table"])
    return {key: str(path) for key, path in paths.items()}


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports this stonespec."""
    path = [SRC, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [SRC]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120)


def imported_modules(importtime: str) -> set[str]:
    """The stonespec modules named by ``-X importtime`` lines on stderr."""
    names = (line.rsplit("|", 1)[1].strip() for line in importtime.splitlines()
             if line.startswith("import time:"))
    return {name for name in names if name.split(".")[0] == "stonespec"}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_fresh_process_imports_only_its_layers(files, command):
    template, layers = COMMANDS[command]
    args = [arg.format(**files) for arg in template]
    run = fresh("-X", "importtime", "-m", "stonespec.cli", *args)
    local = CliRunner().invoke(cli.main, args)
    assert (run.returncode, run.stdout) == (local.exit_code, local.stdout), run.stderr
    assert run.returncode == 0, run.stderr
    assert imported_modules(run.stderr) == layers


@pytest.mark.parametrize("command", ["reconstruct", "matrix approx"])
def test_fresh_process_leaves_numpy_ma_out(files, command):
    """np.unique imports numpy.ma on its first call in a process; the levels
    these commands sort come from spectral.sorted_unique, which does not."""
    template, _ = COMMANDS[command]
    args = [arg.format(**files) for arg in template]
    code = ("import atexit, sys; atexit.register(lambda: print('numpy.ma' in sys.modules, "
            "file=sys.stderr)); from stonespec.cli import main; main()")
    run = fresh("-c", code, *args)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "False", run.stderr


def test_public_names_resolve_to_their_submodules():
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"stonespec.{module}")
        for name in names.split():
            assert getattr(stonespec, name) is getattr(submodule, name), name
            assert name in dir(stonespec), name
    for module in ("stone", "spectral", "recon", "matrix", "gelfand"):
        assert getattr(stonespec, module) is sys.modules[f"stonespec.{module}"]
        assert module in dir(stonespec)
    assert inspect.isfunction(stonespec.corpus)


def test_submodules_resolve_on_first_use():
    """Not yet imported, a submodule is imported by its attribute's first use."""
    run = fresh("-c", "import stonespec as s; print(s.gelfand.__name__, s.eig.__module__)")
    assert run.stdout == "stonespec.gelfand stonespec.matrix\n", run.stderr


def test_lazy_names_follow_a_patched_submodule(monkeypatch):
    from stonespec import matrix

    monkeypatch.setattr(matrix, "eig", "patched")
    assert stonespec.eig == "patched"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stonespec.no_such_name  # noqa: B018
    assert not hasattr(stonespec, "step")


def test_cli_suite_choices_follow_the_registry():
    (option,) = [p for p in cli.verify.params if p.name == "suites"]
    assert tuple(option.type.choices) == (*verify.SUITES, "all")
