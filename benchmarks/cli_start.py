"""Time single CLI calls from process start, and the layers each one imports.

Run from the root of a checkout, with the package under test on the path:

    PYTHONPATH=src python benchmarks/cli_start.py [--repeats 9]

The package is copied without its bytecode cache into a temporary
directory, and every call runs there with PYTHONDONTWRITEBYTECODE=1, so
each process compiles the package from source, as a fresh checkout does.
The calls are the nine commands on small files: MO2 with a spectral family
and its observable table, a 6 x 6 Hermitian matrix with eigenvalues
1, 2, 2, 3, 3, 3, and ``verify --suite lattice --suite stone``.  After one
untimed call each, the commands run in turn, ``--repeats`` rounds.  For
each command it prints, as JSON, the median and the quartiles in ms of its
fresh-process wall time (``python -m stonespec.cli``, start to exit), and,
from one more call under ``-X importtime``, the ``stonespec`` modules it
imported and their summed self import time in ms.  The package itself
appears as ``stonespec`` and its modules by their names within it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import stonespec
from stonespec import io
from stonespec.corpus import corpus
from stonespec.spectral import make_spectral_family, observable_fn

COMMANDS = {
    "check": ["check", "--lattice", "{lattice}"],
    "quasipoints": ["quasipoints", "--lattice", "{lattice}"],
    "obsfn": ["obsfn", "--lattice", "{lattice}", "--family", "{family}"],
    "reconstruct": ["reconstruct", "--lattice", "{lattice}", "--fn", "{table}"],
    "matrix_spectral": ["matrix", "spectral", "--matrix", "{matrix}"],
    "matrix_rays": ["matrix", "rays", "--matrix", "{matrix}"],
    "matrix_gelfand": ["matrix", "gelfand", "--matrix", "{matrix}"],
    "matrix_approx": ["matrix", "approx", "--matrix", "{matrix}", "--eps", "0.25"],
    "verify": ["verify", "--suite", "lattice", "--suite", "stone"],
}


def write_files(tmp: Path) -> dict:
    MO2 = corpus()["MO2"]
    E = make_spectral_family(MO2, [(0.0, MO2.index("a")), (1.0, MO2.top)])
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))
    paths = {key: tmp / f"{key}.json" for key in ("lattice", "family", "table", "matrix")}
    io.save_lattice(MO2, paths["lattice"])
    io.save_family(E, paths["family"])
    io.save_table(observable_fn(E), paths["table"])
    io.save_matrix(q @ np.diag([1.0, 2, 2, 3, 3, 3]) @ q.T, paths["matrix"])
    return {key: str(path) for key, path in paths.items()}


def call(args: list[str], env: dict, *flags: str) -> subprocess.CompletedProcess:
    res = subprocess.run([sys.executable, *flags, "-m", "stonespec.cli", *args],
                         capture_output=True, text=True, env=env, timeout=300)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {res.returncode}: {res.stderr[-300:]}")
    return res


def imports(args: list[str], env: dict) -> tuple[str, float]:
    """The stonespec modules a call imports (the package and its submodules, by
    their names within it), and their summed self import time in ms."""
    modules, self_us = [], 0
    for line in call(args, env, "-X", "importtime").stderr.splitlines():
        if line.startswith("import time:"):
            us, _, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name.split(".")[0] == "stonespec":
                modules.append(name.removeprefix("stonespec."))
                self_us += int(us)
    return " ".join(sorted(modules)), round(self_us / 1e3, 2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(Path(stonespec.__file__).parent, tmp / "src" / "stonespec",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        files = write_files(tmp)
        calls = {key: [arg.format(**files) for arg in argv] for key, argv in COMMANDS.items()}
        for argv in calls.values():
            call(argv, env)
        runs = {key: [] for key in calls}
        for _ in range(args.repeats):
            for key, argv in calls.items():
                t0 = time.perf_counter()
                call(argv, env)
                runs[key].append((time.perf_counter() - t0) * 1e3)
        out = {}
        for key, argv in calls.items():
            q1, med, q3 = np.percentile(runs[key], [25, 50, 75])
            modules, self_ms = imports(argv, env)
            out[key] = {"median_ms": round(float(med), 2), "q1_ms": round(float(q1), 2),
                        "q3_ms": round(float(q3), 2), "modules": modules,
                        "import_self_ms": self_ms}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
