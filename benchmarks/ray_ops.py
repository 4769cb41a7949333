"""Time the single-ray calls and the default ``matrix rays`` sweep.

Run from the root of a checkout, with the package under test on the path:

    PYTHONPATH=src python benchmarks/ray_ops.py [--repeats 9] [--seed 1]

For n = 32, 64, 128, 256 and 512 it draws a random complex Hermitian matrix
and 64 random rays from the seed, takes the eigendecomposition once, and
times ``matrix.ray_obs``, ``matrix.mirrored_ray`` and ``matrix.expectation``
on the decomposition, each called once on every ray per repeat: the median
and the quartiles over the repeats, in microseconds per call.

Then, for n = 64, 128, 256 and 512, it writes a random real symmetric
matrix file and runs ``stonespec matrix rays --matrix <file>`` in this
process, counting its output lines and sending its warnings to the null
device: the load, the eigendecomposition and the n^2 + 2n rows of the
sweep.  It prints the median and the quartiles in ms, the number of output
lines, and ``scaling_exp``, the slope of log time against log n from
n = 128 to 512.  One more run at each size under tracemalloc gives
``peak_mb``, the traced peak of the command in MB.  The first call of each
single-ray function is not timed; every sweep is, since the layers it runs
are imported before the first one.

Last come the bridge columns, as the ``matrix-sweep`` benchmark runs them:
``matrix.spectral_family_of`` and ``matrix.step_approx`` (eps 0.25) on a
random complex Hermitian with 8 distinct eigenvalues half a unit or more
apart, at n = 128, 256 and 512, decomposed once outside the timing; and
``gelfand.diagonal_spectral_family`` and ``gelfand.verify_gelfand_identity``
on n distinct random diagonal entries, at n = 4, 6, 8 and 9.  They print
the median and the quartiles in ms.

Last, ``eig_ms`` times ``matrix.eig`` itself: on a random complex Hermitian
(m = n distinct eigenvalues) at n = 4, 32, 64, 96 and 128, and on the
bridge columns' matrix with 8 distinct eigenvalues at n = 128, 256 and 512;
each row gives m as eig counts it, and the median and the quartiles in ms.
The figures are printed as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from stonespec import gelfand, io, matrix
from stonespec.cli import main as cli_main
from table_ops import timed  # this script's directory is on sys.path

RAY_N = (32, 64, 128, 256, 512)
SWEEP_N = (64, 128, 256, 512)
CALLS = ("ray_obs", "mirrored_ray", "expectation")
BRIDGE_N = (128, 256, 512)
BRIDGE_LEVELS = 8
GELFAND_N = (4, 6, 8, 9)
EIG_DISTINCT_N = (4, 32, 64, 96, 128)
EIG_LEVELS_N = (128, 256, 512)
STEP_EPS = 0.25  # below half the smallest gap of the levels


def ray_calls(n: int, rng: np.random.Generator, repeats: int) -> dict:
    d = matrix.eig(matrix.random_hermitian(n, rng))
    rays = list(matrix.random_rays(n, 64, rng))
    out = {}
    for name in CALLS:
        call = getattr(matrix, name)
        runs = timed(lambda: [call(d, x) for x in rays], repeats)
        out[name] = {key.replace("_ms", "_us"): round(v * 1e3 / len(rays), 2)
                     for key, v in runs.items()}
    return out


def leveled_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(w) U^H, U a random unitary and w taking BRIDGE_LEVELS distinct
    values half a unit or more apart, each n / BRIDGE_LEVELS times."""
    levels = np.sort(rng.choice(np.arange(-32, 32), BRIDGE_LEVELS, replace=False) / 2.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (u * np.repeat(levels, n // BRIDGE_LEVELS)) @ u.conj().T


def bridge_calls(n: int, rng: np.random.Generator, repeats: int) -> dict:
    """spectral_family_of and step_approx on leveled_hermitian(n)."""
    d = matrix.eig(leveled_hermitian(n, rng))
    return {"spectral_family_of": timed(lambda: matrix.spectral_family_of(d), repeats),
            "step_approx": timed(lambda: matrix.step_approx(d, STEP_EPS), repeats)}


def gelfand_calls(n: int, rng: np.random.Generator, repeats: int) -> dict:
    alg = gelfand.DiagonalAlgebra.of_dimension(n)
    entries = rng.permutation(np.arange(n) + rng.uniform(-0.25, 0.25, n))
    return {name: timed(lambda fn=getattr(gelfand, name): fn(alg, entries), repeats)
            for name in ("diagonal_spectral_family", "verify_gelfand_identity")}


def eig_call(a: np.ndarray, repeats: int) -> dict:
    return {"m": matrix.eig(a).m, **timed(lambda: matrix.eig(a), repeats)}


def counted_sweep(path: Path) -> int:
    """One ``matrix rays`` sweep on the file, in process: the lines it writes,
    counted as they come; its band warnings go to the null device."""
    lines = 0

    class Counter:
        def write(self, text):
            nonlocal lines
            lines += text.count("\n")

        def flush(self):
            pass

    with (open(os.devnull, "w") as sink, contextlib.redirect_stdout(Counter()),
          contextlib.redirect_stderr(sink)):
        cli_main(["matrix", "rays", "--matrix", str(path)], standalone_mode=False)
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    out = {"single_ray_us": {f"n{n}": ray_calls(n, rng, args.repeats) for n in RAY_N},
           "sweep": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for n in SWEEP_N:
            g = rng.standard_normal((n, n))
            path = Path(tmp) / f"h{n}.json"
            io.save_matrix((g + g.T) / 2, path)
            runs = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                counted_sweep(path)
                runs.append((time.perf_counter() - t0) * 1e3)
            tracemalloc.start()
            try:
                lines = counted_sweep(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            q1, med, q3 = np.percentile(runs, [25, 50, 75])
            out["sweep"][f"n{n}"] = {"median_ms": round(float(med), 1), "q1_ms": round(float(q1), 1),
                                      "q3_ms": round(float(q3), 1), "lines": lines,
                                      "peak_mb": round(peak / 2**20, 2)}
    t128, t512 = out["sweep"]["n128"]["median_ms"], out["sweep"]["n512"]["median_ms"]
    out["sweep"]["scaling_exp"] = round(math.log(t512 / t128) / math.log(4), 2)
    out["bridge_ms"] = {f"n{n}m{BRIDGE_LEVELS}": bridge_calls(n, rng, args.repeats)
                        for n in BRIDGE_N}
    out["gelfand_ms"] = {f"n{n}": gelfand_calls(n, rng, args.repeats) for n in GELFAND_N}
    out["eig_ms"] = {f"n{n}": eig_call(matrix.random_hermitian(n, rng), args.repeats)
                     for n in EIG_DISTINCT_N}
    out["eig_ms"].update({f"n{n}m{BRIDGE_LEVELS}": eig_call(leveled_hermitian(n, rng), args.repeats)
                          for n in EIG_LEVELS_N})
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
