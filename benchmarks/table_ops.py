"""Time the exact table operations on Boolean lattices 2^9..2^11.

Run from the root of a checkout, with the package under test on the path:

    PYTHONPATH=src python benchmarks/table_ops.py [--repeats 21] [--seed 1]

For each size it prints, as JSON, the median and the quartiles in ms of
``reconstruct``, ``f_from_r`` and ``is_completely_increasing`` on the
observable table of one random spectral family (lattice construction and
the first call, which fills the lattice's caches, are not timed), and of
``stone.quasipoints`` on MO256 (127 orthocomplementary atom pairs) and of
``matrix.rank_one_extension`` with Q = I on a random 128 x 128 Hermitian
(128 distinct eigenvalues, decomposed once, outside the timing).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from stonespec import matrix, recon, stone
from stonespec.corpus import boolean_lattice
from stonespec.lattice import FiniteOML
from stonespec.spectral import observable_fn, random_spectral_family


def timed(fn, repeats: int) -> dict:
    fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median_ms": round(float(med), 4), "q1_ms": round(float(q1), 4),
            "q3_ms": round(float(q3), 4)}


def mo_lattice(pairs: int) -> FiniteOML:
    """Bottom 0, top n - 1 and atoms 1..2 pairs, atom 2i + 1 the complement of 2i + 2."""
    n = 2 * pairs + 2
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    ortho = np.arange(n)[::-1].copy()
    ortho[1:-1] = np.arange(1, n - 1) + np.where(np.arange(1, n - 1) % 2, 1, -1)
    return FiniteOML([str(i) for i in range(n)], leq, ortho)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    out = {}
    for m in (9, 10, 11):
        L = boolean_lattice(m)
        f = observable_fn(random_spectral_family(L, np.random.default_rng(args.seed)))
        out[f"2^{m}"] = {
            "n": L.n,
            "reconstruct": timed(lambda: recon.reconstruct(L, f), args.repeats),
            "f_from_r": timed(lambda: recon.f_from_r(L, f), args.repeats),
            "is_completely_increasing": timed(
                lambda: recon.is_completely_increasing(L, f), args.repeats),
        }
    M = mo_lattice(127)
    out["MO256"] = {"n": M.n, "quasipoints": timed(lambda: stone.quasipoints(M), args.repeats)}
    d = matrix.eig(matrix.random_hermitian(128, np.random.default_rng(args.seed)))
    rng = np.random.default_rng(args.seed)
    out["n=m=128"] = {"m": d.m, "rank_one_extension": timed(
        lambda: matrix.rank_one_extension(d, np.eye(d.n), rng), args.repeats)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
