"""Time the exact table operations on Boolean lattices 2^9..2^11 and MO256.

Run from the root of a checkout, with the package under test on the path:

    PYTHONPATH=src python benchmarks/table_ops.py [--repeats 21] [--seed 1]

For 2^9, 2^10, 2^11 and MO256 (256 orthocomplementary atom pairs, 514
elements, named by its pairs as the ``lattice-sweep`` benchmark names it)
it prints, as JSON, the median and the quartiles in ms of each layer on one
random spectral family: ``make_spectral_family`` on its jumps,
``observable_fn`` and ``mirrored_fn`` on the family, and ``reconstruct``,
``f_from_r`` and ``is_completely_increasing`` on its observable table,
and ``stone.verify_basis_identities`` on the lattice (lattice construction
and the first call, which fills the lattice's caches, are not timed); on
MO256 also ``stone.quasipoints``.  Last, it
times ``matrix.rank_one_extension`` with Q = I on a random 128 x 128
Hermitian (128 distinct eigenvalues, decomposed once, outside the timing).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from stonespec import matrix, recon, stone
from stonespec.corpus import boolean_lattice
from stonespec.lattice import FiniteOML
from stonespec.spectral import (make_spectral_family, mirrored_fn, observable_fn,
                                random_spectral_family)


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
    lattices = {f"2^{m}": boolean_lattice(m) for m in (9, 10, 11)}
    lattices["MO256"] = mo_lattice(256)
    out = {}
    for name, L in lattices.items():
        E = random_spectral_family(L, np.random.default_rng(args.seed))
        jumps, f = E.jumps(), observable_fn(E)
        out[name] = {
            "n": L.n,
            "k": E.k,
            "make_spectral_family": timed(lambda: make_spectral_family(L, jumps), args.repeats),
            "observable_fn": timed(lambda: observable_fn(E), args.repeats),
            "mirrored_fn": timed(lambda: mirrored_fn(E), args.repeats),
            "reconstruct": timed(lambda: recon.reconstruct(L, f), args.repeats),
            "f_from_r": timed(lambda: recon.f_from_r(L, f), args.repeats),
            "is_completely_increasing": timed(
                lambda: recon.is_completely_increasing(L, f), args.repeats),
            "verify_basis_identities": timed(
                lambda: stone.verify_basis_identities(L), args.repeats),
        }
    M = lattices["MO256"]
    out["MO256"]["quasipoints"] = timed(lambda: stone.quasipoints(M), args.repeats)
    d = matrix.eig(matrix.random_hermitian(128, np.random.default_rng(args.seed)))
    rng = np.random.default_rng(args.seed)
    out["n=m=128"] = {"m": d.m, "rank_one_extension": timed(
        lambda: matrix.rank_one_extension(d, np.eye(d.n), rng), args.repeats)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
