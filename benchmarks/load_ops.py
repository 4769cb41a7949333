"""Time loading a lattice from covering pairs, and the kernels behind it.

Run from the root of a checkout, with the package under test on the path:

    PYTHONPATH=src python benchmarks/load_ops.py [--repeats 9] [--seed 1]

Each lattice is written once as a file of its covering pairs, with its
elements relabeled by a permutation drawn from the seed: the Boolean
lattices 2^8 to 2^12, MO64, MO127, MO128 and MO511 (MOk has k
orthocomplementary atom pairs and 2k + 2 elements, named by its pairs as
the ``lattice-sweep`` benchmark names it: 130, 256, 258 and 1024
elements), the chain of 2048 elements (its orthocomplement reverses the
chain), and 2^11 with the identity as its orthocomplement ("2^11 direct":
it reverses no order, so the meets are searched as the joins of the
reversed order instead of read by De Morgan).  For each file it prints, as
JSON, the median and the quartiles in ms of ``io.load_lattice`` on the
file, ``io.transitive_closure`` on the reflexive relation of its pairs
(what ``load_lattice`` closes), ``_kernels.bound_tables`` on the closed
order with the file's orthocomplement, the ``FiniteOML`` constructor
alone on the closed order (its checks and tables, without the file and the
closure), ``lattice.verify_structure`` on the loaded lattice (its n^2
law scans) and ``FiniteOML.cover_pairs`` on it (what ``save_lattice``
writes), and the Stone enumerations ``stone.quasipoints`` and
``stone.enumerate_dual_ideals`` on it.  The first call of each is not timed.  Three columns come from
tracemalloc, in bytes per ordered pair of elements (bytes / n^2): over one
more ``load_lattice`` call, its peak (``load_peak_bytes_per_pair``) and
what the loaded lattice still holds when it returns
(``held_bytes_per_pair``); over one more ``verify_structure`` call, its
peak (``verify_peak_bytes_per_pair``).  Four columns say how
``bound_tables`` took the tables: the numbers of meet- and of
join-irreducibles (``meet_irreducibles``, ``join_irreducibles``: the |S| of
its signature path for the joins and for the joins of the reversed order),
and where the joins and the meets came from (``joins``: "signatures" or
"search"; ``meets``: "de-morgan" when the orthocomplement reverses the
order, else "signatures" or "search").

Then chains of 1024, 2048 and 4096 elements are written as cyclic files,
relabeled the same way: their covering pairs plus one back edge, from the
top to the element below it ("cyclic chain<n> top") or from the top to the
bottom ("cyclic chain<n> bottom").  For each it prints the median and the
quartiles in ms of ``io.load_lattice`` up to its refusal (``refusal``) and
the refusal's message.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from stonespec import _kernels, io, stone
from stonespec.corpus import boolean_lattice
from stonespec.errors import LatticeError
from stonespec.lattice import FiniteOML, verify_structure
from table_ops import mo_lattice, timed  # this script's directory is on sys.path


def chain(n: int) -> FiniteOML:
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FiniteOML([str(i) for i in range(n)], leq, np.arange(n)[::-1].copy())


def without_reversal(L: FiniteOML) -> FiniteOML:
    """L with the identity as its orthocomplement, which reverses no order."""
    return FiniteOML(L.names, L.leq, np.arange(L.n))


def relabeled_file(L: FiniteOML, rng: np.random.Generator, path: Path, extra=()) -> None:
    """Write L's covering pairs and the pairs ``extra`` with element i
    renamed to position p[i]."""
    p = rng.permutation(L.n)
    names = [""] * L.n
    for i, name in enumerate(L.names):
        names[p[i]] = name
    ortho = np.empty(L.n, np.int64)
    ortho[p] = p[L.ortho]
    doc = {"elements": names,
           "leq": [[int(p[i]), int(p[j])] for i, j in [*L.cover_pairs(), *extra]],
           "ortho": ortho.tolist()}
    path.write_text(json.dumps(doc))


def refusal(path: Path) -> str:
    """The message of the LatticeError that load_lattice raises on the file."""
    try:
        io.load_lattice(path)
    except LatticeError as exc:
        return str(exc)
    raise AssertionError(f"{path} loaded")


def traced_load(path: Path, n: int) -> tuple[float, float]:
    """Peak and held bytes per pair of one load_lattice call, traced."""
    tracemalloc.start()
    try:
        L = io.load_lattice(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del L
    return round(peak / n**2, 2), round(held / n**2, 2)


def traced_verify(L: FiniteOML) -> float:
    """Peak bytes per pair of one verify_structure call, traced."""
    tracemalloc.start()
    try:
        verify_structure(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / L.n**2, 2)


def irreducibles(leq: np.ndarray) -> int:
    """How many a have some c >= a with |up(c)| = |up(a)| - 1: in a lattice,
    the meet-irreducibles, which sign the joins."""
    up = leq.sum(axis=1)
    return int((leq & (up == up[:, None] - 1)).any(axis=1).sum())


def paths(L: FiniteOML) -> dict:
    """The signature counts of L and the path bound_tables takes for each table."""
    def source(dual: bool) -> str:
        return "search" if _kernels._signature_joins(L.leq, dual) is None else "signatures"

    reverses = L.reverses_order()
    return {"meet_irreducibles": irreducibles(L.leq),
            "join_irreducibles": irreducibles(np.ascontiguousarray(L.leq.T)),
            "joins": source(False), "meets": "de-morgan" if reverses else source(True)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    lattices = {f"2^{m}": lambda m=m: boolean_lattice(m) for m in (8, 9, 10, 11, 12)}
    for pairs in (64, 127, 128, 511):
        lattices[f"MO{pairs}"] = lambda pairs=pairs: mo_lattice(pairs)
    lattices["chain2048"] = lambda: chain(2048)
    lattices["2^11 direct"] = lambda: without_reversal(boolean_lattice(11))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in lattices.items():
            path = Path(tmp) / f"{name}.json"
            relabeled_file(build(), rng, path)
            doc = json.loads(path.read_text())
            n = len(doc["elements"])
            rel = np.eye(n, dtype=bool)
            i, j = np.array(doc["leq"]).T
            rel[i, j] = True
            L = io.load_lattice(path)
            peak, held = traced_load(path, n)
            out[name] = {
                "n": n,
                "pairs": len(doc["leq"]),
                "load_lattice": timed(lambda: io.load_lattice(path), args.repeats),
                "transitive_closure": timed(lambda: io.transitive_closure(rel), args.repeats),
                "bound_tables": timed(lambda: _kernels.bound_tables(L.leq, L.ortho),
                                      args.repeats),
                "finite_oml": timed(lambda: FiniteOML(L.names, L.leq, L.ortho), args.repeats),
                "verify_structure": timed(lambda: verify_structure(L), args.repeats),
                "cover_pairs": timed(L.cover_pairs, args.repeats),
                "quasipoints": timed(lambda: stone.quasipoints(L), args.repeats),
                "enumerate_dual_ideals": timed(lambda: stone.enumerate_dual_ideals(L),
                                               args.repeats),
                "load_peak_bytes_per_pair": peak,
                "held_bytes_per_pair": held,
                "verify_peak_bytes_per_pair": traced_verify(L),
                **paths(L),
            }
        for n in (1024, 2048, 4096):
            C = chain(n)
            for name, back in (("top", (n - 1, n - 2)), ("bottom", (n - 1, 0))):
                path = Path(tmp) / f"cyclic{n}{name}.json"
                relabeled_file(C, rng, path, [back])
                out[f"cyclic chain{n} {name}"] = {
                    "n": n, "pairs": n, "refusal": timed(lambda: refusal(path), args.repeats),
                    "message": refusal(path)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
