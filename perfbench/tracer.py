"""Outside-in tracing of the stonespec layers.

The program under test is not changed: the tracer replaces the public
functions of each ``stonespec`` module with timing wrappers, and rebinds
every alias a ``from`` import made of them (``matrix.boolean_lattice``,
``verify.observable_fn``, ``cli.reconstruct_fn``, the suite registry in
``verify`` ...), so calls through an alias are recorded too.  Spans stay
in memory, carrying the operation id and the parent span, and are written
out when the run ends.

A span's self time is its duration minus the durations of its direct
children; a module's figures are the sums over its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import FunctionType

LAYERS = ("lattice", "_kernels", "corpus", "io", "stone", "spectral", "recon",
          "matrix", "gelfand", "verify", "cli")

# Per-element helpers called hundreds of thousands of times per gate pass:
# a span each would cost more than the work it measures.
SKIP = frozenset({"matrix.normalize_ray", "matrix.random_ray"})

# Methods traced besides the module-level functions: lattice construction,
# and the Boolean algebra build behind every diagonal algebra.
METHODS = (("lattice", "FiniteOML", "__init__", "lattice.FiniteOML"),
           ("gelfand", "DiagonalAlgebra", "of_dimension", "gelfand.DiagonalAlgebra.of_dimension"))

CORPUS_BUILDERS = ("corpus.boolean_lattice", "corpus.mo", "corpus.benzene", "corpus.chain2")
CUBIC_KERNELS = ("kernels.bound_tables", "kernels.distributivity_witness")
RAY_CALLS = ("matrix.ray_obs", "matrix.mirrored_ray", "matrix.expectation")


def layer_module(name: str):
    """The module object of a layer.  ``stonespec.corpus`` as an attribute is
    the ``corpus()`` function re-exported by the package, so modules are
    looked up by their import name."""
    return importlib.import_module(f"stonespec.{name}")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, op, name, t0, t1)
        self.op_id = -1
        self.names: list[str] = []     # every traced function
        self.cells = 0                 # sum of n^3 over the cubic kernels
        self.elements_built = 0        # elements of lattices the corpus built
        self.family_atoms = 0          # sum of m over spectral_family_of
        self.family_elements = 0       # sum of 2^m built for them
        self.eig_inputs: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def begin_op(self, op_id: int) -> None:
        """Spans opened from now on belong to operation op_id."""
        self.op_id = op_id

    # -- wrapping -------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        if name in CUBIC_KERNELS:
            self.cells += int(args[0].shape[0]) ** 3
        elif name in CORPUS_BUILDERS:
            self.elements_built += result.n
        elif name == "matrix.spectral_family_of":
            self.family_atoms += result.k
            self.family_elements += result.lattice.n
        elif name == "matrix.eig":
            self.eig_inputs.append(args[0])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter
        observed = name in CUBIC_KERNELS + CORPUS_BUILDERS or name in (
            "matrix.spectral_family_of", "matrix.eig")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op_id, name, t0, t1)
            if observed:
                self._observe(name, args, result)
            return result

        self.names.append(name)
        return traced

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> "Tracer":
        import click

        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = layer_module(layer)
            for attr, val in list(vars(mod).items()):
                name = f"{layer.lstrip('_')}.{attr}"  # metric names start with a letter
                if (isinstance(val, FunctionType) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP
                        and not inspect.isgeneratorfunction(val)):
                    wrappers[id(val)] = (val, self.wrap(name, val))
        # every alias, in every stonespec module and in its dict-valued
        # globals (the suite registry holds the suite functions directly)
        for modname, mod in list(sys.modules.items()):
            if modname != "stonespec" and not modname.startswith("stonespec."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
                elif isinstance(val, dict) and attr.isupper():
                    for key, item in list(val.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(val, key, hit[1])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(layer_module(layer), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._set(cls, meth, self.wrap(name, raw))
        cli = layer_module("cli")
        for attr, val in list(vars(cli).items()):
            if isinstance(val, click.Command) and val.callback is not None:
                self._undo.append((val, "callback", val.callback))
                val.callback = self.wrap(f"cli.{attr}", val.callback)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results -------------------------------------------------------

    def functions(self) -> dict[str, dict]:
        """calls, self_s and incl_s per traced function."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for sid, _, _, name, t0, t1 in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - covered[sid]
            row["incl_s"] += t1 - t0
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _, parent, _, _, t0, t1 in self.spans if parent < 0)

    def oracle_share(self) -> float:
        """Share of the stone layer's outermost time spent in the subset oracle."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        stone_top = oracle = 0.0
        for _, parent, _, name, t0, t1 in self.spans:
            if name.startswith("stone."):
                if parent < 0 or not names[parent].startswith("stone."):
                    stone_top += t1 - t0
                if name == "stone.brute_force_dual_ideals":
                    oracle += t1 - t0
        return oracle / stone_top if stone_top else 0.0

    def eigh_seconds(self) -> float:
        """np.linalg.eigh timed by the benchmark on every input eig received."""
        import numpy as np

        total = 0.0
        for a in self.eig_inputs:
            h = np.asarray(a, dtype=np.complex128)
            t0 = perf_counter()
            np.linalg.eigh(h)
            total += perf_counter() - t0
        return total

    def export(self) -> dict:
        """Spans and counters, for a parent process to merge."""
        return {"spans": self.spans, "eigh_s": self.eigh_seconds(),
                **{k: getattr(self, k) for k in COUNTERS}}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


COUNTERS = ("cells", "elements_built", "family_atoms", "family_elements")


def merge(exports: list[dict]) -> tuple[Tracer, float]:
    """One tracer holding the spans and counters of several processes, with
    span ids renumbered; and the summed eigh reference time."""
    t = Tracer()
    eigh_s = 0.0
    for ex in exports:
        base = len(t.spans)
        for sid, parent, op, name, t0, t1 in ex["spans"]:
            t.spans.append((sid + base, parent + base if parent >= 0 else -1, op, name, t0, t1))
        for k in COUNTERS:
            setattr(t, k, getattr(t, k) + ex[k])
        eigh_s += ex["eigh_s"]
    return t, eigh_s


def traceable_names() -> list[str]:
    """Every function the tracer wraps."""
    t = Tracer().install()
    t.uninstall()
    return t.names


def function_figures(t: Tracer, names: list[str]) -> dict[str, float]:
    """calls and self_s of every traced function and every module, 0 where
    nothing ran."""
    fns = t.functions()
    out: dict[str, float] = defaultdict(float)
    for name in names:
        row = fns.get(name, {"calls": 0, "self_s": 0.0})
        module = name.split(".")[0]
        for kind in ("calls", "self_s"):
            out[f"{name}.{kind}"] = float(row[kind])
            out[f"{module}.{kind}"] += float(row[kind])
    return dict(out)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den if den else 0.0
