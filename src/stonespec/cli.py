"""Command-line entry point.

Exit codes: 0 on success, 1 on a mathematical validation failure (with the
witness printed), 2 on schema or input errors, so CI can gate on theorem
suites.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import io as sio
from . import spectral as spectral_mod
from . import stone as stone_mod
from .errors import LatticeError, SchemaError
from .lattice import verify_structure
from .recon import reconstruct as reconstruct_fn

EXIT_MATH = 1
EXIT_SCHEMA = 2
# largest n of the default `matrix rays` sweep, whose n^2 + 2n rows cost O(n) each:
# n = 1024 takes about 33 s and writes 70 MB on a 2-core x86_64 VM
SWEEP_CAP = 1024


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _load_lattice(path):
    try:
        return sio.load_lattice(path)
    except LatticeError as exc:
        _fail(EXIT_MATH, f"lattice error: {exc}")


class _Main(click.Group):
    """The command group; an input file that breaks its schema, and running out
    of memory, exit 2 instead of a traceback.  Inputs whose size is known up
    front are refused by their caps before the memory backstop is reached."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SchemaError as exc:
            _fail(EXIT_SCHEMA, f"schema error: {exc}")
        except MemoryError as exc:
            _fail(EXIT_SCHEMA, f"input error: out of memory ({exc or 'no details'})")


@click.group(cls=_Main)
def main():
    """Finite orthomodular lattices, Stone spectra and observable functions."""


@main.command()
@click.option("--lattice", "lattice_file", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def check(lattice_file, fmt):
    """Verify the structure of a lattice file; exit 0 iff it is an
    orthomodular lattice."""
    L = _load_lattice(lattice_file)
    rep = verify_structure(L)
    if fmt == "json":
        click.echo(json.dumps(rep.to_dict(), indent=2))
    else:
        for key in (
            "is_lattice",
            "is_ortho_complemented",
            "is_orthomodular",
            "is_distributive",
            "is_boolean",
            "is_atomistic",
        ):
            value = getattr(rep, key)
            line = f"{key.removeprefix('is_').replace('_', ' ')}: {str(value).lower()}"
            witness = rep.witnesses.get(key)
            if witness is not None:
                line += f"  (witness: {', '.join(L.names[i] for i in witness)})"
            click.echo(line)
    sys.exit(0 if rep.is_orthomodular_lattice else EXIT_MATH)


@main.command()
@click.option("--lattice", "lattice_file", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def quasipoints(lattice_file, fmt):
    """List the quasipoints (and all dual ideals) of a lattice."""
    L = _load_lattice(lattice_file)
    try:
        points = stone_mod.quasipoints(L)
        ideals = stone_mod.enumerate_dual_ideals(L)
    except LatticeError as exc:
        _fail(EXIT_MATH, f"lattice error: {exc}")
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "quasipoints": [sorted(int(x) for x in q.members()) for q in points],
                    "dual_ideals": [sorted(int(x) for x in i.members()) for i in ideals],
                },
                indent=2,
            )
        )
    else:
        click.echo(f"{len(points)} quasipoints:")
        for qp in points:
            names = sorted(L.names[int(x)] for x in qp.members())
            click.echo(f"  H({L.names[qp.generator]}) = {{{', '.join(names)}}}")
        click.echo(f"{len(ideals)} dual ideals:")
        for ideal in ideals:
            names = sorted(L.names[int(x)] for x in ideal.members())
            click.echo(f"  H({L.names[ideal.generator]}) = {{{', '.join(names)}}}")


@main.command()
@click.option("--lattice", "lattice_file", required=True, type=click.Path(exists=True))
@click.option("--family", "family_file", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def obsfn(lattice_file, family_file, fmt):
    """Print the observable table of a spectral family."""
    L = _load_lattice(lattice_file)
    try:
        E = sio.load_family(family_file, L)
    except LatticeError as exc:
        _fail(EXIT_MATH, f"family error: {exc}")
    table = spectral_mod.observable_fn(E)
    if fmt == "json":
        click.echo(json.dumps(sio.table_to_dict(table), indent=2))
    elif fmt == "csv":
        click.echo(sio.family_csv(E), nl=False)
    else:
        for p in L.nonzero():
            click.echo(f"f(H({L.names[int(p)]})) = {float(table.values[p]):g}")


@main.command()
@click.option("--lattice", "lattice_file", required=True, type=click.Path(exists=True))
@click.option("--fn", "fn_file", required=True, type=click.Path(exists=True))
@click.option("--out", "out_file", type=click.Path(), default=None)
def reconstruct(lattice_file, fn_file, out_file):
    """Rebuild the spectral family of an observable table."""
    L = _load_lattice(lattice_file)
    try:
        table = sio.load_table(fn_file, L)
        E = reconstruct_fn(L, table)
    except LatticeError as exc:
        _fail(EXIT_MATH, f"validation error: {exc}")
    payload = json.dumps(sio.family_to_dict(E), indent=2)
    if out_file:
        from pathlib import Path

        Path(out_file).write_text(payload + "\n")
        click.echo(f"wrote {out_file}")
    else:
        click.echo(payload)


@main.group()
def matrix():
    """Operations on Hermitian matrix files."""


def _eig_of(A):
    """Exit 1 unless eig finds the matrix Hermitian and its decomposition checks
    out, 2 if the decomposition overflows or its tolerances underflow."""
    from . import matrix as matrix_mod
    try:
        return matrix_mod.eig(A)
    except matrix_mod.NotHermitianError:
        _fail(EXIT_MATH, "matrix is not Hermitian")
    except matrix_mod.EigenError as exc:
        _fail(EXIT_MATH, f"eigendecomposition error: {exc}")
    except ValueError as exc:
        _fail(EXIT_SCHEMA, f"input error: {exc}")


def _over_lattice(fn, d, *args):
    from . import matrix as matrix_mod
    try:
        return fn(d, *args)
    except matrix_mod.CostCapError as exc:
        _fail(EXIT_SCHEMA, f"input error: {exc}")
    except ValueError as exc:  # the Boolean lattice over d.m atoms is past its cap
        _fail(EXIT_SCHEMA, f"input error: {d.m} distinct eigenvalues; {exc}")


@matrix.command()
@click.option("--matrix", "matrix_file", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def spectral(matrix_file, fmt):
    """Spectral family of a Hermitian matrix over its generated lattice."""
    from . import matrix as matrix_mod
    E = _over_lattice(matrix_mod.spectral_family_of, _eig_of(sio.load_matrix(matrix_file)))
    if fmt == "json":
        click.echo(json.dumps(sio.family_to_dict(E), indent=2))
    elif fmt == "csv":
        click.echo(sio.family_csv(E), nl=False)
    else:
        L = E.lattice
        for lam, v in E.jumps():
            click.echo(f"E({lam:g}) = {L.names[v]}")


def _sweep(n: int, seed: int):
    """The default probes in output order, as (labels, rays) blocks of at most
    matrix.ray_block_size(n) rays for ray_table: the unit probes, then 2n random
    rays drawn from the seed, as columns."""
    from . import matrix as matrix_mod
    size = matrix_mod.ray_block_size(n)
    yield from matrix_mod.unit_probes(n, size)
    rng = np.random.default_rng(seed)
    for start in range(0, 2 * n, size):
        k = min(size, 2 * n - start)
        yield [f"r{start + q}" for q in range(k)], matrix_mod.random_rays(n, k, rng).T


@matrix.command()
@click.option("--matrix", "matrix_file", required=True, type=click.Path(exists=True))
@click.option("--ray", "ray_file", type=click.Path(exists=True), default=None,
              help="evaluate a single ray file instead of the probe sweep")
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="csv")
def rays(matrix_file, ray_file, seed, fmt):
    """Ray table (observable, mirrored, expectation) on a probe set.

    The sweep evaluates the n^2 unit probes in O(n) each, from two rows of the
    eigenbasis and a 2 x 2 block of the matrix, and 2n random rays as dense
    blocks: O(n^3) in all.  Past n = SWEEP_CAP it is refused (exit 2) before the
    eigendecomposition.  Rows are written one block of probes at a time."""
    from . import matrix as matrix_mod
    A = sio.load_matrix(matrix_file)
    n = A.shape[0]
    if ray_file is None and n > SWEEP_CAP:
        _fail(EXIT_SCHEMA, f"input error: the probe sweep at n = {n} writes {n * n + 2 * n} "
              f"rows, past the cap of n = {SWEEP_CAP}; evaluate single rays with --ray")
    d = _eig_of(A)
    if ray_file is None:
        blocks = _sweep(n, seed)
    else:
        x = sio.load_ray(ray_file)
        if len(x) != n:
            _fail(EXIT_SCHEMA, f"ray has {len(x)} entries, matrix has {n}")
        blocks = [(["ray"], x[:, None])]
    out = sio.RaysCsv(d.values)
    for b, (labels, block) in enumerate(blocks):
        try:
            t = matrix_mod.ray_table(d, block)
        except ValueError as exc:  # a zero ray, or one whose norm overflows
            _fail(EXIT_SCHEMA, f"input error: {exc}")
        hits = int(np.count_nonzero(t.band))
        if hits:
            click.echo(f"warning: {hits} of {len(labels)} rays from {labels[0]} to "
                       f"{labels[-1]} have a component within the tolerance band; "
                       "their support decisions are ill-conditioned", err=True)
        if fmt == "csv":
            click.echo(out.block(labels, t.f, t.g, t.expectation, header=b == 0), nl=False)
        else:
            table = zip(labels, t.f.tolist(), t.g.tolist(), t.expectation.tolist())
            click.echo("\n".join(f"{label}: f={fv:g} g={gv:g} <Ax,x>={ev:g}"
                                  for label, fv, gv, ev in table))


@matrix.command()
@click.option("--matrix", "matrix_file", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
def gelfand(matrix_file, fmt):
    """Gelfand transform of a (diagonalizable) matrix."""
    from . import gelfand as gelfand_mod
    A = sio.load_matrix(matrix_file)
    try:
        U, entries = gelfand_mod.diagonalize(A)
    except LatticeError as exc:
        _fail(EXIT_MATH, f"not diagonalizable in an abelian algebra: {exc}")
    except ValueError as exc:
        _fail(EXIT_SCHEMA, f"input error: {exc}")
    alg = gelfand_mod.DiagonalAlgebra.of_dimension(len(entries))
    transform = gelfand_mod.gelfand_transform(alg, entries)
    labels = [f"e{i + 1}" for i in range(alg.n)]
    if fmt == "csv":
        click.echo(sio.transform_csv(labels, transform), nl=False)
    else:
        for label, v in zip(labels, transform):
            click.echo(f"F(A)({label}) = {v.real:g}{v.imag:+g}i")


@matrix.command()
@click.option("--matrix", "matrix_file", required=True, type=click.Path(exists=True))
@click.option("--eps", type=float, required=True)
def approx(matrix_file, eps):
    """Step-operator approximation report at mesh eps."""
    from . import matrix as matrix_mod
    if not 0 < eps < np.inf:
        _fail(EXIT_SCHEMA, "eps must be positive and finite")
    d = _eig_of(sio.load_matrix(matrix_file))
    _, rep = _over_lattice(matrix_mod.step_approx, d, eps)
    click.echo(f"eps: {rep.eps:g}")
    click.echo(f"observable distance: {rep.f_distance!r}")
    click.echo(f"operator distance: {rep.op_distance!r}")
    click.echo(f"closed form: {'ok' if rep.closed_form_ok else 'FAIL'}")
    sys.exit(0 if rep.passed else EXIT_MATH)


@main.command()
@click.option(
    "--suite",
    "suites",
    multiple=True,
    # verify.SUITES in its order, spelled out so that only `verify` imports verify
    type=click.Choice(["lattice", "stone", "spectral", "recon", "matrix", "gelfand", "all"]),
    default=("all",),
    show_default=True,
)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def verify(suites, seed, fmt):
    """Run the verification corpus; exit 0 iff every check passes."""
    from . import verify as verify_mod
    checks = verify_mod.run_suites(list(suites), seed)
    if fmt == "json":
        click.echo(verify_mod.render_json(checks), nl=False)
    elif fmt == "csv":
        click.echo(verify_mod.render_csv(checks), nl=False)
    else:
        click.echo(verify_mod.render_text(checks), nl=False)
    sys.exit(0 if all(c.passed for c in checks) else EXIT_MATH)


if __name__ == "__main__":
    main()
