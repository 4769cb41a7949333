"""The four workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs a
*pass*: a fixed list of operations, each timed and checked on its own.
The timed phase repeats whole passes.

* ``gate``: ``verify.run_suites(["all"])`` then ``verify.acceptance``, what
  CI and users run; one operation is one check.  BENCHMARK.json leaves it
  out: the median check's time moves by a quarter from one seed to the
  next, so no bound the benchmark may set holds it.  It runs by name.
* ``lattice-sweep``: lattice files over growing sizes and three structural
  kinds, through loading, structural checks, the Stone enumerations and
  the table operations; the O(n^3) order kernels dominate.
* ``matrix-sweep``: Hermitian matrices with n and the number m of distinct
  eigenvalues set independently, through ``eig``, ray values, the lattice
  bridge and step approximation, plus the Gelfand chain on diagonals.
* ``cli``: single CLI calls in a closed loop, each timed from process start.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import (ProductLattice, degenerate_spectrum, hermitian_with_spectrum,
                    lattice_sweep_points, mo_factor, point, random_rays, random_spectrum,
                    reference)
from record import Op, Recorder, Wrong
from tracer import RAY_CALLS, slope

ROOT = Path(__file__).resolve().parents[1]
UNSIGNED = r"(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)"
COMPLEX = re.compile(rf"([-+]?{UNSIGNED})([-+]{UNSIGNED})i")  # how the CLI prints re+im i


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def warm_up() -> None:
    """Touch every in-process layer once on tiny inputs, so the timed phase
    pays no first-call costs."""
    from stonespec import gelfand, lattice, matrix, recon, spectral, stone
    from stonespec.corpus import mo

    L = mo(2)
    lattice.verify_structure(L)
    stone.quasipoints(L)
    E = spectral.make_spectral_family(L, [(0.0, 1), (1.0, L.top)])
    recon.reconstruct(L, spectral.observable_fn(E))
    d = matrix.eig(np.diag([1.0, 2.0, 3.0]))
    matrix.ray_obs(d, np.ones(3))
    gelfand.DiagonalAlgebra.of_dimension(3)


def close_to(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.abs(got - want).max(initial=0.0))
    expect(err <= tol, f"{what}: error {err:.3g} > {tol:.3g}")


def span_seconds(tracer, ops, name: str, tag: str) -> tuple[float, int]:
    """Inclusive seconds and calls of a traced function inside the
    operations on one input (operation names end in ``:<tag>``)."""
    total, calls = 0.0, 0
    for _, _, op, fn, t0, t1 in tracer.spans:
        if fn == name and 0 <= op < len(ops) and ops[op].name.endswith(f":{tag}"):
            total += t1 - t0
            calls += 1
    return total, calls


class Workload:
    name = ""
    seed = 0

    def layer_extras(self, ops: list[Op]) -> dict:
        """Per-layer figures the workload derives from its own operations."""
        return {}

    def baseline(self, tracer, ops: list[Op]) -> dict:
        """Per-size rows of the ROADMAP baseline table, from a traced pass."""
        return {}


# ---------------------------------------------------------------------------


class Gate(Workload):
    """The verification gate.  Checks are built inside the suites, so the
    benchmark stamps the clock each time ``verify`` builds a ``Check`` (by
    swapping the class's ``__init__`` for the duration of a pass); a check's
    latency is the time since the previous stamp.  Its digest is its report
    line, so the verify text must be identical in every pass."""

    name = "gate"

    def setup(self, seed: int, work: Path) -> None:
        from stonespec import verify

        self.verify, self.seed = verify, seed
        warm_up()

    def run_pass(self, rec: Recorder) -> None:
        verify = self.verify
        made: dict[int, float] = {}
        init = verify.Check.__init__

        def stamped(check, *args, **kwargs):
            init(check, *args, **kwargs)
            made[id(check)] = perf_counter()
            rec.begin(len(made))

        rec.begin()
        verify.Check.__init__ = stamped
        t0 = perf_counter()
        try:
            checks = verify.run_suites(["all"], self.seed) + verify.acceptance(self.seed)
        except Exception as exc:  # a crash in the suites fails the pass, not the run
            rec.add(Op("verify", perf_counter() - t0, "error", "", f"{type(exc).__name__}: {exc}"))
            return
        finally:
            verify.Check.__init__ = init
        stamps = sorted(made.values())
        prev = {t: (stamps[i - 1] if i else t0) for i, t in enumerate(stamps)}
        for c in checks:
            t = made.get(id(c))
            if t is None:
                rec.add(Op(c.name, 0.0, "error", "", "check not built by verify.Check"))
            else:
                rec.add(Op(c.name, t - prev[t], "ok" if c.passed else "wrong", c.line(),
                           "" if c.passed else c.line()))

    def layer_extras(self, ops: list[Op]) -> dict:
        return {"verify.checks_failed": float(sum(op.status != "ok" for op in ops))}


# ---------------------------------------------------------------------------


class LatticeSweep(Workload):
    """Lattice files whose ``leq`` lists covering pairs only, so loading
    applies the closure.  Boolean points are distributive and scan every
    triple; MO and 2^m x MO2 are orthomodular but not distributive, and
    2^m x O6 is not orthomodular: those exit the scans early."""

    name = "lattice-sweep"
    families = 6  # table operations take about a third of a pass

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.points = []
        for p in lattice_sweep_points():
            path = work / f"{p.label}.json"
            p.write(path)
            fams = [p.random_family(rng) for _ in range(self.families)]
            tables = [(p.observable_table(j), p.mirrored_table(j)) for j in fams]
            nz = np.array([i for i in range(p.n) if i != p.bottom])
            self.points.append((p, path, fams, tables, nz))
        warm_up()

    def run_pass(self, rec: Recorder) -> None:
        from stonespec import io, lattice, recon, spectral, stone

        for p, path, fams, tables, nz in self.points:
            tag = p.label

            def loaded(L, p=p):
                expect(L.n == p.n and bool((L.leq == p.leq).all()), "order differs")
                expect(bool((L.ortho == p.ortho).all()), "orthocomplement differs")
                return L.n

            L = rec.op(f"load_lattice:{tag}", lambda: io.load_lattice(path), loaded)
            rec.op(f"verify_structure:{tag}", lambda: lattice.verify_structure(L),
                   lambda rep, p=p: self._verdicts(p, rep))

            def atoms(points, p=p):
                gens = tuple(sorted(q.generator for q in points))
                expect(gens == p.atoms, f"quasipoints at {gens}, atoms are {p.atoms}")
                return gens

            rec.op(f"quasipoints:{tag}", lambda: stone.quasipoints(L), atoms)

            def ideals(found, nz=nz):
                gens = [i.generator for i in found]
                expect(gens == nz.tolist(), "dual ideals are not the nonzero filters")
                return len(gens)

            rec.op(f"enumerate_dual_ideals:{tag}", lambda: stone.enumerate_dual_ideals(L), ideals)
            for jumps, (f_want, g_want) in zip(fams, tables):
                def same_jumps(E, jumps=jumps):
                    expect(E.jumps() == jumps, f"jumps {E.jumps()} != {jumps}")
                    return repr(jumps)

                def table(t, want=None, nz=nz):
                    expect(bool((t.values[nz] == want[nz]).all()), "table values differ")
                    return digest(t.values[nz])

                E = rec.op(f"make_spectral_family:{tag}",
                           lambda: spectral.make_spectral_family(L, jumps), same_jumps)
                f = rec.op(f"observable_fn:{tag}", lambda: spectral.observable_fn(E),
                           lambda t, w=f_want: table(t, w))
                rec.op(f"mirrored_fn:{tag}", lambda: spectral.mirrored_fn(E),
                       lambda t, w=g_want: table(t, w))
                rec.op(f"reconstruct:{tag}", lambda: recon.reconstruct(L, f), same_jumps)
                rec.op(f"f_from_r:{tag}", lambda: recon.f_from_r(L, f),
                       lambda t, w=f_want: table(t, w))

    @staticmethod
    def _verdicts(p: ProductLattice, rep) -> str:
        """Verdicts from the family's closed form; every witness is checked
        against its law on the benchmark's own order."""
        expect(rep.is_lattice and rep.is_ortho_complemented, "not an ortholattice")
        for key, want in (("is_orthomodular", p.orthomodular),
                          ("is_distributive", p.distributive),
                          ("is_boolean", p.distributive),
                          ("is_atomistic", p.atomistic)):
            expect(getattr(rep, key) == want, f"{key} is {getattr(rep, key)}, expected {want}")
        laws = {"is_orthomodular": p.orthomodularity_fails,
                "is_distributive": p.distributivity_fails,
                "is_atomistic": p.atomistic_fails}
        for key, fails in laws.items():
            wit = rep.witnesses.get(key)
            expect((wit is None) == bool(getattr(rep, key)), f"{key}: witness {wit}")
            if wit is not None:
                expect(fails(*wit), f"{key}: witness {wit} satisfies the law")
        return repr(rep.to_dict())

    def layer_extras(self, ops: list[Op]) -> dict:
        """Log-log slope of verify_structure time against n on the Boolean points."""
        times: dict[int, list[float]] = {}
        for op in ops:
            kind, _, tag = op.name.partition(":")
            if kind == "verify_structure" and tag in ("B6", "B7", "B8", "B9"):
                times.setdefault(1 << int(tag[1:]), []).append(op.seconds)
        if len(times) < 2:
            return {"lattice.scaling_exp": 0.0}
        ns = sorted(times)
        return {"lattice.scaling_exp": slope(ns, [float(np.median(times[n])) for n in ns])}

    def baseline(self, tracer, ops: list[Op]) -> dict:
        """Table building and the law scans at 2^9 and MO256."""
        return {f"{fn}_s@{tag}": span_seconds(tracer, ops, fn, tag)[0]
                for fn in ("kernels.bound_tables", "kernels.distributivity_witness",
                           "io.transitive_closure", "lattice.verify_structure")
                for tag in ("B9", "MO256")}


# ---------------------------------------------------------------------------


class MatrixSweep(Workload):
    """Random spectra with m = n distinct eigenvalues, and degenerate spectra
    with m = 8 at larger n, so the eig cost and the 2^m lattice cost move
    apart.  The lattice bridge is also attempted at one point with m > 16,
    where ``corpus.boolean_lattice`` raises ValueError today: those
    operations count as failed, as the known defect."""

    name = "matrix-sweep"
    random_n = (32, 64, 96, 128)
    bridge_random_n = 32
    degenerate = ((128, 8), (256, 8), (512, 8))
    gelfand_n = (4, 6, 8, 9)
    # enough ray calls that the p95 operation is a ray call at n = 128, not
    # one of the few large operations above them
    rays = 24
    eps = 0.25  # below half the smallest gap of the degenerate levels

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.points = []
        specs = [(n, random_spectrum(n, rng)) for n in self.random_n]
        specs += [(n, degenerate_spectrum(n, m, rng)) for n, m in self.degenerate]
        for n, spec in specs:
            a = hermitian_with_spectrum(spec, rng)
            ref = reference(a)
            x = random_rays(n, self.rays, rng)
            # one ray in the conditioning band: a 1e-8 component in a second
            # spectral subspace, far above the 1e-9 support tolerance
            i, j = rng.choice(len(ref.clusters), size=2, replace=False)
            band = ref.vectors[:, ref.clusters[i][0]] + 1e-8 * ref.vectors[:, ref.clusters[j][0]]
            rays = [x[:, k] for k in range(self.rays)] + [band]
            want = [ref.ray_values(r) for r in rays]
            bridge = len(ref.values) <= 16 or n == self.bridge_random_n
            self.points.append((f"n{n}m{len(ref.values)}", a, ref, rays, want, bridge))
        self.diagonals = []
        for n in self.gelfand_n:
            entries = rng.permutation(random_spectrum(n, rng))
            self.diagonals.append((n, np.diag(entries), np.sort(entries)))
        warm_up()

    def run_pass(self, rec: Recorder) -> None:
        from stonespec import gelfand, matrix

        for tag, a, ref, rays, want, bridge in self.points:
            tol = 1e-9 * ref.scale

            def spectrum(d, ref=ref, tol=tol):
                close_to(d.values, ref.values, tol, "clustered eigenvalues")
                return digest(d.values)

            def ray_value(v, want=None, tol=tol):
                close_to(v, want, tol, "ray value")
                return repr(v)

            d = rec.op(f"eig:{tag}", lambda: matrix.eig(a), spectrum)
            for x, values in zip(rays, want):
                for call, value in zip((matrix.ray_obs, matrix.mirrored_ray,
                                        matrix.expectation), values):
                    rec.op(f"{call.__name__}:{tag}", lambda: call(d, x),
                           lambda v, value=value: ray_value(v, value))
            if not bridge:
                continue
            defect = ValueError if len(ref.values) > 16 else None

            def family(E, ref=ref, tol=tol):
                close_to(E.thresholds, ref.values, tol, "family thresholds")
                expect(E.k == len(ref.values), "one jump per eigenvalue")
                return digest(E.thresholds, E.values)

            def stepped(out, tol=tol):
                _, rep = out
                expect(rep.passed and rep.closed_form_ok, f"step approximation failed: {rep}")
                return repr((rep.f_distance, rep.op_distance))

            rec.op(f"spectral_family_of:{tag}", lambda: matrix.spectral_family_of(d), family,
                   known_defect=defect)
            rec.op(f"step_approx:{tag}", lambda: matrix.step_approx(d, self.eps), stepped,
                   known_defect=defect)
        for n, a, want in self.diagonals:
            tag = f"n{n}"

            def diagonal(out, want=want):
                close_to(np.real(out[1]), want, 1e-12, "diagonal entries")
                return digest(out[1])

            def dimension(alg, n=n):
                expect(alg.n == n, f"dimension {alg.n}, expected {n}")
                return alg.n

            def transform(t, want=want):
                close_to(np.real(t), want, 1e-12, "transform")
                expect(float(np.abs(np.imag(t)).max()) == 0.0, "complex transform")
                return digest(t)

            def identity(rep):
                expect(rep.passed, f"identity fails: {rep}")
                return repr(rep)

            out = rec.op(f"diagonalize:{tag}", lambda: gelfand.diagonalize(a), diagonal)
            alg = rec.op(f"of_dimension:{tag}", lambda: gelfand.DiagonalAlgebra.of_dimension(n),
                         dimension)
            entries = None if out is None else out[1]
            rec.op(f"gelfand_transform:{tag}", lambda: gelfand.gelfand_transform(alg, entries),
                   transform)
            rec.op(f"verify_gelfand_identity:{tag}",
                   lambda: gelfand.verify_gelfand_identity(alg, entries), identity)

    def baseline(self, tracer, ops: list[Op]) -> dict:
        """eig against raw eigh at the largest random n, microseconds per ray
        call there, and the dense Boolean build at the largest m."""
        n = max(self.random_n)
        tag, a = next((t, a) for t, a, *_ in self.points if t == f"n{n}m{n}")
        eigh = []
        for _ in range(3):
            t0 = perf_counter()
            np.linalg.eigh(a)
            eigh.append(perf_counter() - t0)
        ray = [span_seconds(tracer, ops, c, tag) for c in RAY_CALLS]
        m = max(self.gelfand_n)
        return {
            f"matrix.eig_s@{tag}": span_seconds(tracer, ops, "matrix.eig", tag)[0],
            f"numpy.linalg.eigh_s@{tag}": min(eigh),
            f"matrix.ray_call_us@{tag}": 1e6 * sum(s for s, _ in ray)
            / max(1, sum(c for _, c in ray)),
            f"corpus.boolean_lattice_s@m{m}": span_seconds(tracer, ops, "corpus.boolean_lattice",
                                                           f"n{m}")[0],
        }


# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """One CLI call at a time, each a fresh interpreter timed from process
    start, over corpus-sized files.  Output is checked against the files'
    closed forms; its digest is the stdout bytes."""

    name = "cli"
    eps = 0.25

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.work, self.seed, self.env = work, seed, cli_env()
        self.spans_dir = None
        self.calls: list[tuple] = []  # (command, args, check)
        # 41 calls a pass, so the p75 call has ten beyond it
        for p in (ProductLattice("B2", 2, point()), ProductLattice("B3", 3, point()),
                  ProductLattice("B4", 4, point()), ProductLattice("MO2", 0, mo_factor(2)),
                  ProductLattice("MO3", 0, mo_factor(3)), ProductLattice("B1xMO2", 1, mo_factor(2)),
                  ProductLattice("B2xMO2", 2, mo_factor(2))):
            self._lattice_calls(p, rng)
        for tag, spec in (("h4", random_spectrum(4, rng)), ("h5", random_spectrum(5, rng)),
                          ("h6", degenerate_spectrum(6, 3, rng))):
            self._matrix_calls(tag, hermitian_with_spectrum(spec, rng))
        self.calls.append(("verify", ["verify", "--suite", "lattice", "--suite", "stone",
                                      "--seed", str(seed)], self._verify_ok))
        self._call(["check", "--lattice", str(work / "B2.json")])  # warm the file cache

    def _lattice_calls(self, p: ProductLattice, rng) -> None:
        names = p.names()
        path = self.work / f"{p.label}.json"
        p.write(path)
        jumps = p.random_family(rng)
        f = p.observable_table(jumps)
        fam = self.work / f"{p.label}-family.json"
        fam.write_text(json.dumps({"jumps": [{"lambda": t, "element": v} for t, v in jumps]}))
        nz = [i for i in range(p.n) if i != p.bottom]
        table = self.work / f"{p.label}-table.json"
        table.write_text(json.dumps({"values": [{"element": i, "f": float(f[i])} for i in nz]}))
        out = self.work / f"{p.label}-out.json"
        verdict = {"lattice": True, "ortho complemented": True, "orthomodular": True,
                   "distributive": p.distributive, "boolean": p.distributive, "atomistic": True}
        obs_text = "".join(f"f(H({names[i]})) = {float(f[i]):g}\n" for i in nz)
        atom_names = sorted(names[t] for t in p.atoms)

        index = {name: i for i, name in enumerate(names)}

        def check_ok(stdout):
            got = {}
            for line in stdout.splitlines():
                key, value = line.split(": ", 1)
                value, _, witness = value.partition("  (witness: ")
                got[key] = value
                if witness:  # printed by name; re-checked against its law
                    wit = [index[s] for s in witness.rstrip(")").split(", ")]
                    fails = {"distributive": p.distributivity_fails,
                             "orthomodular": p.orthomodularity_fails,
                             "atomistic": p.atomistic_fails}.get(key)
                    expect(fails is not None and fails(*wit), f"{key} witness {wit}")
            expect(got == {k: str(v).lower() for k, v in verdict.items()}, f"verdicts {got}")

        def quasipoints_ok(stdout):
            lines = stdout.splitlines()
            expect(lines[0] == f"{len(p.atoms)} quasipoints:", lines[0])
            gens = sorted(line.split("H(", 1)[1].split(")", 1)[0]
                          for line in lines[1:1 + len(p.atoms)])
            expect(gens == atom_names, f"quasipoints at {gens}")
            expect(f"{p.n - 1} dual ideals:" in lines, "dual ideal count")

        def obsfn_ok(stdout):
            expect(stdout == obs_text, "observable table differs")

        def reconstruct_ok(stdout):
            expect(stdout == f"wrote {out}\n", stdout)
            got = [(j["lambda"], j["element"]) for j in json.loads(out.read_text())["jumps"]]
            out.unlink()  # the next call must write it again
            expect(got == jumps, f"round trip gives {got}")

        lat = ["--lattice", str(path)]
        self.calls += [
            ("check", ["check", *lat], check_ok),
            ("quasipoints", ["quasipoints", *lat], quasipoints_ok),
            ("obsfn", ["obsfn", *lat, "--family", str(fam)], obsfn_ok),
            ("reconstruct", ["reconstruct", *lat, "--fn", str(table), "--out", str(out)],
             reconstruct_ok),
        ]

    def _matrix_calls(self, tag: str, a: np.ndarray) -> None:
        ref = reference(a)
        n = a.shape[0]
        path = self.work / f"{tag}.json"
        path.write_text(json.dumps({"n": n, "re": a.real.tolist(), "im": a.imag.tolist()}))
        lo, hi = float(ref.values[0]), float(ref.values[-1])
        tol = 1e-9 * ref.scale

        def spectral_ok(stdout):
            lams = [float(line[2:].split(")", 1)[0]) for line in stdout.splitlines()]
            close_to(lams, ref.values, 1e-5 * ref.scale, "printed spectrum")
            expect(stdout.splitlines()[-1].endswith("= 1"), "last value is not top")

        def rays_ok(stdout):
            rows = stdout.splitlines()
            expect(rows[0] == "ray_id,f,g,expectation", rows[0])
            expect(len(rows) - 1 == n + n * (n - 1) + 2 * n, "probe count")
            eye = np.eye(n, dtype=complex)
            for row in rows[1:]:
                label, f, g, e = row.split(",")
                f, g, e = float(f), float(g), float(e)
                expect(lo - tol <= g <= e + tol and e <= f + tol <= hi + 2 * tol,
                       f"{label}: g={g} <Ax,x>={e} f={f}")
                if label.startswith("e") and "+" not in label:
                    want = ref.ray_values(eye[:, int(label[1:]) - 1])
                    close_to([f, g, e], want, tol, f"ray {label}")

        def gelfand_ok(stdout):
            parts = [COMPLEX.fullmatch(line.split(" = ", 1)[1]) for line in stdout.splitlines()]
            expect(all(parts), "unparsable transform line")
            expect(all(abs(float(m[2])) <= tol for m in parts), "complex transform")
            close_to(sorted(float(m[1]) for m in parts),
                     np.repeat(ref.values, [len(c) for c in ref.clusters]),
                     1e-5 * ref.scale, "printed transform")

        def approx_ok(stdout):
            lines = dict(line.split(": ", 1) for line in stdout.splitlines())
            expect(lines.get("closed form") == "ok", "closed form")
            expect(float(lines["observable distance"]) <= self.eps, "observable distance")
            expect(float(lines["operator distance"]) <= self.eps, "operator distance")

        mat = ["--matrix", str(path)]
        self.calls += [
            ("matrix_spectral", ["matrix", "spectral", *mat], spectral_ok),
            ("matrix_rays", ["matrix", "rays", *mat, "--seed", str(self.seed)], rays_ok),
            ("matrix_gelfand", ["matrix", "gelfand", *mat], gelfand_ok),
            ("matrix_approx", ["matrix", "approx", *mat, "--eps", str(self.eps)], approx_ok),
        ]

    @staticmethod
    def _verify_ok(stdout):
        last = stdout.splitlines()[-1]
        done, total = last.split(" ", 1)[0].split("/")
        expect(done == total, last)

    def _call(self, args: list[str], op_id: int | None = None):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "stonespec.cli", *args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "clitrace.py"),
                   str(self.spans_dir / f"op{op_id}.json"), str(op_id), *args]
        res = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                             timeout=120)
        return res.returncode, res.stdout, res.stderr

    def run_pass(self, rec: Recorder) -> None:
        for key, args, check in self.calls:
            def checked(out, key=key, args=args, check=check):
                code, stdout, stderr = out
                expect(code == 0, f"exit {code}: {stderr.strip()[-300:]}")
                check(stdout)
                # the work directory differs between processes
                return hashlib.sha256(stdout.replace(str(self.work), "").encode()).hexdigest()

            op_id = len(rec.ops)
            rec.op(key, lambda: self._call(args, op_id), checked)

    def layer_extras(self, ops: list[Op]) -> dict:
        out = {}
        for key, _, _ in self.calls:
            secs = [op.seconds for op in ops if op.name == key]
            out[f"cli.{key}.p50_ms"] = float(np.median(secs)) * 1e3
        return out


WORKLOADS = {w.name: w for w in (Gate, LatticeSweep, MatrixSweep, Cli)}
CLI_COMMANDS = ("check", "quasipoints", "obsfn", "reconstruct", "matrix_spectral",
                "matrix_rays", "matrix_gelfand", "matrix_approx", "verify")
