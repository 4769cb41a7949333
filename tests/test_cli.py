import csv
import io
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stonespec import io as sio
from stonespec import lattice
from stonespec import matrix as matrix_mod
from stonespec import stone
from stonespec.cli import SWEEP_CAP, _sweep, main
from stonespec.corpus import corpus
from stonespec.spectral import make_spectral_family, observable_fn

CORPUS = corpus()
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def b2_file(tmp_path):
    path = tmp_path / "b2.json"
    sio.save_lattice(CORPUS["B2"], path)
    return path


@pytest.fixture
def mo2_file(tmp_path):
    path = tmp_path / "mo2.json"
    sio.save_lattice(CORPUS["MO2"], path)
    return path


@pytest.fixture
def benzene_file(tmp_path):
    path = tmp_path / "benzene.json"
    sio.save_lattice(CORPUS["benzene-O6"], path)
    return path


class TestCheck:
    def test_b2_all_true(self, runner, b2_file):
        result = runner.invoke(main, ["check", "--lattice", str(b2_file)])
        assert result.exit_code == 0
        assert "distributive: true" in result.output

    def test_mo2_not_distributive_but_ok(self, runner, mo2_file):
        result = runner.invoke(main, ["check", "--lattice", str(mo2_file)])
        assert result.exit_code == 0
        assert "distributive: false" in result.output
        assert "orthomodular: true" in result.output

    def test_benzene_fails(self, runner, benzene_file):
        result = runner.invoke(main, ["check", "--lattice", str(benzene_file)])
        assert result.exit_code == 1
        assert "orthomodular: false" in result.output
        assert "witness" in result.output

    def test_malformed_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = runner.invoke(main, ["check", "--lattice", str(bad)])
        assert result.exit_code == 2

    def test_cycle_exits_1(self, runner, tmp_path):
        bad = tmp_path / "cycle.json"
        bad.write_text(
            json.dumps(
                {
                    "elements": ["0", "x", "y", "1"],
                    "leq": [[0, 1], [1, 2], [2, 1], [2, 3]],
                    "ortho": [3, 2, 1, 0],
                }
            )
        )
        result = runner.invoke(main, ["check", "--lattice", str(bad)])
        assert result.exit_code == 1

    def test_json_format(self, runner, mo2_file):
        result = runner.invoke(
            main, ["check", "--lattice", str(mo2_file), "--format", "json"]
        )
        data = json.loads(result.output)
        assert data["is_orthomodular"] and not data["is_distributive"]


class TestQuasipoints:
    def test_listing(self, runner, b2_file):
        result = runner.invoke(main, ["quasipoints", "--lattice", str(b2_file)])
        assert result.exit_code == 0
        assert "2 quasipoints" in result.output
        assert "H(p) = {1, p}" in result.output

    def test_json(self, runner, mo2_file):
        result = runner.invoke(
            main, ["quasipoints", "--lattice", str(mo2_file), "--format", "json"]
        )
        data = json.loads(result.output)
        assert len(data["quasipoints"]) == 4
        assert len(data["dual_ideals"]) == 5


class TestObsfnAndReconstruct:
    def test_projection_pattern(self, runner, b2_file, tmp_path):
        B2 = CORPUS["B2"]
        fam = tmp_path / "fam.json"
        sio.save_family(
            make_spectral_family(B2, [(0.0, B2.index("p")), (1.0, B2.top)]), fam
        )
        result = runner.invoke(
            main, ["obsfn", "--lattice", str(b2_file), "--family", str(fam)]
        )
        assert result.exit_code == 0
        assert "f(H(p)) = 0" in result.output
        assert "f(H(q)) = 1" in result.output

    def test_round_trip_through_files(self, runner, b2_file, tmp_path):
        B2 = CORPUS["B2"]
        E = make_spectral_family(B2, [(0.0, B2.index("p")), (1.0, B2.top)])
        table = tmp_path / "table.json"
        sio.save_table(observable_fn(E), table)
        out = tmp_path / "rebuilt.json"
        result = runner.invoke(
            main,
            [
                "reconstruct",
                "--lattice", str(b2_file),
                "--fn", str(table),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert sio.load_family(out, B2) == E

    def test_reconstruct_prints_json_by_default(self, runner, b2_file, tmp_path):
        B2 = CORPUS["B2"]
        E = make_spectral_family(B2, [(0.0, B2.index("p")), (1.0, B2.top)])
        table = tmp_path / "table.json"
        sio.save_table(observable_fn(E), table)
        result = runner.invoke(
            main, ["reconstruct", "--lattice", str(b2_file), "--fn", str(table)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == sio.family_to_dict(E)

    def test_unreconstructible_table_exits_1(self, runner, mo2_file, tmp_path):
        MO2 = CORPUS["MO2"]
        a = MO2.index("a")
        values = [
            {"element": int(p), "f": 1.0 if int(p) in (a, MO2.top) else 0.0}
            for p in MO2.nonzero()
        ]
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"values": values}))
        result = runner.invoke(
            main, ["reconstruct", "--lattice", str(mo2_file), "--fn", str(table)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "not an observable function: ('intersection', 2, 3)" in result.output


class TestMatrixCommands:
    @pytest.fixture
    def matrix_file(self, tmp_path):
        path = tmp_path / "a.json"
        sio.save_matrix(np.diag([1.0, 2.0, 2.0]).astype(complex), path)
        return path

    def test_spectral(self, runner, matrix_file):
        result = runner.invoke(main, ["matrix", "spectral", "--matrix", str(matrix_file)])
        assert result.exit_code == 0
        assert "E(1) = p1" in result.output
        assert "E(2) = 1" in result.output

    def test_rays_csv(self, runner, matrix_file):
        result = runner.invoke(
            main, ["matrix", "rays", "--matrix", str(matrix_file), "--seed", "3"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "ray_id,f,g,expectation"
        e1 = next(l for l in lines if l.startswith("e1,"))
        assert e1.split(",")[1] == "1.0"

    def test_single_ray_file(self, runner, matrix_file, tmp_path):
        ray = tmp_path / "ray.json"
        ray.write_text(json.dumps({"re": [1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}))
        result = runner.invoke(
            main,
            ["matrix", "rays", "--matrix", str(matrix_file), "--ray", str(ray)],
        )
        assert result.exit_code == 0
        row = result.output.splitlines()[1].split(",")
        assert row[0] == "ray" and row[1] == "2.0"

    def test_ray_dimension_mismatch(self, runner, matrix_file, tmp_path):
        ray = tmp_path / "ray.json"
        ray.write_text(json.dumps({"re": [1.0, 1.0]}))
        result = runner.invoke(
            main,
            ["matrix", "rays", "--matrix", str(matrix_file), "--ray", str(ray)],
        )
        assert result.exit_code == 2

    def test_gelfand(self, runner, matrix_file):
        result = runner.invoke(
            main, ["matrix", "gelfand", "--matrix", str(matrix_file), "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "atom,re,im"

    def test_approx(self, runner, matrix_file):
        result = runner.invoke(
            main, ["matrix", "approx", "--matrix", str(matrix_file), "--eps", "0.1"]
        )
        assert result.exit_code == 0
        assert "closed form: ok" in result.output

    def test_non_hermitian_exits_1(self, runner, tmp_path):
        path = tmp_path / "nh.json"
        sio.save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]).astype(complex), path)
        result = runner.invoke(main, ["matrix", "spectral", "--matrix", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("args", [["spectral"], ["rays"], ["approx", "--eps", "0.1"]])
    def test_one_hermitian_pass_per_command(self, runner, matrix_file, monkeypatch, args):
        """The matrix commands leave the Hermitian test, and its symmetrized
        copy, to eig: one hermitian_part call each."""
        calls = []
        test = matrix_mod.hermitian_part
        monkeypatch.setattr(matrix_mod, "hermitian_part", lambda a: calls.append(a) or test(a))
        result = runner.invoke(main, ["matrix", args[0], "--matrix", str(matrix_file), *args[1:]])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_approx_runs_one_eigensolve(self, runner, matrix_file, monkeypatch):
        """matrix approx bounds ||A - A_eps|| from eig's own checks: one eigh call
        and no eigvalsh of A - A_eps."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *args, name=name, fn=fn: calls.append(name) or fn(a, *args))
        result = runner.invoke(main, ["matrix", "approx", "--matrix", str(matrix_file),
                                      "--eps", "0.1"])
        assert result.exit_code == 0, result.output
        assert calls == ["eigh"]

    def test_non_hermitian_file_is_read_once(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "normal.json"
        sio.save_matrix(np.diag([1j, 2.0]), path)
        calls = []
        load = sio.load_matrix
        monkeypatch.setattr(sio, "load_matrix", lambda p: calls.append(p) or load(p))
        result = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(path)])
        assert result.exit_code == 0
        assert calls == [str(path)]

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_bad_eps_exits_2_before_loading(self, runner, matrix_file, monkeypatch, eps):
        calls = []
        load = sio.load_matrix
        monkeypatch.setattr(sio, "load_matrix", lambda p: calls.append(p) or load(p))
        result = runner.invoke(
            main, ["matrix", "approx", "--matrix", str(matrix_file), "--eps", eps]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == "eps must be positive and finite\n"
        assert calls == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["spectral", "rays", "gelfand", "approx"])
    def test_non_finite_entries_exit_2(self, runner, tmp_path, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "re": [[1.0, 0.0], [0.0, bad]]}))
        extra = ["--eps", "0.1"] if command == "approx" else []
        result = runner.invoke(main, ["matrix", command, "--matrix", str(path), *extra])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "schema error" in result.output

    @pytest.mark.parametrize("command", ["spectral", "approx"])
    def test_too_many_eigenvalues_exit_2(self, runner, tmp_path, command):
        """2^m is refused where a lattice file of 2^m elements is: from m = 14,
        before its tables are built."""
        extra = ["--eps", "0.1"] if command == "approx" else []
        for m, gib in [(14, "4.00"), (17, "256.00")]:
            path = tmp_path / f"d{m}.json"
            sio.save_matrix(np.diag(np.arange(float(m))), path)
            result = runner.invoke(main, ["matrix", command, "--matrix", str(path), *extra])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert result.output == (
                f"input error: {m} distinct eigenvalues; {1 << m} elements need about {gib} "
                "GiB for the n^2 tables, past the cap of 1 GiB\n"
            )

    @pytest.mark.parametrize("command", ["spectral", "rays", "approx"])
    def test_eigen_error_exits_1(self, runner, tmp_path, command, monkeypatch):
        # eigh made to return a shifted eigenvalue fails the residual test
        eigh = np.linalg.eigh

        def shifted(a):
            w, V = eigh(a)
            w[-1] += 1e-6
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        path = tmp_path / "diag.json"
        sio.save_matrix(np.diag([1.0, 2.0, 3.0]), path)
        extra = ["--eps", "0.1"] if command == "approx" else []
        result = runner.invoke(main, ["matrix", command, "--matrix", str(path), *extra])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "eigendecomposition error: spectral resolution does not reproduce the matrix\n"
        )

    @pytest.mark.parametrize("args", [["matrix", "spectral", "--matrix"], ["check", "--lattice"]])
    def test_deep_nesting_exits_2(self, runner, tmp_path, args):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "re": ' + "[" * 3000 + "]" * 3000 + "}")
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "schema error" in result.output

    def test_nano_spectrum_keeps_three_jumps(self, runner, tmp_path):
        """diag(1e-9, 2e-9, 3e-9): clusters are relative to ||A||, so the spectrum
        has three jumps, and every ray row has g <= <Ax,x> <= f."""
        path = tmp_path / "nano.json"
        sio.save_matrix(np.diag([1e-9, 2e-9, 3e-9]), path)
        result = runner.invoke(main, ["matrix", "spectral", "--matrix", str(path)])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["E(1e-09) = p1", "E(2e-09) = p1+p2", "E(3e-09) = 1"]
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path)])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert len(rows) == 9 + 6
        for _, f, g, e in rows:
            assert float(g) <= float(e) <= float(f)
        assert rows[0][1:3] == ["1e-09", "1e-09"] and rows[2][1:3] == ["3e-09", "3e-09"]

    @pytest.mark.parametrize("command", ["spectral", "gelfand"])
    def test_tiny_nilpotent_is_not_hermitian_for_either_command(self, runner, tmp_path, command):
        """One Hermitian test, relative to max |A_ij|: [[0, 1e-13], [0, 0]] fails
        it for the matrix layer as for the Gelfand layer, and both exit 1."""
        path = tmp_path / "nilpotent.json"
        sio.save_matrix(np.array([[0.0, 1e-13], [0.0, 0.0]]), path)
        result = runner.invoke(main, ["matrix", command, "--matrix", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

    def test_subnormal_tolerance_exits_2(self, runner, tmp_path):
        """Below ||A|| of about 2.2e-300 the cluster width is not a normal float:
        the matrix is refused, not decomposed into one merged cluster."""
        path = tmp_path / "subnormal.json"
        sio.save_matrix(np.diag([1.0, 2.0, 3.0]) * 2.0**-1060, path)
        result = runner.invoke(main, ["matrix", "spectral", "--matrix", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "too small" in result.output

    def test_gelfand_past_sixteen(self, runner, tmp_path):
        path = tmp_path / "d17.json"
        sio.save_matrix(np.diag(np.arange(17.0)), path)
        result = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(path)])
        assert result.exit_code == 0
        assert result.output.splitlines() == [f"F(A)(e{i + 1}) = {i:g}+0i" for i in range(17)]

    def test_gelfand_keeps_tiny_distinct_entries(self, runner, tmp_path):
        """Entries merge relative to their size: entries of order 1e-13 apart
        by more than 1e-12 of it stay distinct."""
        path = tmp_path / "tiny.json"
        sio.save_matrix(np.diag([1e-13, 1.5e-13, 3e-13]), path)
        result = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(path)])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "F(A)(e1) = 1e-13+0i", "F(A)(e2) = 1.5e-13+0i", "F(A)(e3) = 3e-13+0i"]

    def test_gelfand_at_a_large_norm(self, runner, tmp_path):
        """A random normal 6x6 of norm about 2^24: its commutator test scales as
        |A|^2, so it is not refused as "not normal"."""
        rng = np.random.default_rng(24)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        w = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * 2.0**24
        path = tmp_path / "normal.json"
        sio.save_matrix((u * w) @ u.conj().T, path)
        result = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(path)])
        assert result.exit_code == 0
        got = [complex(line.split(" = ")[1].replace("i", "j"))
               for line in result.output.splitlines()]
        assert len(got) == 6
        for v, want in zip(sorted(got, key=abs), sorted(w, key=abs)):
            assert abs(v - want) <= 1e-5 * abs(want)

    @pytest.mark.parametrize("which", ["matrix", "ray"])
    def test_boolean_entries_exit_2(self, runner, matrix_file, tmp_path, which):
        """Booleans, strings (which numpy would parse) and null are no numbers."""
        bad = tmp_path / "bad.json"
        docs = {"matrix": [{"n": 1, "re": [[True]]}, {"n": 2, "re": [["1", 0], [0, "2.5"]]},
                           {"n": 1, "re": [[None]]}],
                "ray": [{"re": [x, 0, 0]} for x in (True, "1", None)]}
        for doc in docs[which]:
            bad.write_text(json.dumps(doc))
            if which == "matrix":
                args = ["spectral", "--matrix", str(bad)]
            else:
                args = ["rays", "--matrix", str(matrix_file), "--ray", str(bad)]
            result = runner.invoke(main, ["matrix", *args])
            assert result.exit_code == 2, doc
            assert isinstance(result.exception, SystemExit)
            assert "entries must be numbers" in result.output

    @pytest.mark.parametrize("name", ["herm3.json", "rot6.json"])
    def test_spectral_csv_matches_family_csv(self, runner, name):
        """Compared with io.family_csv of spectral_family_of in this process,
        not with golden digits, which depend on the BLAS kernel.  The k-th
        jump is the join of the first k atoms of 2^m: rank 2^k."""
        path = GOLDEN / name
        result = runner.invoke(
            main, ["matrix", "spectral", "--matrix", str(path), "--format", "csv"])
        assert result.exit_code == 0
        E = matrix_mod.spectral_family_of(matrix_mod.eig(sio.load_matrix(path)))
        assert result.stdout == sio.family_csv(E)
        ranks = [int(row["element_rank"]) for row in csv.DictReader(io.StringIO(result.stdout))]
        assert ranks == [2**k for k in range(1, E.k + 1)]

    @pytest.mark.parametrize("name", ["herm3.json", "rot6.json"])
    def test_rays_text_matches_ray_table(self, runner, name):
        """Each line formats, with :g, the row of ray_table in this process for
        the probe of its label."""
        path = GOLDEN / name
        result = runner.invoke(
            main, ["matrix", "rays", "--matrix", str(path), "--format", "text", "--seed", "3"])
        assert result.exit_code == 0
        A = sio.load_matrix(path)
        d = matrix_mod.eig(A)
        want = []
        for labels, block in _sweep(A.shape[0], 3):
            t = matrix_mod.ray_table(d, block)
            want += [f"{label}: f={fv:g} g={gv:g} <Ax,x>={ev:g}" for label, fv, gv, ev
                     in zip(labels, t.f.tolist(), t.g.tolist(), t.expectation.tolist())]
        assert len(want) == A.shape[0] ** 2 + 2 * A.shape[0]
        assert result.stdout.splitlines() == want

    def test_fixtures_match_golden_text(self, runner):
        assert matrix_cli_text(runner).encode() == (GOLDEN / "matrix-cli.txt").read_bytes()

    @pytest.mark.parametrize(
        "entries",
        [
            [[1e308, 0.0], [0.0, -1e308]],
            [[0.0, 1e308], [1e308, 0.0]],
            [[1.5e308, 0.0], [0.0, 1.5e308]],  # one cluster whose sum overflows
            [[1.5e308, 1.5e308], [1.5e308, 1.5e308]],  # eigenvalue 3e308: exit 2
        ],
    )
    @pytest.mark.parametrize("command", ["spectral", "rays", "approx", "gelfand"])
    def test_entries_near_the_float_limit(self, runner, tmp_path, command, entries):
        """Exit 0 with finite output, or 2 with a one-line reason; numpy warnings
        are raised as errors, so none may occur."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "re": entries}))
        extra = ["--eps", "0.5"] if command == "approx" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["matrix", command, "--matrix", str(path), *extra])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 0:
            assert "nan" not in result.stdout and "inf" not in result.stdout
            assert result.stderr == ""
        else:
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr.startswith("input error: ")
            assert result.stderr.count("\n") == 1

    def test_moduli_past_the_float_limit(self, runner, tmp_path):
        """|1.5e308 (1 + i)| overflows, but the Hermitian tests read a / 2: spectral
        exits 1 like any non-Hermitian matrix, and gelfand keeps the imaginary
        part.  [[0, 1e308], [-1e308, 0]] is normal with eigenvalues -+1e308 i.
        Numpy warnings are raised as errors, so none may occur."""
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"n": 1, "re": [[1.5e308]], "im": [[1.5e308]]}))
        turn = tmp_path / "turn.json"
        turn.write_text(json.dumps({"n": 2, "re": [[0.0, 1e308], [-1e308, 0.0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectral = runner.invoke(main, ["matrix", "spectral", "--matrix", str(one)])
            single = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(one)])
            pair = runner.invoke(main, ["matrix", "gelfand", "--matrix", str(turn)])
        assert (spectral.exit_code, spectral.output) == (1, "matrix is not Hermitian\n")
        assert (single.exit_code, single.output) == (0, "F(A)(e1) = 1.5e+308+1.5e+308i\n")
        assert (pair.exit_code, pair.output) == (
            0, "F(A)(e1) = 0-1e+308i\nF(A)(e2) = 0+1e+308i\n"
        )

    def test_chained_near_ties_exit_0(self, runner, tmp_path):
        path = tmp_path / "chain.json"
        sio.save_matrix(np.diag([1.0, 1.0, 1 + 0.999999e-8, 1 + 1.999998e-8]), path)
        for args in (["spectral"], ["rays"], ["approx", "--eps", "0.1"]):
            result = runner.invoke(main, ["matrix", args[0], "--matrix", str(path), *args[1:]])
            assert result.exit_code == 0, result.output

    def test_sweep_past_the_cap_exits_2(self, runner, tmp_path):
        n = SWEEP_CAP + 1
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "re": np.eye(n).tolist()}))
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "input error: the probe sweep at n = 1025 writes 1052675 rows, past the "
            "cap of n = 1024; evaluate single rays with --ray\n"
        )
        ray = tmp_path / "ray.json"
        ray.write_text(json.dumps({"re": [1.0] + [0.0] * (n - 1)}))
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path), "--ray", str(ray)])
        assert result.exit_code == 0
        assert result.output == "ray_id,f,g,expectation\nray,1.0,1.0,1.0\n"

    def test_sweep_never_holds_every_probe(self, runner, tmp_path):
        """At n = 64 the n^2 + 2n probes take 4.3 MB as complex rows; the traced
        peak of the whole command, eigendecomposition and output included, stays
        below that."""
        path = tmp_path / "h64.json"
        sio.save_matrix(matrix_mod.random_hermitian(64, np.random.default_rng(3)), path)
        args = ["matrix", "rays", "--matrix", str(path)]
        runner.invoke(main, args)
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 1 + 64 * 64 + 2 * 64
        assert peak < (64 * 64 + 2 * 64) * 64 * 16

    def test_band_hits_warn_once_per_block(self, runner, tmp_path):
        """Rotated by 1e-8, e1 and e2 each keep a 1e-8 component in the other
        eigenvector: two band hits in the block of unit probes, none among the
        random rays."""
        c, s = np.cos(1e-8), np.sin(1e-8)
        rot = np.array([[c, -s], [s, c]])
        path = tmp_path / "tilted.json"
        sio.save_matrix(rot @ np.diag([1.0, 2.0]) @ rot.T, path)
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path)])
        assert result.exit_code == 0
        assert result.stderr == (
            "warning: 2 of 4 rays from e1 to e1+ie2 have a component within the "
            "tolerance band; their support decisions are ill-conditioned\n"
        )

    @pytest.mark.parametrize("tilt", [0.0, 1e-8])
    def test_rays_csv_matches_csv_writer(self, runner, tmp_path, tilt):
        """The sweep at n = 128 and the --ray path write, byte for byte, what
        csv.writer wrote from the reprs of the same ray tables: a random
        Hermitian (128 distinct eigenvalues), and a diagonal one with e1 and e2
        tilted by 1e-8 toward each other, so that the probes on them and the
        ray file e1 + 1e-9 e2 are band rays."""
        rng = np.random.default_rng(21)
        n = 128
        if tilt:
            w = rng.uniform(-3, 3, n)
            c, s = np.cos(tilt), np.sin(tilt)
            a = np.diag(w)
            a[:2, :2] = np.array([[c, -s], [s, c]]) @ np.diag(w[:2]) @ np.array([[c, s], [-s, c]])
        else:
            a = matrix_mod.random_hermitian(n, rng)
        path = tmp_path / "a.json"
        sio.save_matrix(a, path)
        d = matrix_mod.eig(matrix_mod.as_hermitian(sio.load_matrix(path)))
        want = "".join(csv_writer_rows(labels, matrix_mod.ray_table(d, block), b == 0)
                       for b, (labels, block) in enumerate(_sweep(n, 7)))
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path)])
        assert result.exit_code == 0
        assert first_difference(result.stdout, want) is None
        assert ("warning: " in result.stderr) == bool(tilt)
        ray = tmp_path / "ray.json"
        x = np.zeros(n)
        x[0], x[1] = 1.0, 1e-9
        ray.write_text(json.dumps({"re": x.tolist()}))
        result = runner.invoke(main, ["matrix", "rays", "--matrix", str(path), "--ray", str(ray)])
        assert result.exit_code == 0
        assert result.stdout == csv_writer_rows(["ray"], matrix_mod.ray_table(d, x[:, None]), True)

    def test_matrix_and_ray_files_past_the_size_cap_exit_2(self, runner, matrix_file, tmp_path):
        """One byte past MATRIX_BYTES_CAP, a sparse file, is refused by every
        matrix command and by --ray, before it is read."""
        big = tmp_path / "big.json"
        with open(big, "wb") as f:
            f.truncate(sio.MATRIX_BYTES_CAP + 1)
        message = (f"schema error: {big}: 268435457 bytes of JSON, past the cap of "
                   "268435456 bytes (256 MiB) for matrix and ray files\n")
        for args in (["spectral", "--matrix", str(big)], ["rays", "--matrix", str(big)],
                     ["rays", "--matrix", str(matrix_file), "--ray", str(big)],
                     ["gelfand", "--matrix", str(big)],
                     ["approx", "--matrix", str(big), "--eps", "0.5"]):
            result = runner.invoke(main, ["matrix", *args])
            assert result.exit_code == 2
            assert result.stderr == message

    def test_negative_seed_exits_2(self, runner, matrix_file):
        """A usage error, not NumPy's traceback from default_rng."""
        args = ["matrix", "rays", "--matrix", str(matrix_file), "--seed", "-1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

    def test_zero_ray_exits_2(self, runner, matrix_file, tmp_path):
        ray = tmp_path / "zero.json"
        ray.write_text(json.dumps({"re": [0.0, 0.0, 0.0]}))
        args = ["matrix", "rays", "--matrix", str(matrix_file), "--ray", str(ray)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == "input error: the zero vector spans no ray\n"


# rot6.json is U diag(1, 2, 2, 3, 3, 3) U^H with U the Q factor of a complex
# Gaussian 6x6 from default_rng(2024); herm3.json is the Hermitian part of
# the next complex Gaussian 3x3 from the same generator.
MATRIX_FIXTURES = ("rot6.json", "herm3.json")
MATRIX_CALLS = (
    ["spectral"],
    ["spectral", "--format", "json"],
    ["rays", "--seed", "7"],
    ["gelfand"],
    ["approx", "--eps", "0.3"],
)


def first_difference(got: str, want: str):
    """None if the texts are equal, else the first line number where they
    differ with both lines (a short report, where pytest would diff
    thousands of lines)."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


def csv_writer_rows(labels, t, header: bool) -> str:
    """Ray table rows as csv.writer writes the reprs of their values."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(["ray_id", "f", "g", "expectation"])
    for row in zip(labels, t.f.tolist(), t.g.tolist(), t.expectation.tolist()):
        w.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
    return buf.getvalue()


def matrix_cli_text(runner) -> str:
    """stdout of every matrix command on each fixture, under a header line."""
    parts = []
    for name in MATRIX_FIXTURES:
        for call in MATRIX_CALLS:
            args = ["matrix", call[0], "--matrix", str(GOLDEN / name), *call[1:]]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
            parts.append(" ".join(["$ stonespec", *args[:3], name, *call[1:]]) + "\n")
            parts.append(result.stdout)
    return "".join(parts)


class TestMemory:
    def test_lattice_past_the_cap_exits_2(self, runner, tmp_path):
        """One element past the cap is refused before its n^2 order matrix
        (67 MB) is allocated."""
        n = math.isqrt(lattice.LATTICE_BYTES_CAP // lattice.LATTICE_PAIR_BYTES) + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"elements": [f"e{i}" for i in range(n)], "leq": [], "ortho": list(range(n))}
        ))
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["check", "--lattice", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"schema error: {path}: 8193 elements need about 1.00 GiB for the n^2 "
            "tables, past the cap of 1 GiB\n"
        )
        assert peak < n * n

    @pytest.mark.parametrize("command", ["check", "spectral"])
    def test_memory_error_exits_2(self, runner, b2_file, tmp_path, monkeypatch, command):
        """The backstop for allocations no cap foresaw, provoked without them."""

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.71 GiB")

        if command == "check":
            monkeypatch.setattr("stonespec.cli.verify_structure", exhausted)
            args = ["check", "--lattice", str(b2_file)]
        else:
            monkeypatch.setattr(matrix_mod, "eig", exhausted)
            path = tmp_path / "a.json"
            sio.save_matrix(np.diag([1.0, 2.0]), path)
            args = ["matrix", "spectral", "--matrix", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == "input error: out of memory (Unable to allocate 6.71 GiB)\n"


class TestVerify:
    def test_stone_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "stone", "--seed", "7"])
        assert result.exit_code == 0
        assert "PASS stone-structure" in result.output

    def test_negative_seed_exits_2(self, runner):
        """A usage error, not NumPy's traceback from default_rng."""
        result = runner.invoke(main, ["verify", "--suite", "lattice", "--seed", "-1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

    def test_deterministic_output(self, runner):
        args = ["verify", "--suite", "lattice", "--suite", "stone", "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    @pytest.mark.parametrize("env, fmt", [
        pytest.param(env, fmt, id=name if fmt == "text" else f"{name}-{fmt}")
        for name, env in (("default", {}), ("OBS_EPS=-1", {"OBS_EPS": "-1"}))
        for fmt in ("text", "json", "csv")
    ])
    def test_all_suites_match_golden_text(self, runner, env, fmt):
        """Every format of the full run is pinned; the matrix tolerances are
        fixed: no environment variable moves them."""
        args = ["verify", "--suite", "all", "--seed", "7", "--format", fmt]
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 0
        suffix = {"text": "txt"}.get(fmt, fmt)
        assert result.stdout_bytes == (GOLDEN / f"verify-all-seed7.{suffix}").read_bytes()

    def test_raising_check_reports_error_and_the_run_goes_on(self, runner, monkeypatch):
        """Each check that raises prints one ERROR line in place of its PASS line,
        every other line is unchanged, and the run exits 1 without a traceback."""
        args = ["verify", "--suite", "stone", "--seed", "7"]
        clean = runner.invoke(main, args).output.splitlines()

        def boom(L, a):
            raise RuntimeError("boom")

        monkeypatch.setattr(stone, "complement_covers", boom)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        want = [
            f"ERROR {line[5:]} [RuntimeError: boom]"
            if line.startswith("PASS stone/complement-cover/") else line
            for line in clean[:-1]
        ]
        assert sum(w != c for w, c in zip(want, clean)) == 6
        assert result.output.splitlines() == [*want, "10/16 checks passed"]
        rows = json.loads(runner.invoke(main, [*args, "--format", "json"]).output)
        errors = [r for r in rows if r["name"].startswith("stone/complement-cover/")]
        assert [(r["passed"], r["detail"]) for r in errors] == [(False, "RuntimeError: boom")] * 6

    def test_out_of_memory_in_a_check_still_exits_2(self, runner, monkeypatch):
        """The runner turns exceptions into ERROR lines, but not MemoryError:
        the CLI's backstop still reports it."""

        def exhausted(L, a):
            raise MemoryError("no room")

        monkeypatch.setattr(stone, "complement_covers", exhausted)
        result = runner.invoke(main, ["verify", "--suite", "stone", "--seed", "7"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == "input error: out of memory (no room)\n"

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "stone", "--seed", "7", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert all(entry["passed"] for entry in data)

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "gelfand", "--seed", "7", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "name,passed,detail"
