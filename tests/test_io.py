import json
import tracemalloc

import numpy as np
import pytest

from stonespec import _kernels
from stonespec import io as sio
from stonespec import lattice
from stonespec.corpus import boolean_lattice, corpus
from stonespec.errors import LatticeError, SchemaError
from stonespec.lattice import FiniteOML
from stonespec.spectral import make_spectral_family, observable_fn, random_spectral_family

CORPUS = corpus()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLatticeFiles:
    def test_round_trip(self, tmp_path):
        for name, L in CORPUS.items():
            path = tmp_path / f"{name.replace('^', '')}.json"
            sio.save_lattice(L, path)
            L2 = sio.load_lattice(path)
            assert L2.names == L.names
            assert (L2.leq == L.leq).all()
            assert (L2.ortho == L.ortho).all()
            # a second cycle is byte-identical
            path2 = tmp_path / "again.json"
            sio.save_lattice(L2, path2)
            assert path.read_text() == path2.read_text()

    def test_closure_applied(self, tmp_path):
        # only cover pairs given; transitivity and reflexivity are inferred
        path = write(
            tmp_path,
            "chain3.json",
            {
                "elements": ["0", "m", "1"],
                "leq": [[0, 1], [1, 2]],
                "ortho": [2, 1, 0],
            },
        )
        L = sio.load_lattice(path)
        assert L.le(0, 2)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            sio.load_lattice(path)

    def test_missing_keys(self, tmp_path):
        path = write(tmp_path, "bad.json", {"elements": ["0", "1"]})
        with pytest.raises(SchemaError, match="leq"):
            sio.load_lattice(path)

    def test_index_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {"elements": ["0", "1"], "leq": [[0, 5]], "ortho": [1, 0]},
        )
        with pytest.raises(SchemaError, match="range"):
            sio.load_lattice(path)

    def test_cycle_is_a_lattice_error(self, tmp_path):
        path = write(
            tmp_path,
            "cycle.json",
            {
                "elements": ["0", "x", "y", "1"],
                "leq": [[0, 1], [1, 2], [2, 1], [2, 3]],
                "ortho": [3, 2, 1, 0],
            },
        )
        with pytest.raises(LatticeError, match="antisymmetric"):
            sio.load_lattice(path)

    def test_element_cap(self, tmp_path, monkeypatch):
        """With the cap cut to the tables of 4 elements, 4 load and 5 are refused."""
        monkeypatch.setattr(lattice, "LATTICE_BYTES_CAP", 16 * lattice.LATTICE_PAIR_BYTES)
        path = tmp_path / "b2.json"
        sio.save_lattice(CORPUS["B2"], path)
        assert sio.load_lattice(path).n == 4
        data = json.loads(path.read_text())
        data["elements"].append("x")
        data["ortho"].append(4)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="5 elements need about .* GiB .* past the cap"):
            sio.load_lattice(path)

    def test_load_holds_two_order_matrices(self, tmp_path):
        """On the relabeled covering pairs of 2^10 the traced peak of a load
        stays below 11.5 bytes a pair, a margin of 1/2 over the larger of the
        two: the tables from signatures (7.25 traced) and from the join
        search (11.01 traced, the signatures declined).  The search took
        12.73 with float32 counts and int64 blocks, 20.0 with int64 tables,
        and 21.0 while the file's relation stayed referenced next to the
        closure and the lattice's copy."""
        L = boolean_lattice(10)
        inv = np.random.default_rng(4).permutation(L.n)  # new index i is old inv[i]
        M = FiniteOML([L.names[i] for i in inv], L.leq[np.ix_(inv, inv)],
                      np.argsort(inv)[L.ortho[inv]])
        path = tmp_path / "b10.json"
        sio.save_lattice(M, path)  # the covering pairs only
        for signatures in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not signatures:
                    mp.setattr(_kernels, "_signature_joins", lambda leq, dual=False: None)
                tracemalloc.start()
                try:
                    loaded = sio.load_lattice(path)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (loaded.leq == M.leq).all()
            assert peak < 11.5 * L.n * L.n

    def test_loaded_lattice_holds_six_bytes_a_pair(self, tmp_path):
        """A lattice loaded from the relabeled covering pairs of 2^10 holds its
        order and two int16 tables: 5.1 bytes a pair traced, 17.1 with int64
        tables."""
        L = boolean_lattice(10)
        perm = np.random.default_rng(5).permutation(L.n)  # new index perm[i] is old i
        inv = np.argsort(perm)
        M = FiniteOML([L.names[i] for i in inv], L.leq.take(inv, axis=0).take(inv, axis=1),
                      perm[L.ortho[inv]])
        path = tmp_path / "b10.json"
        sio.save_lattice(M, path)
        tracemalloc.start()
        try:
            loaded = sio.load_lattice(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.join_table, M.join_table)
        assert held <= 6 * L.n * L.n

    def test_non_unique_bottom(self, tmp_path):
        path = write(
            tmp_path,
            "two-bottoms.json",
            {
                "elements": ["a", "b", "1"],
                "leq": [[0, 2], [1, 2]],
                "ortho": [1, 0, 2],
            },
        )
        with pytest.raises(LatticeError, match="bottom"):
            sio.load_lattice(path)


class TestFamilyAndTableFiles:
    def test_family_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        for name, L in CORPUS.items():
            E = random_spectral_family(L, rng)
            path = tmp_path / "family.json"
            sio.save_family(E, path)
            assert sio.load_family(path, L) == E

    def test_family_schema_error(self, tmp_path):
        B2 = CORPUS["B2"]
        path = write(tmp_path, "fam.json", {"jumps": [{"lambda": 0.0}]})
        with pytest.raises(SchemaError):
            sio.load_family(path, B2)

    def test_family_math_error(self, tmp_path):
        B2 = CORPUS["B2"]
        path = write(
            tmp_path,
            "fam.json",
            {"jumps": [{"lambda": 0.0, "element": B2.index("p")}]},
        )
        with pytest.raises(LatticeError, match="top"):
            sio.load_family(path, B2)

    def test_table_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        for name, L in CORPUS.items():
            t = observable_fn(random_spectral_family(L, rng))
            path = tmp_path / "table.json"
            sio.save_table(t, path)
            assert sio.load_table(path, L) == t

    def test_table_must_be_total(self, tmp_path):
        B2 = CORPUS["B2"]
        path = write(
            tmp_path, "table.json", {"values": [{"element": B2.index("p"), "f": 0.0}]}
        )
        with pytest.raises(LatticeError, match="misses"):
            sio.load_table(path, B2)

    def test_quasipoint_data(self, tmp_path):
        B2 = CORPUS["B2"]
        atoms = list(B2.atoms())
        path = write(
            tmp_path,
            "qp.json",
            {"values": [{"atom": a, "f": float(i)} for i, a in enumerate(atoms)]},
        )
        data = sio.load_quasipoint_data(path, B2)
        assert data == {atoms[0]: 0.0, atoms[1]: 1.0}

    def test_quasipoint_data_rejects_non_atoms(self, tmp_path):
        B2 = CORPUS["B2"]
        path = write(
            tmp_path, "qp.json", {"values": [{"atom": B2.top, "f": 1.0}]}
        )
        with pytest.raises(SchemaError, match="atom"):
            sio.load_quasipoint_data(path, B2)

    def test_quasipoint_data_rejects_repeated_atoms(self, tmp_path):
        """A repeated atom is refused, as load_table refuses a repeated
        element, even when every atom has a value."""
        B2 = CORPUS["B2"]
        a, b = B2.atoms()
        path = write(tmp_path, "qp.json", {"values": [
            {"atom": a, "f": 0}, {"atom": a, "f": 5}, {"atom": b, "f": 1}]})
        with pytest.raises(SchemaError, match="exactly one value per atom"):
            sio.load_quasipoint_data(path, B2)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(63)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        sio.save_matrix(A, path)
        assert np.abs(sio.load_matrix(path) - A).max() == 0.0

    def test_im_defaults_to_zero(self, tmp_path):
        path = write(tmp_path, "m.json", {"n": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        A = sio.load_matrix(path)
        assert np.abs(A.imag).max() == 0.0

    def test_shape_mismatch(self, tmp_path):
        path = write(tmp_path, "m.json", {"n": 3, "re": [[1.0, 0.0], [0.0, 2.0]]})
        with pytest.raises(SchemaError, match="3 x 3"):
            sio.load_matrix(path)

    def test_deep_nesting_is_a_schema_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "re": ' + "[" * 3000 + "]" * 3000 + "}")
        with pytest.raises(SchemaError, match="recursion depth"):
            sio.load_matrix(path)

    def test_ray_file(self, tmp_path):
        path = write(tmp_path, "ray.json", {"re": [1.0, 0.0], "im": [0.0, 1.0]})
        assert sio.load_ray(path).tolist() == [1.0, 1j]


    @pytest.mark.parametrize("load, doc", [(sio.load_matrix, {"n": 1, "re": [[1.0]]}),
                                           (sio.load_ray, {"re": [1.0, 0.0]})])
    def test_size_cap_at_the_limit_and_one_byte_past(self, tmp_path, monkeypatch, load, doc):
        """A file of MATRIX_BYTES_CAP bytes loads and one byte more is refused
        before it is read: with the cap set to a small file's size, and with
        the real cap on a sparse file (no page of it is read or written)."""
        path = write(tmp_path, "m.json", doc)
        size = path.stat().st_size
        monkeypatch.setattr(sio, "MATRIX_BYTES_CAP", size)
        assert load(path).size >= 1
        monkeypatch.setattr(sio, "MATRIX_BYTES_CAP", size - 1)
        with pytest.raises(SchemaError, match=f"{size} bytes of JSON, past the cap of {size - 1} "):
            load(path)
        monkeypatch.undo()
        big = tmp_path / "big.json"
        with open(big, "wb") as f:
            f.truncate(sio.MATRIX_BYTES_CAP + 1)
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as exc:
                load(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"{big}: 268435457 bytes of JSON, past the cap of "
                                  "268435456 bytes (256 MiB) for matrix and ray files")
        assert peak < 1 << 16


OUTSIDE_FLOATS = (float("nan"), float("inf"), float("-inf"), 10**400)
B2 = CORPUS["B2"]
P = B2.index("p")


class TestBooleansAndNonFiniteNumbers:
    """JSON true/false is neither an index nor a number (Python's bool is an
    int); NaN, +-Infinity and integers beyond the float range are not values."""

    @pytest.mark.parametrize(
        "leq, ortho",
        [([[True, 2], [1, 2]], [2, 1, 0]), ([[0, 1], [1, 2]], [2, 1, False])],
    )
    def test_lattice(self, tmp_path, leq, ortho):
        path = write(
            tmp_path, "l.json", {"elements": ["0", "m", "1"], "leq": leq, "ortho": ortho}
        )
        with pytest.raises(SchemaError):
            sio.load_lattice(path)

    @pytest.mark.parametrize(
        "jump",
        [{"lambda": True, "element": B2.top}, {"lambda": 0.0, "element": True}]
        + [{"lambda": x, "element": B2.top} for x in OUTSIDE_FLOATS],
    )
    def test_family(self, tmp_path, jump):
        path = write(tmp_path, "fam.json", {"jumps": [jump]})
        with pytest.raises(SchemaError, match="jump types"):
            sio.load_family(path, B2)

    @pytest.mark.parametrize(
        "value",
        [{"element": True, "f": 0.0}, {"element": P, "f": False}]
        + [{"element": P, "f": x} for x in OUTSIDE_FLOATS],
    )
    def test_table(self, tmp_path, value):
        path = write(tmp_path, "table.json", {"values": [value]})
        with pytest.raises(SchemaError, match="value types"):
            sio.load_table(path, B2)

    @pytest.mark.parametrize(
        "value",
        [{"atom": True, "f": 0.0}, {"atom": P, "f": True}]
        + [{"atom": P, "f": x} for x in OUTSIDE_FLOATS],
    )
    def test_quasipoint_data(self, tmp_path, value):
        path = write(tmp_path, "qp.json", {"values": [value]})
        with pytest.raises(SchemaError, match="value types"):
            sio.load_quasipoint_data(path, B2)

    @pytest.mark.parametrize(
        "payload",
        [{"n": True, "re": [[1.0]]}]
        + [{"n": 2, "re": [[1.0, 0.0], [0.0, x]]} for x in OUTSIDE_FLOATS]
        + [{"n": 1, "re": [[1.0]], "im": [[x]]} for x in OUTSIDE_FLOATS]
        + [{"n": 1, "re": [[True]]}, {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, False], [0, 0]]}]
        + [{"n": 2, "re": [["1", 0], [0, "2.5"]]}, {"n": 1, "re": [[None]]},
           {"n": 1, "re": [[1.0]], "im": [["0"]]}, {"n": 1, "re": [[1.0]], "im": [[None]]}],
    )
    def test_matrix(self, tmp_path, payload):
        path = write(tmp_path, "m.json", payload)
        with pytest.raises(SchemaError):
            sio.load_matrix(path)

    @pytest.mark.parametrize(
        "x", [*OUTSIDE_FLOATS, True, "1", None],
        ids=["nan", "inf", "-inf", "1e400", "true", "string", "null"],
    )
    def test_ray(self, tmp_path, x):
        for payload in ({"re": [1.0, x]}, {"re": [1.0, 0.0], "im": [x, 0.0]}):
            path = write(tmp_path, "ray.json", payload)
            with pytest.raises(SchemaError):
                sio.load_ray(path)


class TestCsv:
    def test_rays_csv_header(self):
        out = sio.RaysCsv(np.array([0.5, 1.0])).block(
            ["e1"], np.array([1.0]), np.array([0.5]), np.array([0.75]), header=True)
        lines = out.strip().split("\n")
        assert lines[0] == "ray_id,f,g,expectation"
        assert lines[1].startswith("e1,")

    def test_family_csv_ranks(self):
        B2 = CORPUS["B2"]
        E = make_spectral_family(B2, [(0.0, B2.index("p")), (1.0, B2.top)])
        out = sio.family_csv(E)
        assert out.splitlines() == ["lambda,element_rank", "0.0,2", "1.0,4"]

    def test_transform_csv(self):
        out = sio.transform_csv(["e1"], np.array([1.5 - 0.5j]))
        assert out.splitlines()[1] == "e1,1.5,-0.5"
