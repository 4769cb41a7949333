import numpy as np
import pytest

from stonespec import gelfand as G
from stonespec import matrix as M
from stonespec.errors import LatticeError
from stonespec.spectral import observable_fn


@pytest.fixture
def alg3():
    return G.DiagonalAlgebra.of_dimension(3)


def characteristic_sum(alg, entries):
    """Oracle: the sum of each coefficient times the characteristic function
    of its support, over the orthogonal representation."""
    rep = G.orthogonal_representation(alg, entries)
    out = np.zeros(alg.n, dtype=np.complex128)
    for b, support in zip(rep.coefficients, rep.supports):
        for i in support:
            out[i] += b
    return out


class TestOrthogonalRepresentation:
    def test_grouping(self, alg3):
        rep = G.orthogonal_representation(alg3, [2.0, 2.0, 5.0])
        assert rep.coefficients == (2.0 + 0j, 5.0 + 0j)
        assert rep.supports == ((0, 1), (2,))

    def test_zero_operator_is_the_empty_sum(self):
        alg = G.DiagonalAlgebra.of_dimension(2)
        rep = G.orthogonal_representation(alg, [0.0, 0.0])
        assert rep.coefficients == () and rep.supports == ()

    def test_complex_coefficients(self):
        alg = G.DiagonalAlgebra.of_dimension(2)
        rep = G.orthogonal_representation(alg, [1.0, 1j])
        assert set(rep.coefficients) == {1.0 + 0j, 1j}

    def test_snap_merges_near_equal_entries(self, alg3):
        rep = G.orthogonal_representation(alg3, [1.0, 1.0 + 1e-13, 2.0])
        assert len(rep.coefficients) == 2

    def test_wrong_length_rejected(self, alg3):
        with pytest.raises(LatticeError):
            G.orthogonal_representation(alg3, [1.0, 2.0])


class TestTransform:
    @pytest.mark.parametrize(
        "entries",
        [
            [0.0, -0.0, 1.0],
            [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
            [1e-13, -1e-13, 0.0, -0.0],
            [1.0, 1.0 + 1e-13, 1.0 - 1e-13, 2.0],
            [1 + 2j, -3j, complex(2.0, -0.0), complex(-0.0, 1.0), 1j + 1e-13],
            np.random.default_rng(52).standard_normal(6)
            + 1j * np.random.default_rng(53).standard_normal(6),
        ],
    )
    def test_matches_characteristic_sum(self, entries):
        alg = G.DiagonalAlgebra.of_dimension(len(entries))
        got = G.gelfand_transform(alg, entries)
        want = characteristic_sum(alg, entries)
        assert (got == want).all()
        assert (np.signbit(got.real) == np.signbit(want.real)).all()
        assert (np.signbit(got.imag) == np.signbit(want.imag)).all()

    def test_values(self, alg3):
        out = G.gelfand_transform(alg3, [2.0, 2.0, 5.0])
        assert out.tolist() == [2.0 + 0j, 2.0 + 0j, 5.0 + 0j]

    def test_identity(self, alg3):
        assert G.gelfand_transform(alg3, [1.0, 1.0, 1.0]).tolist() == [1.0 + 0j] * 3

    def test_projection_gives_characteristic_function(self, alg3):
        out = G.gelfand_transform(alg3, [1.0, 0.0, 1.0])
        assert out.tolist() == [1.0 + 0j, 0j, 1.0 + 0j]

    def test_homomorphism(self, alg3):
        rng = np.random.default_rng(51)
        rep = G.verify_homomorphism(alg3, rng, pairs=100)
        assert rep.passed and rep.isometry_error <= G.SNAP_TOL

    def test_explicit_sum_and_product(self, alg3):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([3.0, 4.0, 2.0])
        assert (
            G.gelfand_transform(alg3, a + b)
            == G.gelfand_transform(alg3, a) + G.gelfand_transform(alg3, b)
        ).all()
        assert (
            G.gelfand_transform(alg3, a * b)
            == G.gelfand_transform(alg3, a) * G.gelfand_transform(alg3, b)
        ).all()

    def test_adjoint_conjugates(self, alg3):
        rng = np.random.default_rng(52)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert (
            G.gelfand_transform(alg3, z.conj())
            == G.gelfand_transform(alg3, z).conj()
        ).all()


class TestPastSixteen:
    def test_transform_builds_no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the transform reads no lattice")

        monkeypatch.setattr(M, "boolean_lattice", refuse)  # where the family builder reads it
        entries = np.arange(17.0) - 8.0
        alg = G.DiagonalAlgebra.of_dimension(17)
        assert alg.n == 17
        assert (G.gelfand_transform(alg, entries) == entries).all()

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_family_and_identity_up_to_the_cap(self, n):
        alg = G.DiagonalAlgebra.of_dimension(n)
        entries = np.random.default_rng(n).standard_normal(n)
        E = G.diagonal_spectral_family(alg, entries)
        assert E.lattice.n == 1 << n
        assert E.thresholds.tolist() == sorted(entries.tolist())
        assert G.verify_gelfand_identity(alg, entries).passed


class TestCharacters:
    def test_characters(self, alg3):
        assert G.verify_characters(alg3).passed

    def test_explicit_cases(self, alg3):
        # P = e1 v e2 evaluated at the first atom is 1; e2 at the first is 0
        out = G.gelfand_transform(alg3, [1.0, 1.0, 0.0])
        assert out[0] == 1.0
        out = G.gelfand_transform(alg3, [0.0, 1.0, 0.0])
        assert out[0] == 0.0
        out = G.gelfand_transform(alg3, [1.0, 1.0, 1.0])
        assert (out == 1.0).all()


class TestObservableIdentity:
    def test_examples(self, alg3):
        assert G.verify_gelfand_identity(alg3, [2.0, 2.0, 5.0]).passed
        assert G.verify_gelfand_identity(alg3, [4.0, 4.0, 4.0]).passed
        alg2 = G.DiagonalAlgebra.of_dimension(2)
        assert G.verify_gelfand_identity(alg2, [0.0, 1.0]).passed

    def test_random(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            alg = G.DiagonalAlgebra.of_dimension(n)
            assert G.verify_gelfand_identity(alg, rng.standard_normal(n)).passed

    def test_family_thresholds_are_entries(self, alg3):
        E = G.diagonal_spectral_family(alg3, [2.0, 2.0, 5.0])
        assert E.jumps() == [(2.0, 0b011), (5.0, 0b111)]
        f = observable_fn(E)
        assert [float(f.values[1 << i]) for i in range(3)] == [2.0, 2.0, 5.0]

    def test_complex_entries_rejected_for_families(self, alg3):
        with pytest.raises(LatticeError, match="selfadjoint"):
            G.diagonal_spectral_family(alg3, [1.0, 1j, 0.0])


class TestDiagonalization:
    def test_hermitian_input(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = M.random_hermitian(n, rng)
            U, entries = G.diagonalize(A)
            assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-9
            assert np.abs(U.conj().T @ A @ U - np.diag(entries)).max() < 1e-9

    def test_normal_input(self):
        # a normal, non-Hermitian matrix: unitary rotation of complex diagonal
        rng = np.random.default_rng(55)
        D = np.diag([1.0 + 1j, 2.0 - 1j, 0.5])
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U0, _ = np.linalg.qr(g)
        A = U0 @ D @ U0.conj().T
        U, entries = G.diagonalize(A)
        assert np.abs(U.conj().T @ A @ U - np.diag(entries)).max() < 1e-8

    def test_non_normal_rejected(self):
        with pytest.raises(LatticeError, match="normal"):
            G.diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("a", [np.diag([1e-9, 2e-9, 3e-9]), np.diag([1j, 2.0, -1j]),
                                   np.array([[0.0, 1e-13], [0.0, 0.0]])])
    def test_one_hermitian_decision_per_call(self, monkeypatch, a):
        """diagonalize decides Hermiticity once, by the matrix layer's test."""
        calls = []
        test = M.hermitian_part

        def counted(x):
            calls.append(x)
            return test(x)

        monkeypatch.setattr(M, "hermitian_part", counted)
        monkeypatch.setattr(G, "hermitian_part", counted)
        try:
            G.diagonalize(a)
        except LatticeError:
            pass
        assert len(calls) == 1


class TestExactPairs:
    def test_sum_of_two_diagonals(self):
        alg = G.DiagonalAlgebra.of_dimension(2)
        out = G.gelfand_transform(alg, np.array([1.0, 2.0]) + np.array([3.0, 4.0]))
        assert out.tolist() == [4.0 + 0j, 6.0 + 0j]

    def test_product_with_an_inverse(self):
        alg = G.DiagonalAlgebra.of_dimension(2)
        out = G.gelfand_transform(alg, np.array([1.0, 2.0]) * np.array([1.0, 0.5]))
        assert out.tolist() == [1.0 + 0j, 1.0 + 0j]

    def test_zero_scalar(self):
        alg = G.DiagonalAlgebra.of_dimension(2)
        out = G.gelfand_transform(alg, 0.0 * np.array([1.0, 2.0]))
        assert out.tolist() == [0j, 0j]
