import tracemalloc
import warnings

import numpy as np
import pytest

from stonespec import matrix as M
from stonespec.lattice import verify_structure
from stonespec.spectral import observable_fn

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestEig:
    def test_degenerate_diagonal(self):
        d = M.eig(np.diag([1.0, 2.0, 2.0]))
        assert d.values.tolist() == [1.0, 2.0]
        assert int(round(float(np.trace(d.projection(1)).real))) == 2

    def test_pauli_x(self):
        d = M.eig(PAULI_X)
        assert d.values.tolist() == [-1.0, 1.0]
        plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
        assert np.abs(d.projection(1) - np.outer(plus, plus.conj())).max() < 1e-12

    def test_zero_matrix(self):
        d = M.eig(np.zeros((4, 4)))
        assert d.values.tolist() == [0.0]
        assert np.abs(d.projection(0) - np.eye(4)).max() == 0.0

    def test_rejects_non_hermitian(self):
        for refuse in (M.as_hermitian, M.eig):
            with pytest.raises(M.NotHermitianError, match="Hermitian"):
                refuse(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert issubclass(M.NotHermitianError, ValueError)

    def test_consistency_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d = M.eig(M.random_hermitian(n, rng))
            projections = np.stack([d.projection(i) for i in range(d.m)])
            assert np.abs(projections.sum(axis=0) - np.eye(n)).max() < 1e-9
            for i in range(d.m):
                for j in range(i + 1, d.m):
                    assert np.abs(projections[i] @ projections[j]).max() < 1e-9
            recon = np.tensordot(d.values, projections, axes=1)
            assert np.abs(recon - d.matrix).max() < M.CLUSTER_SCALE * d.norm()

    def test_builds_no_projector_stack(self):
        # the (m, n, n) stack of 256 distinct eigenprojections alone is 256 MB
        A = M.random_hermitian(256, np.random.default_rng(5))
        tracemalloc.start()
        try:
            d = M.eig(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.m == 256
        assert peak < 32 * 2**20

    def test_clustering_merges_roundoff(self):
        base = np.diag([1.0, 1.0 + 1e-12, 3.0])
        d = M.eig(base)
        assert d.m == 2

    def test_cluster_whose_sum_overflows(self):
        """Four eigenvalues of 1e308 sum past the float limit; their mean does not."""
        with np.errstate(all="raise"):
            d = M.eig(np.diag([1e308, 1e308, 1e308, 1e308, 1.0]))
        assert d.values.tolist() == [1.0, 1e308]

    def test_mixed_eigenbasis_fails_the_gram_test(self, monkeypatch):
        # column 0 leans 1e-6 into column 2: P_0 P_2 != 0, yet the residual
        # is exact, since the eigenvalue of column 0 is zero
        eigh = np.linalg.eigh

        def mixed(a):
            w, V = eigh(a)
            V[:, 0] += 1e-6 * V[:, 2]
            return w, V

        A = np.diag([0.0, 0.0, 1.0])
        assert M.eig(A).m == 2
        monkeypatch.setattr(np.linalg, "eigh", mixed)
        with pytest.raises(M.EigenError, match="not orthonormal"):
            M.eig(A)

    def test_shifted_eigenvalue_fails_the_residual_test(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(a):
            w, V = eigh(a)
            w[-1] += 1e-6
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(M.EigenError, match="does not reproduce"):
            M.eig(np.diag([1.0, 2.0, 3.0]))


class TestBridge:
    def test_family_over_generated_lattice(self):
        d = M.eig(np.diag([1.0, 2.0, 2.0]))
        E = M.spectral_family_of(d)
        assert E.lattice.n == 4  # two clusters -> 2^2
        assert E.jumps() == [(1.0, 1), (2.0, 3)]
        assert verify_structure(E.lattice).is_boolean

    def test_projection_family_shape(self):
        # a projection jumps at 0 (complement) and 1 (identity)
        P = np.diag([1.0, 0.0])
        E = M.spectral_family_of(P)
        assert [l for l, _ in E.jumps()] == [0.0, 1.0]

    def test_zero_operator(self):
        E = M.spectral_family_of(np.zeros((2, 2)))
        assert E.jumps() == [(0.0, 1)]

    def test_spectrum_identity(self):
        rng = np.random.default_rng(32)
        assert M.verify_spectrum_identity(np.diag([1.0, 2.0, 2.0])).passed
        assert M.verify_spectrum_identity(PAULI_X).passed
        assert M.verify_spectrum_identity(3.5 * np.eye(4)).passed
        for _ in range(20):
            n = int(rng.integers(2, 9))
            assert M.verify_spectrum_identity(M.random_hermitian(n, rng)).passed

    def test_atom_filters_carry_eigenvalues(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            d = M.eig(M.random_hermitian(int(rng.integers(2, 7)), rng))
            f = observable_fn(M.spectral_family_of(d))
            for i in range(d.m):
                assert float(f.values[1 << i]) == float(d.values[i])


class TestRays:
    def test_eigenvector_rays(self):
        A = np.diag([1.0, 2.0, 3.0])
        assert M.ray_obs(A, [1, 0, 0]) == 1.0
        assert M.ray_obs(A, [0, 0, 1]) == 3.0

    def test_max_rule(self):
        A = np.diag([1.0, 2.0, 3.0])
        assert M.ray_obs(A, [1, 1, 0]) == 2.0
        assert M.ray_obs(A, [1, 1, 1]) == 3.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            M.ray_obs(np.eye(2), [0, 0])

    def test_mirror_and_expectation(self):
        A = np.diag([1.0, 2.0])
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        assert M.mirrored_ray(A, x) == 1.0
        assert abs(M.expectation(A, x) - 1.5) < 1e-12
        assert M.ray_obs(A, x) == 2.0

    def test_unnormalized_input_is_normalized(self):
        A = np.diag([0.0, 10.0])
        assert abs(M.expectation(A, [3.0, 1.0]) - 1.0) < 1e-12

    def test_sandwich(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d = M.eig(M.random_hermitian(n, rng))
            for _ in range(100):
                x = M.random_ray(n, rng)
                g, e, f = M.mirrored_ray(d, x), M.expectation(d, x), M.ray_obs(d, x)
                assert g <= e + 1e-9 and e <= f + 1e-9

    def test_eigenvector_collapses_sandwich(self):
        d = M.eig(np.diag([1.0, 2.0]))
        x = np.array([0.0, 1.0])
        assert M.mirrored_ray(d, x) == M.ray_obs(d, x) == 2.0
        assert abs(M.expectation(d, x) - 2.0) < 1e-12

    def test_conditioning_warning(self):
        A = np.diag([1.0, 2.0])
        x = np.array([1.0, 1e-9])
        with pytest.warns(UserWarning, match="ill-conditioned"):
            M.ray_obs(A, x)

    def test_translation_covariance(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = M.random_hermitian(n, rng)
            a = float(rng.normal(0, 5))
            x = M.random_ray(n, rng)
            assert abs(
                M.ray_obs(A + a * np.eye(n), x) - (a + M.ray_obs(A, x))
            ) <= 1e-9

    def test_unitary_covariance(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = M.random_hermitian(n, rng)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            U, _ = np.linalg.qr(g)
            x = M.random_ray(n, rng)
            assert abs(M.ray_obs(U @ A @ U.conj().T, U @ x) - M.ray_obs(A, x)) <= 1e-9

    def test_ray_axioms(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            rep = M.verify_ray_axioms(M.random_hermitian(n, rng), rng, samples=300)
            assert rep.passed

    def test_span_degenerate_triple(self):
        d = M.eig(np.diag([1.0, 2.0]))
        x = M.random_ray(2, np.random.default_rng(0))
        assert M.ray_obs(d, x) <= max(M.ray_obs(d, x), M.ray_obs(d, x))

    def test_complex_observable(self):
        val = M.complex_observable(np.diag([1.0 + 1j, 2.0 - 3j]), [1, 1])
        assert val == complex(2.0, 1.0)

    def test_complex_observable_near_the_float_limit(self):
        """The Hermitian parts are formed from m / 2, as hermitian_part forms
        them: m + m^H of diag(1.2e308 + i, 1) overflows, its parts do not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = M.complex_observable(np.diag([1.2e308 + 1j, 1.0]), [1, 1])
        assert val == complex(1.2e308, 1.0)


class TestRayReconstruction:
    def test_hidden_diagonal_with_default_probes(self):
        rng = np.random.default_rng(38)
        assert M.verify_ray_rebuild(np.diag([1.0, 2.0, 2.0]), M.default_probes(3, rng))[0]

    def test_hidden_scalar(self):
        rng = np.random.default_rng(39)
        hidden = M.eig(2.5 * np.eye(3))
        fam = M.reconstruct_from_rays(
            lambda x: M.ray_obs(hidden, x), M.default_probes(3, rng)
        )
        assert fam.k == 1 and fam.thresholds.tolist() == [2.5]

    def test_hidden_pauli_x_needs_a_difference_probe(self):
        rng = np.random.default_rng(40)
        probes = M.default_probes(2, rng) + [np.array([1.0, -1.0])]
        assert M.verify_ray_rebuild(PAULI_X, probes)[0]

    def test_random_matrices_with_resolving_probes(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            d = M.eig(M.random_hermitian(n, rng))
            assert M.verify_ray_rebuild(d, M.resolving_probes(d, rng))[0]

    def test_generic_spectrum_unresolved_is_loud(self):
        rng = np.random.default_rng(42)
        d = M.eig(M.random_hermitian(4, rng))
        try:
            assert M.verify_ray_rebuild(d, M.default_probes(4, rng))[1] == float("inf")
        except M.ProbeResolutionError:
            pass

    def test_rebuild_oracle(self):
        """verify_ray_rebuild rebuilds from ray_obs and compares with
        projector_family_of, within REBUILD_TOL."""
        rng = np.random.default_rng(44)
        d = M.eig(M.random_hermitian(5, rng))
        probes = M.resolving_probes(d, rng)
        fam = M.reconstruct_from_rays(lambda x: M.ray_obs(d, x), probes)
        dist = M.projector_distance(fam, M.projector_family_of(d))
        assert M.verify_ray_rebuild(d, probes) == (True, dist)
        assert dist <= M.REBUILD_TOL
        # e1 and e2 both reach the top eigenvalue of Pauli X: one step, not two
        assert M.verify_ray_rebuild(PAULI_X, list(np.eye(2))) == (False, float("inf"))
        with pytest.raises(M.ProbeResolutionError):
            M.verify_ray_rebuild(np.diag([1.0, 2.0, 3.0]), [np.eye(3)[0]] * 3)

    def test_infsup_extension(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            rep = M.verify_infsup_extension(M.random_hermitian(n, rng), rng, rays=15)
            assert rep.passed


class TestStepApprox:
    def test_two_level(self):
        A = np.diag([0.0, 1.0])
        _, rep = M.step_approx(A, 0.1)
        assert rep.passed and rep.f_distance <= 0.1 and rep.op_distance <= 0.1

    def test_wide_mesh_collapses_to_scalar(self):
        A = np.diag([0.0, 1.0])
        a_eps, rep = M.step_approx(A, 5.0)
        assert rep.passed
        assert np.abs(a_eps - a_eps[0, 0] * np.eye(2)).max() < 1e-12

    def test_grid_aligned_step_operator(self):
        A = np.diag([0.0, 1.0, 2.0])
        _, rep = M.step_approx(A, 1.0)
        assert rep.passed and rep.closed_form_ok

    def test_eps_sweep(self):
        rng = np.random.default_rng(44)
        for eps in (1.0, 0.1, 0.01):
            for _ in range(5):
                n = int(rng.integers(2, 7))
                _, rep = M.step_approx(M.random_hermitian(n, rng), eps)
                assert rep.passed, (eps, rep)

    def test_rejects_nonpositive_eps(self):
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                M.step_approx(np.eye(2), eps)

    def test_refuses_past_the_budget_before_the_step_operator(self):
        """16 distinct midpoints at n = 512: 2^16 elements are past the lattice
        budget, and the refusal comes before A_eps, so the call allocates less
        than one n x n complex array (4 MB)."""
        n = 512
        d = M.eig(np.diag(np.repeat(np.arange(16.0), n // 16)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="65536 elements .* past the cap of 1 GiB"):
                M.step_approx(d, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16


class TestRefusals:
    """The refusals no other test reaches."""

    def test_hermitian_part_refuses_non_square(self):
        for a in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="expected a square matrix"):
                M.hermitian_part(a)

    def test_warn_band_warns_once_with_the_count(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M.warn_band(0, 10)
            assert not caught
            M.warn_band(3, 10)
        assert len(caught) == 1
        assert str(caught[0].message).startswith("3 of 10 rays have a component within the tolerance band")
        assert caught[0].filename == __file__

    def test_ray_table_refuses_a_block_of_the_wrong_shape(self):
        d = M.eig(np.diag([1.0, 2.0, 3.0]))
        for X in (np.ones((2, 4)), np.ones(3), np.ones((3, 2, 1))):
            with pytest.raises(ValueError, match="expected a block of 3-dimensional rays"):
                M.ray_table(d, X)

    def test_projector_distance_of_unaligned_families_is_inf(self):
        three = M.projector_family_of(np.diag([1.0, 2.0, 3.0]))
        two = M.projector_family_of(np.diag([1.0, 1.0, 3.0]))
        assert M.projector_distance(three, two) == float("inf")
        assert M.projector_distance(two, three) == float("inf")
        shifted = M.ProjectorFamily(three.thresholds + 1e-3, three.bases)
        assert M.projector_distance(three, shifted) == float("inf")
        assert M.projector_distance(three, three) == 0.0

    def test_rank_one_extension_refuses_trivial_range(self):
        rng = np.random.default_rng(0)
        for Q in (np.zeros((2, 2)), np.zeros((2, 1)), 1e-10 * np.eye(2)):
            with pytest.raises(ValueError, match="Q has trivial range"):
                M.rank_one_extension(np.diag([1.0, 2.0]), Q, rng)


class TestRankOne:
    def test_full_space(self):
        rng = np.random.default_rng(45)
        rep = M.rank_one_extension(np.diag([1.0, 2.0]), np.eye(2), rng)
        assert rep.value == 2.0 and rep.passed

    def test_coordinate_line(self):
        rng = np.random.default_rng(46)
        rep = M.rank_one_extension(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), rng)
        assert rep.value == 1.0 and rep.passed

    def test_mixed_line(self):
        rng = np.random.default_rng(47)
        Q = np.full((2, 2), 0.5)
        rep = M.rank_one_extension(np.diag([1.0, 2.0]), Q, rng)
        assert rep.value == 2.0 and rep.passed


class TestPlateaus:
    def test_examples(self):
        assert M.verify_eigenvalue_plateaus(np.diag([1.0, 2.0, 2.0])).passed
        assert M.verify_eigenvalue_plateaus(3.0 * np.eye(3)).passed
        assert M.verify_eigenvalue_plateaus(PAULI_X).passed

    def test_random(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            assert M.verify_eigenvalue_plateaus(M.random_hermitian(n, rng)).passed


class TestLargerSampledExamples:
    def test_thousand_span_triples_on_a_4x4(self):
        rng = np.random.default_rng(71)
        A = M.random_hermitian(4, rng)
        rep = M.verify_ray_axioms(A, rng, samples=1000)
        assert rep.passed and rep.span_violations == 0

    def test_hundred_ray_chains_on_a_3x3(self):
        rng = np.random.default_rng(72)
        A = M.random_hermitian(3, rng)
        rep = M.verify_infsup_extension(A, rng, rays=100)
        assert rep.passed and rep.checked == 100

    def test_spectrum_equals_ray_image_over_probes_and_eigenvectors(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            d = M.eig(M.random_hermitian(n, rng))
            values = {M.ray_obs(d, p) for p in M.default_probes(n, rng)}
            values |= {M.ray_obs(d, d.basis[:, j]) for j in range(n)}
            assert sorted(values) == d.values.tolist()
