"""Checks of ``verify`` that can fail, and its tolerance rule.

Each row of the mutation table names a mutation: a monkeypatch of the function
that a check claims to test.  Under it the check must read FAIL or ERROR.  The
rows cover every comparison of ``verify.py`` that reads a matrix-layer
tolerance, the rebuild oracle ``matrix.verify_ray_rebuild`` that three checks
share, and the relative cluster width.  A numeric mutation moves a value by k
times the tolerance it is compared within: at k = 2 its check fails, so the
relative tolerances have teeth, and at k = 1/2 it passes, so they are no
tighter than their constants.  Each row runs its suite or criterion once, at
seed 7.
"""

import ast
import dataclasses
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from stonespec import gelfand, matrix, verify
from stonespec.matrix import MAT_TOL, NORMAL_TOL, PROJECTOR_TOL, REBUILD_TOL

SEED = 7


def test_verify_holds_no_tolerance_literal():
    """verify.py compares matrix-layer numbers only within the named tolerances
    of matrix.py: it holds no float or complex constant with 0 < |x| < 1e-6."""
    tree = ast.parse(Path(verify.__file__).read_text())
    literals = [
        f"verify.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
        and 0 < abs(node.value) < 1e-6
    ]
    assert literals == []


# ---------------------------------------------------------------------------
# runs: a suite, or a criterion alone, so that a mutation of every other call
# counts from the criterion's first call


def translation(seed):
    return [verify.criterion_translation_and_step_approx(seed)]


def ray_layer(seed):
    return [verify.criterion_ray_layer(seed)]


# ---------------------------------------------------------------------------
# mutations


def norm(a) -> float:
    return matrix._as_decomp(a).norm()


def moved(name, every=1):
    """matrix.<name> with the value of every `every`-th call, from the first,
    k MAT_TOL ||A|| higher.  With every = 2 one side of each compared pair
    moves, whatever the pair's order."""

    def at(k):
        def apply(monkeypatch):
            fn, calls = getattr(matrix, name), itertools.count()

            def mutant(a, *args):
                value = fn(a, *args)
                return value + k * MAT_TOL * norm(a) if next(calls) % every == 0 else value

            monkeypatch.setattr(matrix, name, mutant)
        return apply
    return at


def expectation_outside(side):
    """ray_table with <Ax,x> k MAT_TOL ||A|| above f (side 1) or below g (side -1)."""

    def at(k):
        def apply(monkeypatch):
            fn = matrix.ray_table

            def mutant(a, X):
                t = fn(a, X)
                edge = t.f if side > 0 else t.g
                return dataclasses.replace(t, expectation=edge + side * k * MAT_TOL * norm(a))

            monkeypatch.setattr(matrix, "ray_table", mutant)
        return apply
    return at


def rebuilt_off(k):
    """reconstruct_from_rays with its first projector E scaled by 1 + k REBUILD_TOL
    / ||E||_F, so that the family is k REBUILD_TOL off in Frobenius norm."""

    def apply(monkeypatch):
        fn = matrix.reconstruct_from_rays

        def mutant(oracle, probes):
            fam = fn(oracle, probes)
            first = fam.bases[0]
            first = first * np.sqrt(1 + k * REBUILD_TOL / np.sqrt(first.shape[1]))
            return matrix.ProjectorFamily(fam.thresholds, (first, *fam.bases[1:]))

        monkeypatch.setattr(matrix, "reconstruct_from_rays", mutant)
    return apply


def projection_off(k):
    """EigenDecomposition.projection with every entry k PROJECTOR_TOL higher."""

    def apply(monkeypatch):
        fn = matrix.EigenDecomposition.projection
        monkeypatch.setattr(matrix.EigenDecomposition, "projection",
                            lambda d, c: fn(d, c) + k * PROJECTOR_TOL)
    return apply


def entries_off(k):
    """gelfand.diagonalize with every entry k NORMAL_TOL |A| higher, |A| = max |A_ij|."""

    def apply(monkeypatch):
        fn = gelfand.diagonalize

        def mutant(a):
            U, entries = fn(a)
            return U, entries + k * NORMAL_TOL * np.abs(a).max()

        monkeypatch.setattr(gelfand, "diagonalize", mutant)
    return apply


def aligned_steps_only(monkeypatch):
    """projector_distance over the aligned steps, without comparing the step
    counts or thresholds: an unresolved rebuild reads as a finite near miss."""
    monkeypatch.setattr(matrix, "projector_distance", lambda f1, f2: max(
        float(np.linalg.norm(p @ p.conj().T - q @ q.conj().T))
        for p, q in zip(f1.bases, f2.bases)))


def absolute_floor(monkeypatch):
    """eig clustering within CLUSTER_SCALE max(1, ||A||), the absolute floor
    that the relative cluster width replaced.  Far below norm 1 it merges the
    clusters, and eig's relative residual bound then refuses the merged means."""
    fn = matrix._cluster_starts
    monkeypatch.setattr(matrix, "_cluster_starts",
                        lambda w, ctol: fn(w, max(ctol, matrix.CLUSTER_SCALE)))


# (run, check, mutation at k tolerances, part of the failing line)
SCALED = [
    pytest.param(translation, "translation-and-step-approximation", moved("spectrum", 2),
                 "matrix spectrum does not translate", id="translation:spectrum"),
    pytest.param(translation, "translation-and-step-approximation", moved("ray_obs", 2),
                 "ray value does not translate", id="translation:ray_obs"),
    pytest.param(ray_layer, "ray-layer", expectation_outside(1),
                 "sandwich violations", id="ray-layer:expectation-above-f"),
    pytest.param(ray_layer, "ray-layer", expectation_outside(-1),
                 "sandwich violations", id="ray-layer:expectation-below-g"),
    pytest.param(ray_layer, "ray-layer", rebuilt_off,
                 "reconstruction 0 off by", id="ray-layer:rebuild"),
    pytest.param(verify.suite_matrix, "matrix/structured-probe-recovery", rebuilt_off,
                 "FAIL matrix/structured-probe-recovery", id="structured-probe-recovery:rebuild"),
    pytest.param(verify.suite_matrix, "matrix/pauli-x", projection_off,
                 "FAIL matrix/pauli-x", id="pauli-x:projection"),
    pytest.param(verify.suite_matrix, "matrix/sandwich-example", moved("expectation"),
                 "FAIL matrix/sandwich-example", id="sandwich-example:expectation"),
    pytest.param(verify.suite_matrix, "matrix/unitary-covariance", moved("ray_obs", 2),
                 "FAIL matrix/unitary-covariance", id="unitary-covariance:ray_obs"),
    pytest.param(verify.suite_gelfand, "gelfand/diagonalization", entries_off,
                 "FAIL gelfand/diagonalization", id="diagonalization:entries"),
]

# (run, check, mutation, part of the failing line)
FIXED = [
    pytest.param(verify.suite_matrix, "matrix/unresolved-probes-detectable", aligned_steps_only,
                 "FAIL matrix/unresolved-probes-detectable", id="unresolved-probes:distance"),
    pytest.param(verify.suite_matrix, "matrix/scaled-spectrum", absolute_floor,
                 "ERROR matrix/scaled-spectrum [EigenError", id="scaled-spectrum:absolute-floor"),
]


def outcome(run, check) -> verify.Check:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # band warnings of moved ray values
        return next(c for c in run(SEED) if c.name == check)


def assert_fails(run, check, line):
    got = outcome(run, check).line()
    assert got.startswith(("FAIL ", "ERROR ")) and line in got, got


@pytest.mark.parametrize("run, check, mutation, line", SCALED)
def test_twice_the_tolerance_fails(monkeypatch, run, check, mutation, line):
    mutation(2)(monkeypatch)
    assert_fails(run, check, line)


@pytest.mark.parametrize("run, check, mutation, line", SCALED)
def test_half_the_tolerance_passes(monkeypatch, run, check, mutation, line):
    mutation(0.5)(monkeypatch)
    got = outcome(run, check)
    assert got.passed, got.line()


@pytest.mark.parametrize("run, check, mutation, line", FIXED)
def test_mutation_fails_its_check(monkeypatch, run, check, mutation, line):
    mutation(monkeypatch)
    assert_fails(run, check, line)
