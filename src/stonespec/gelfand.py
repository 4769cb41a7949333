"""Abelian (diagonal) algebra layer: orthogonal representations, the
transform onto functions on the Stone spectrum, and its character/identity
checks.

The algebra is always the diagonal algebra of C^n in a fixed basis; an
arbitrary maximal abelian subalgebra is reached by conjugating with a
phase-fixed eigenbasis unitary from the matrix layer.  Complex entries are
compared exactly after a single snap at ingestion.  The transform reads no
lattice; the spectral family of a selfadjoint diagonal comes from the
matrix layer's one builder of Boolean families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeError
from .matrix import (NORMAL_TOL, SNAP_TOL, _boolean_family, _fix_phases, finite_eigh,
                     hermitian_part)
from .spectral import mirrored_fn, observable_fn


def snap_entries(entries) -> np.ndarray:
    """Merge entries within SNAP_TOL times the largest finite real or
    imaginary part of an entry onto one representative, so that scaling the
    entries does not change which of them merge."""
    vals = np.asarray(entries, dtype=np.complex128).reshape(-1)
    parts = np.abs(np.ascontiguousarray(vals).view(np.float64))
    size = float(parts.max(initial=0.0))
    if not math.isfinite(size):
        size = float(parts[np.isfinite(parts)].max(initial=0.0))
    tol = SNAP_TOL * size
    order = np.lexsort((vals.imag, vals.real))
    out = vals.copy()
    items = vals.tolist()  # Python arithmetic overflows to inf without a warning
    rep = None
    for idx in order.tolist():
        v = items[idx]
        if rep is not None and abs(v - rep) <= tol:
            out[idx] = rep
        else:
            rep = v
    return out


@dataclass(frozen=True)
class DiagonalAlgebra:
    """Diagonal matrices in a fixed orthonormal basis of C^n.

    Its projection lattice is the Boolean lattice 2^n, the i-th atom the
    projection onto the i-th basis vector; the quasipoints are the atom
    filters, one per basis vector.  Only :func:`diagonal_spectral_family`
    builds 2^n, through the matrix layer's one builder of Boolean families.
    """

    n: int

    @classmethod
    def of_dimension(cls, n: int) -> "DiagonalAlgebra":
        return cls(n)

    def check_entries(self, entries) -> np.ndarray:
        vals = np.asarray(entries, dtype=np.complex128).reshape(-1)
        if vals.shape != (self.n,):
            raise LatticeError(f"expected {self.n} diagonal entries")
        return snap_entries(vals)


@dataclass(frozen=True)
class OrthogonalRepresentation:
    """Distinct coefficients on pairwise disjoint basis-index subsets."""

    coefficients: tuple[complex, ...]
    supports: tuple[tuple[int, ...], ...]


def orthogonal_representation(
    alg: DiagonalAlgebra, entries
) -> OrthogonalRepresentation:
    """Group equal entries; zero coefficients contribute no term."""
    vals = alg.check_entries(entries)
    groups: dict[complex, list[int]] = {}
    for i, v in enumerate(vals):
        groups.setdefault(complex(v), []).append(i)
    coeffs = []
    supports = []
    for v, idxs in sorted(groups.items(), key=lambda kv: (kv[0].real, kv[0].imag)):
        if v == 0:
            continue
        coeffs.append(v)
        supports.append(tuple(idxs))
    return OrthogonalRepresentation(tuple(coeffs), tuple(supports))


def gelfand_transform(alg: DiagonalAlgebra, entries) -> np.ndarray:
    """Value of the transform at each quasipoint (one per basis atom): the
    snapped entry at its basis index, as in the characteristic-function sum
    the tests compare with; + 0.0 turns -0.0 into the sum's +0.0."""
    return alg.check_entries(entries) + 0.0


def diagonal_spectral_family(alg: DiagonalAlgebra, entries):
    """Spectral family of a real diagonal over the algebra's lattice 2^n.

    Thresholds are the distinct (snapped) entries; each value is the join of
    the basis atoms whose entries lie at or below the threshold.
    """
    vals = alg.check_entries(entries)
    if np.abs(vals.imag).max(initial=0.0) != 0.0:
        raise LatticeError("spectral families need selfadjoint (real) entries")
    return _boolean_family(vals.real)


@dataclass
class HomomorphismReport:
    passed: bool
    pairs: int
    additive_ok: bool
    multiplicative_ok: bool
    scalar_ok: bool
    isometry_error: float  # max |sup|fa| / sup|a| - 1| over the pairs


def verify_homomorphism(
    alg: DiagonalAlgebra, rng: np.random.Generator, pairs: int = 100
) -> HomomorphismReport:
    """Transform respects +, *, scalar action exactly and is isometric for
    the sup norm (within the snap tolerance, relative to the sup norm)."""
    add_ok = mul_ok = sca_ok = True
    iso_err = 0.0
    for _ in range(pairs):
        a = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
        b = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
        c = complex(rng.standard_normal(), rng.standard_normal())
        fa, fb = gelfand_transform(alg, a), gelfand_transform(alg, b)
        if not (gelfand_transform(alg, a + b) == fa + fb).all():
            add_ok = False
        if not (gelfand_transform(alg, a * b) == fa * fb).all():
            mul_ok = False
        if not (gelfand_transform(alg, c * a) == c * fa).all():
            sca_ok = False
        iso_err = max(iso_err, abs(float(np.abs(fa).max()) / float(np.abs(a).max()) - 1))
    passed = add_ok and mul_ok and sca_ok and iso_err <= SNAP_TOL
    return HomomorphismReport(passed, pairs, add_ok, mul_ok, sca_ok, iso_err)


@dataclass
class CharacterReport:
    passed: bool
    checked: int
    failures: list[tuple[int, int]] = field(default_factory=list)


def verify_characters(alg: DiagonalAlgebra) -> CharacterReport:
    """Evaluation at a quasipoint is the 0/1 membership character on every
    projection."""
    rep = CharacterReport(passed=True, checked=0)
    for mask in range(1, 1 << alg.n):
        entries = np.array([1.0 if mask >> i & 1 else 0.0 for i in range(alg.n)])
        transform = gelfand_transform(alg, entries)
        for i in range(alg.n):
            rep.checked += 1
            want = 1.0 if mask >> i & 1 else 0.0
            if transform[i] != want:
                rep.failures.append((mask, i))
    rep.passed = not rep.failures
    return rep


@dataclass
class GelfandIdentityReport:
    passed: bool
    mirrored_ok: bool


def verify_gelfand_identity(alg: DiagonalAlgebra, entries) -> GelfandIdentityReport:
    """For a selfadjoint diagonal the observable function of its spectral
    family coincides with the transform on every quasipoint, exactly; the
    mirrored table agrees as well (the distributive case)."""
    E = diagonal_spectral_family(alg, entries)
    atoms = E.lattice.atom_index()  # in basis order: atom i is basis vector i's
    f = observable_fn(E).values[atoms].tolist()
    ok = f == gelfand_transform(alg, entries).real.tolist()
    mirrored_ok = mirrored_fn(E).values[atoms].tolist() == f
    return GelfandIdentityReport(ok and mirrored_ok, mirrored_ok)


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """z * 2^e for complex z: exact in the normal range, inf past the float limit."""
    out = np.empty_like(z)
    with np.errstate(over="ignore"):
        out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
    return out


def diagonalize(a) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed eigenbasis unitary and the diagonal entries it produces.

    Every tolerance is a matrix-layer constant times |A| = max |A_ij|, with no
    absolute floor, so a verdict does not change when A is scaled: A is
    Hermitian iff hermitian_part accepts it, the one test of as_hermitian;
    otherwise its Hermitian parts must commute within NORMAL_TOL |A|^2, and
    their joint eigenbasis must leave V^H A V off-diagonal within NORMAL_TOL |A|.
    Below |A| of about 2e-296 the Hermitian test tightens toward exact symmetry.
    """
    A = np.asarray(a, dtype=np.complex128)
    h = hermitian_part(A)
    if h is not None:
        w, V = finite_eigh(h)
        return _fix_phases(V), w.astype(np.complex128)
    # normal non-Hermitian diagonals arise from complex entries; diagonalize
    # the Hermitian parts jointly only when they commute.  They are formed
    # from q = A / 2^e, 1/2 <= |q| < 1, so no sum or product overflows or
    # underflows: scaling by a power of two is exact in the normal range and
    # eigh is equivariant under it, so below the float limit V and the entries
    # are A's own, and each test on q is A's own times a power of 2^-e
    e = int(np.frexp(float(np.abs(A / 2).max()))[1]) + 1
    q = _ldexp(A, -e)
    size = float(np.abs(q).max())
    h1 = (q + q.conj().T) / 2
    h2 = (q - q.conj().T) / 2j
    if not (np.abs(h1 @ h2 - h2 @ h1).max() <= NORMAL_TOL * size**2):
        raise LatticeError("matrix is not normal; no abelian algebra contains it")
    w, V = finite_eigh(h1 + np.pi * h2)  # generic combination splits ties
    V = _fix_phases(V)
    d = V.conj().T @ q @ V
    if not (np.abs(d - np.diag(np.diagonal(d))).max() <= NORMAL_TOL * size):
        raise LatticeError("joint diagonalization failed")
    entries = _ldexp(np.diagonal(d), e)
    if not np.isfinite(entries).all():
        raise ValueError("the eigendecomposition is not finite: matrix entries are too large")
    return V, entries
