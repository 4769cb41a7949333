"""Numerical layer: Hermitian matrices, eigenprojections, ray values and the
bridge into finite Boolean lattices.

All tolerances live here; the lattice layer stays exact.  The comparison
tolerance used by the verification helpers can be overridden with the
``OBS_EPS`` environment variable.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import boolean_lattice
from .spectral import SpectralFamily, make_spectral_family, observable_fn

HERM_TOL = 1e-12
RAY_TOL = 1e-9
CLUSTER_SCALE = 1e-8
WARN_BAND = (1e-12, 1e-6)


def mat_tol(default: float = 1e-9) -> float:
    """Matrix-layer comparison tolerance; OBS_EPS overrides it."""
    raw = os.environ.get("OBS_EPS", "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(f"ignoring unparsable OBS_EPS={raw!r}")
        return default


class EigenError(RuntimeError):
    """The eigendecomposition failed its internal consistency checks."""


class ProbeResolutionError(RuntimeError):
    """A probe set does not resolve all spectral subspaces."""


def as_hermitian(a) -> np.ndarray:
    """Validate near-Hermitian input and return its symmetrized copy."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (a + a.conj().T) / 2


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    significant = np.abs(vectors) > RAY_TOL
    cols = np.flatnonzero(significant.any(axis=0))
    pivot = vectors[significant.argmax(axis=0)[cols], cols]
    out = vectors.copy()
    # hypot, as abs() of a complex scalar: np.abs of an array may round differently
    out[:, cols] *= np.hypot(pivot.real, pivot.imag) / pivot
    return out


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Distinct (clustered) eigenvalues over a phase-fixed eigenbasis V, where cluster c
    owns the columns V_c from starts[c] up to the next start.  No projection is stored:
    ``projection(c)`` builds P_c = V_c V_c^H when asked."""

    matrix: np.ndarray
    values: np.ndarray        # (m,) ascending cluster representatives
    basis: np.ndarray         # (n, n) phase-fixed eigenvector columns
    starts: np.ndarray        # (m,) first basis column of each cluster

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return len(self.values)

    def projection(self, c: int) -> np.ndarray:
        """Spectral projection of cluster c, a Hermitian idempotent."""
        stop = self.starts[c + 1] if c + 1 < self.m else self.n
        vc = self.basis[:, self.starts[c]:stop]
        return vc @ vc.conj().T

    def cumulative(self) -> np.ndarray:
        return np.cumsum(np.stack([self.projection(c) for c in range(self.m)]), axis=0)

    def norm(self) -> float:
        return float(np.abs(self.values).max())


def eig(a) -> EigenDecomposition:
    """Eigendecomposition with gap-based clustering of nearly equal eigenvalues, checked
    by ||V^H V - I||_F <= 1e-9 (it bounds sum P_c - I and each P_i P_j) and the residual
    of V diag(lambda_c of each column) V^H, which is sum lambda_c P_c without any P_c."""
    A = as_hermitian(a)
    n = A.shape[0]
    w, V = np.linalg.eigh(A)
    V = _fix_phases(V)
    norm = float(np.abs(w).max(initial=0.0))
    ctol = CLUSTER_SCALE * max(1.0, norm)
    starts = np.r_[0, np.flatnonzero(np.diff(w) >= ctol) + 1]
    clusters = np.split(np.arange(n), starts[1:])
    values = np.array([float(np.mean(w[c])) for c in clusters])
    if np.linalg.norm(V.conj().T @ V - np.eye(n)) > 1e-9:
        raise EigenError("eigenbasis is not orthonormal")
    recon = (V * np.repeat(values, [len(c) for c in clusters])) @ V.conj().T
    if np.abs(recon - A).max() > 1e-8 * max(1.0, norm):
        raise EigenError("spectral resolution does not reproduce the matrix")
    return EigenDecomposition(A, values, V, starts)


def _as_decomp(a) -> EigenDecomposition:
    return a if isinstance(a, EigenDecomposition) else eig(a)


def spectrum(a) -> np.ndarray:
    return _as_decomp(a).values.copy()


# ---------------------------------------------------------------------------
# bridge into the lattice layer


def spectral_family_of(a) -> SpectralFamily:
    """Family over the Boolean lattice generated by the eigenprojections.

    The lattice is 2^m with one atom per distinct eigenvalue; an element
    index is the bitmask of the projections it sums.
    """
    d = _as_decomp(a)
    L = boolean_lattice(d.m, [f"p{i + 1}" for i in range(d.m)])
    jumps = [(float(d.values[i]), (1 << (i + 1)) - 1) for i in range(d.m)]
    return make_spectral_family(L, jumps)


def element_projector(d: EigenDecomposition, mask: int) -> np.ndarray:
    """Matrix projector for a Boolean-lattice element (a bitmask of atoms)."""
    atoms = (d.projection(i) for i in range(d.m) if mask >> i & 1)
    return sum(atoms, np.zeros((d.n, d.n), dtype=np.complex128))


@dataclass
class SpectrumReport:
    passed: bool
    spectrum: np.ndarray
    image_quasipoints: np.ndarray
    image_ideals: np.ndarray
    max_error: float


def verify_spectrum_identity(a, tol: float | None = None) -> SpectrumReport:
    """The observable function's image over quasipoints, and over all dual
    ideals, is the spectrum."""
    tol = mat_tol(1e-9) if tol is None else tol
    d = _as_decomp(a)
    f = observable_fn(spectral_family_of(d))
    img_q = f.image("quasipoints")
    img_d = f.image("dual_ideals")
    sp = d.values
    err = float("inf")
    if len(img_q) == len(sp) and len(img_d) == len(sp):
        err = max(
            float(np.abs(img_q - sp).max()), float(np.abs(img_d - sp).max())
        )
    return SpectrumReport(err <= tol, sp.copy(), img_q, img_d, err)


# ---------------------------------------------------------------------------
# rays


def normalize_ray(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ValueError("the zero vector spans no ray")
    return x / nrm


def _component_norms(d: EigenDecomposition, x: np.ndarray) -> np.ndarray:
    """||P_c x|| for each cluster c, read as ||V_c^H x|| from the eigenbasis."""
    return np.sqrt(np.add.reduceat(np.abs(d.basis.conj().T @ x) ** 2, d.starts))


def _support(d: EigenDecomposition, x) -> np.ndarray:
    """Clusters the ray has a component in; warns on the conditioning band."""
    comps = _component_norms(d, normalize_ray(x))
    lo, hi = WARN_BAND
    if ((comps >= lo) & (comps <= hi)).any():
        warnings.warn(
            "ray component within the tolerance band; the support decision is "
            "ill-conditioned",
            stacklevel=3,
        )
    return np.flatnonzero(comps > RAY_TOL)


def ray_obs(a, x) -> float:
    """Largest eigenvalue whose spectral component of the ray is nonzero."""
    d = _as_decomp(a)
    return float(d.values[_support(d, x)[-1]])


def mirrored_ray(a, x) -> float:
    """Smallest eigenvalue whose spectral component of the ray is nonzero."""
    d = _as_decomp(a)
    return float(d.values[_support(d, x)[0]])


def expectation(a, x) -> float:
    """<Ax, x> for the normalized representative of the ray."""
    d = _as_decomp(a)
    x = normalize_ray(x)
    return float(np.real(np.vdot(x, d.matrix @ x)))


def complex_observable(m, x) -> complex:
    """Ray value of an arbitrary matrix via its Hermitian parts."""
    m = np.asarray(m, dtype=np.complex128)
    h1 = (m + m.conj().T) / 2
    h2 = (m - m.conj().T) / 2j
    return complex(ray_obs(h1, x), ray_obs(h2, x))


def random_ray(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalize_ray(v)


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# ray-level verification


@dataclass
class RayAxiomReport:
    passed: bool
    span_checked: int
    span_violations: int
    sublevel_checked: int
    sublevel_violations: int
    total_domain: bool = True


def verify_ray_axioms(
    a, rng: np.random.Generator, samples: int = 1000, tol: float | None = None
) -> RayAxiomReport:
    """Spot-check the ray-function axioms.

    The span law (a ray in the span of two others takes at most the larger
    value) is sampled on random triples; the sublevel criterion checks that
    f(x) <= lambda exactly when the cumulative projection fixes x.  Totality
    is trivial in finite dimension and only recorded.
    """
    tol = mat_tol(1e-9) if tol is None else tol
    d = _as_decomp(a)
    n = d.n
    span_bad = 0
    for _ in range(samples):
        x = random_ray(n, rng)
        y = random_ray(n, rng)
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        z = alpha * x + beta * y
        if np.linalg.norm(z) < 1e-9:
            continue
        if ray_obs(d, z) > max(ray_obs(d, x), ray_obs(d, y)) + tol:
            span_bad += 1
    cum = d.cumulative()
    sub_bad = 0
    sub_checked = 0
    probes = [random_ray(n, rng) for _ in range(16)]
    probes += [d.basis[:, j] for j in range(n)]
    for x in probes:
        comps = _component_norms(d, x)
        for i, lam in enumerate(d.values):
            sub_checked += 1
            f_below = bool(comps[i + 1:].max(initial=0.0) <= RAY_TOL)
            fixes = bool(np.linalg.norm(cum[i] @ x - x) <= 1e-9)
            if f_below != fixes:
                sub_bad += 1
    return RayAxiomReport(
        span_bad == 0 and sub_bad == 0,
        samples,
        span_bad,
        sub_checked,
        sub_bad,
    )


# ---------------------------------------------------------------------------
# reconstruction from ray data


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """Matrix-level spectral family: thresholds with cumulative projectors."""

    thresholds: np.ndarray   # (k,)
    projectors: np.ndarray   # (k, n, n) increasing, last = identity

    @property
    def k(self) -> int:
        return len(self.thresholds)


def projector_family_of(a) -> ProjectorFamily:
    d = _as_decomp(a)
    return ProjectorFamily(d.values.copy(), d.cumulative())


def projector_distance(f1: ProjectorFamily, f2: ProjectorFamily) -> float:
    """Max Frobenius distance between aligned steps; inf on shape mismatch."""
    if f1.k != f2.k:
        return float("inf")
    if np.abs(f1.thresholds - f2.thresholds).max() > mat_tol(1e-9):
        return float("inf")
    return float(
        max(
            np.linalg.norm(p - q)
            for p, q in zip(f1.projectors, f2.projectors)
        )
    )


def default_probes(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Standard basis, pairwise sums, complex pairwise sums, 4n random rays."""
    eye = np.eye(n, dtype=np.complex128)
    probes = [eye[:, j] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(normalize_ray(eye[:, i] + eye[:, j]))
            probes.append(normalize_ray(eye[:, i] + 1j * eye[:, j]))
    probes += [random_ray(n, rng) for _ in range(4 * n)]
    return probes


def resolving_probes(d: EigenDecomposition, rng: np.random.Generator) -> list[np.ndarray]:
    """A probe set that spans every cumulative spectral subspace: the
    eigenbasis columns plus the default structured set."""
    probes = [d.basis[:, j].copy() for j in range(d.n)]
    probes += default_probes(d.n, rng)
    return probes


def reconstruct_from_rays(oracle, probes) -> ProjectorFamily:
    """Rebuild a projector family from ray values alone.

    For each observed value the candidate subspace is the span of the probes
    at or below it.  Raises :class:`ProbeResolutionError` when the probes do
    not resolve the subspaces (ranks must strictly increase and reach the
    full dimension); a generic ray lies in no proper spectral subspace, so
    resolving probe sets must be built deliberately.
    """
    probes = [normalize_ray(p) for p in probes]
    n = len(probes[0])
    vals = np.array([float(oracle(p)) for p in probes])
    observed = np.unique(vals)
    thresholds = []
    projectors = []
    prev_rank = 0
    for lam in observed:
        sel = [p for p, v in zip(probes, vals) if v <= lam]
        mat = np.stack(sel, axis=1)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int((s > 1e-9 * s[0]).sum())
        if rank <= prev_rank:
            raise ProbeResolutionError(
                f"no new direction resolved at value {lam!r}"
            )
        prev_rank = rank
        basis = u[:, :rank]
        thresholds.append(float(lam))
        projectors.append(basis @ basis.conj().T)
    if prev_rank != n:
        raise ProbeResolutionError(
            f"probes resolve only {prev_rank} of {n} dimensions"
        )
    return ProjectorFamily(np.array(thresholds), np.stack(projectors))


@dataclass
class InfSupReport:
    passed: bool
    checked: int
    failures: list[float] = field(default_factory=list)


def verify_infsup_extension(
    a, rng: np.random.Generator, rays: int = 50, tol: float | None = None
) -> InfSupReport:
    """The induced value at an atomic quasipoint is the inf over a projector
    chain of the sup of ray values inside each projector, attained at the
    ray projector itself."""
    tol = mat_tol(1e-9) if tol is None else tol
    d = _as_decomp(a)
    n = d.n
    rep = InfSupReport(passed=True, checked=0)
    eye = np.eye(n, dtype=np.complex128)
    for _ in range(rays):
        y = random_ray(n, rng)
        fy = ray_obs(d, y)
        sups = []
        # chain: the ray projector, growing coordinate spans around y, identity
        spans = [[y]]
        order = rng.permutation(n)
        acc = [y]
        for j in order[:-1]:
            acc = acc + [eye[:, j]]
            spans.append(list(acc))
        spans.append([eye[:, j] for j in range(n)])
        for vecs in spans:
            mat = np.stack(vecs, axis=1)
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            basis = u[:, s > 1e-9]
            samples = [basis @ random_ray(basis.shape[1], rng) for _ in range(8)]
            samples.append(y)
            sups.append(max(ray_obs(d, v) for v in samples))
        rep.checked += 1
        if abs(min(sups) - fy) > tol or abs(sups[0] - fy) > tol:
            rep.failures.append(fy)
    rep.passed = not rep.failures
    return rep


# ---------------------------------------------------------------------------
# step approximation


@dataclass
class StepApproxReport:
    eps: float
    f_distance: float
    op_distance: float
    closed_form_ok: bool
    passed: bool


def step_approx(a, eps: float) -> tuple[np.ndarray, StepApproxReport]:
    """Replace the observable by a step operator on a mesh finer than eps.

    The grid straddles the spectrum by eps/2 on each side; the step operator
    takes each interval's midpoint on the spectral increment of that
    interval.  The report checks the two eps bounds and the closed-form
    evaluation of the step observable through the quasipoints of the
    generated lattice.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = _as_decomp(a)
    diam = float(d.values.max() - d.values.min())
    # straddle the spectrum tightly enough that one interval suffices
    # whenever eps exceeds the spectral diameter
    margin = (eps - diam) / 4 if eps > diam else eps / 2
    lo = float(d.values.min()) - margin
    hi = float(d.values.max()) + margin
    m = int(np.floor((hi - lo) / eps)) + 1
    grid = lo + (hi - lo) * np.arange(m + 1) / m
    mids = (grid[:-1] + grid[1:]) / 2
    a_eps = np.zeros_like(d.matrix)
    star = np.empty(d.m)
    for i, lam in enumerate(d.values):
        k = int(np.searchsorted(grid, lam, side="left")) - 1
        k = min(max(k, 0), m - 1)
        star[i] = mids[k]
        a_eps = a_eps + mids[k] * d.projection(i)
    f_dist = float(np.abs(d.values - star).max())
    op_dist = float(np.abs(np.linalg.eigvalsh(d.matrix - a_eps)).max())
    # the step observable over the lattice generated by the original
    # projections: one jump per distinct midpoint, cumulative atom masks
    L = spectral_family_of(d).lattice
    stars = np.unique(star)
    msk = 0
    step_jumps = []
    for u in stars:
        for i in range(d.m):
            if star[i] == u:
                msk |= 1 << i
        step_jumps.append((float(u), msk))
    f_step = observable_fn(make_spectral_family(L, step_jumps))
    # closed form: each atom filter sits in exactly one basis-set difference
    # and takes that interval's midpoint there
    closed_ok = True
    for i in range(d.m):
        if float(f_step.values[1 << i]) != float(star[i]):
            closed_ok = False
        hits = [k for k, (_, mask) in enumerate(step_jumps) if mask >> i & 1]
        if float(stars[hits[0]]) != float(star[i]):
            closed_ok = False
    passed = f_dist <= eps and op_dist <= eps and closed_ok
    return a_eps, StepApproxReport(eps, f_dist, op_dist, closed_ok, passed)


# ---------------------------------------------------------------------------
# rank-one data


@dataclass
class RankOneReport:
    value: float
    sup_matches: bool
    span_law_ok: bool
    passed: bool


def rank_one_extension(
    a, Q: np.ndarray, rng: np.random.Generator, samples: int = 64,
    tol: float | None = None,
) -> RankOneReport:
    """Extend ray data to a projector: the largest eigenvalue whose spectral
    projection meets the range of Q, cross-checked as the sup of ray values
    sampled inside that range."""
    tol = mat_tol(1e-9) if tol is None else tol
    d = _as_decomp(a)
    Q = np.asarray(Q, dtype=np.complex128)
    overlap = np.array([float(np.linalg.norm(d.projection(i) @ Q)) for i in range(d.m)])
    idx = np.flatnonzero(overlap > RAY_TOL)
    if idx.size == 0:
        raise ValueError("Q has trivial range")
    value = float(d.values[idx[-1]])
    u, s, _ = np.linalg.svd(Q)
    basis = u[:, s > 0.5]
    sup = max(
        ray_obs(d, basis @ random_ray(basis.shape[1], rng)) for _ in range(samples)
    )
    sup = max(sup, max(ray_obs(d, basis[:, j]) for j in range(basis.shape[1])))
    sup_ok = abs(sup - value) <= tol
    span_ok = True
    n = d.n
    for _ in range(16):
        y, z = random_ray(n, rng), random_ray(n, rng)
        w = normalize_ray(
            (rng.standard_normal() + 1j * rng.standard_normal()) * y
            + (rng.standard_normal() + 1j * rng.standard_normal()) * z
        )
        if ray_obs(d, w) > max(ray_obs(d, y), ray_obs(d, z)) + tol:
            span_ok = False
    return RankOneReport(value, sup_ok, span_ok, sup_ok and span_ok)


@dataclass
class PlateauReport:
    passed: bool
    eigen_rays_ok: bool
    plateau_ok: bool
    values_are_eigenvalues: bool


def verify_eigenvalue_plateaus(a, tol: float | None = None) -> PlateauReport:
    """Finite-dimensional plateau facts: eigenvector rays take their
    eigenvalue, the basis set of each jump projector sits inside the level
    set, and every quasipoint value is an eigenvalue."""
    tol = mat_tol(1e-9) if tol is None else tol
    d = _as_decomp(a)
    E = spectral_family_of(d)
    f = observable_fn(E)
    eigen_ok = True
    w, V = np.linalg.eigh(d.matrix)
    for j in range(d.n):
        got = ray_obs(d, V[:, j])
        if min(abs(got - lam) for lam in d.values) > tol or abs(got - w[j]) > max(
            tol, CLUSTER_SCALE * max(1.0, d.norm())
        ):
            eigen_ok = False
    plateau_ok = True
    L = E.lattice
    for i in range(d.m):
        atom = 1 << i  # jump projector of the i-th eigenvalue
        for t in L.atoms():
            if L.leq[t, atom] and float(f.values[t]) != float(d.values[i]):
                plateau_ok = False
    vals_ok = all(
        min(abs(float(f.values[t]) - lam) for lam in d.values) <= tol
        for t in L.atoms()
    )
    return PlateauReport(
        eigen_ok and plateau_ok and vals_ok, eigen_ok, plateau_ok, vals_ok
    )
