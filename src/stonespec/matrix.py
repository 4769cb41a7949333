"""Numerical layer: Hermitian matrices, eigenprojections, ray values and the
bridge into finite Boolean lattices.

All tolerances of this layer and the Gelfand layer live here, as constants; the
lattice layer stays exact.  Entries, eigenvalues and ray values are compared
within a constant times ||A|| (``EigenDecomposition.norm()``, or max |A_ij|
before a decomposition), with no absolute floor, so f_{cA} = c f_A holds for c
a power of two.  Norms of unit rays and distances of projectors are unscaled.

Every Boolean family of the bridge and of the Gelfand layer comes from one
builder, ``_boolean_family``; only it, ``corpus.boolean_lattice`` and
``element_projector`` know that an element of 2^m is its atom bitmask.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import boolean_lattice
from .spectral import SpectralFamily, make_spectral_family, observable_fn, sorted_unique

HERM_TOL = 1e-12  # |A - A^H|: as_hermitian and gelfand.diagonalize
SNAP_TOL = 1e-12  # gelfand layer: entry merging and the isometry
NORMAL_TOL = 1e-9  # gelfand.diagonalize: commutator (times ||A||^2), off-diagonal residual
RAY_TOL = 1e-9  # unit rays: support components, Gram error, ranks of ray spans
REBUILD_TOL = 1e-8  # Frobenius distance of a family rebuilt from rays: verify_ray_rebuild
PROJECTOR_TOL = 1e-12  # entries of a spectral projection against a known projector
MAT_TOL = 1e-9  # verification: eigenvalues, ray values and <Ax,x> compared, times ||A||
CLUSTER_SCALE = 1e-8  # cluster width and eig's residual bound
WARN_BAND = (1e-12, 1e-6)
RAY_BLOCK_BYTES = 1 << 18  # one block of rays, as complex rows
MAX_STEP_INTERVALS = 10**7  # grid intervals of step_approx (two float arrays of this length)


class NotHermitianError(ValueError):
    """The matrix is not Hermitian within HERM_TOL |A|."""


class EigenError(RuntimeError):
    """The eigendecomposition failed its internal consistency checks."""


class ProbeResolutionError(RuntimeError):
    """A probe set does not resolve all spectral subspaces."""


class CostCapError(ValueError):
    """The input needs more work or memory than a documented cap allows."""


def hermitian_part(a) -> np.ndarray | None:
    """(a + a^H) / 2 of a square matrix a with |a - a^H| <= HERM_TOL |a|, else None:
    the one Hermitian test.  Both sides are read off a/2, half of a's own and
    finite for every finite a, so a deviation past the float limit reads inf and
    fails.  Below |a| of about 2e-296, HERM_TOL |a| is subnormal and the test
    tightens toward exact symmetry."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    half = a / 2  # a - a^H, |a| and (a + a^H) / 2 overflow near the float limit
    scale = float(np.abs(half).max(initial=0.0))
    with np.errstate(over="ignore"):
        deviation = float(np.abs(half - half.conj().T).max(initial=0.0))
    if not (deviation <= HERM_TOL * scale):
        return None
    half += half.conj().T
    return half


def as_hermitian(a) -> np.ndarray:
    """hermitian_part's symmetrized copy; a matrix it refuses raises NotHermitianError."""
    h = hermitian_part(a)
    if h is None:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return h


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
    ``projection(c)`` builds P_c = V_c V_c^H when asked.  The two numbers eig checked
    V by are kept: the Gram error bounds ||V||^2 <= 1 + gram_error, and the residual
    bounds ||A - V diag(values) V^H|| in the spectral norm, so a distance to another
    function of the same V needs no second eigensolve (see step_approx)."""

    matrix: np.ndarray
    values: np.ndarray        # (m,) ascending cluster representatives
    basis: np.ndarray         # (n, n) phase-fixed eigenvector columns
    starts: np.ndarray        # (m,) first basis column of each cluster
    gram_error: float         # ||V^H V - I||_F
    residual: float           # ||V diag(values of each column) V^H - A||_F

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

    def norm(self) -> float:
        return float(np.abs(self.values).max())


def finite_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh, refusing non-finite output with ValueError: eigenvalues past
    the float limit come back as inf or NaN, which no tolerance test catches."""
    w, V = np.linalg.eigh(h)
    if not (np.isfinite(w).all() and np.isfinite(V).all()):
        raise ValueError("the eigendecomposition is not finite: matrix entries are too large")
    return w, V


def _cluster_starts(w: np.ndarray, ctol: float) -> np.ndarray:
    """First index of each cluster of the ascending w: a cluster ends before the
    first eigenvalue at least ctol above its own first one, so every cluster is
    narrower than ctol however many near-ties it chains."""
    vals = w.tolist()  # Python floats: a difference past the float limit is inf, silently
    starts = [0]
    first = vals[0]
    for j, x in enumerate(vals):
        if x - first >= ctol:
            starts.append(j)
            first = x
    return np.array(starts)


def eig(a) -> EigenDecomposition:
    """Eigendecomposition with clusters of nearly equal eigenvalues, each narrower
    than ctol = CLUSTER_SCALE ||A||, checked by the Gram error ||V^H V - I||_F <=
    RAY_TOL (it bounds sum P_c - I and each P_i P_j) and, within ctol entrywise, the
    residual R = V diag(lambda_c of each column) V^H - A, V diag(..) V^H = sum
    lambda_c P_c.  With the cluster mean as representative only rounding can fail it.
    Both numbers are kept: the Gram error, and ||R||_F read off R / 2^e with 2^e at
    or above max |R_ij|, so no square overflows and A 2^k has the residual 2^k
    ||R||_F bit for bit.  The zero matrix is one cluster.  Raises ValueError where
    as_hermitian (NotHermitianError) and finite_eigh do, and where ||A|| > 0 but ctol
    is not a normal float (||A|| < about 2.2e-300): a subnormal ctol has lost its
    precision, and a zero one would merge every cluster."""
    A = as_hermitian(a)
    n = A.shape[0]
    w, V = finite_eigh(A)
    V = _fix_phases(V)
    norm = float(np.abs(w).max(initial=0.0))
    ctol = CLUSTER_SCALE * norm
    if norm and ctol < sys.float_info.min:  # the smallest normal float
        raise ValueError(f"matrix norm {norm:g} is too small: the relative tolerances underflow")
    starts = _cluster_starts(w, ctol or math.inf)
    clusters = np.split(np.arange(n), starts[1:])
    # k * mean(w / k), k a power of two above the cluster size: the cluster sum may
    # overflow where its mean does not, and such scaling is exact in the normal range
    values = np.array([k * float(np.mean(w[c] / k)) for c in clusters
                       for k in [2 ** len(c).bit_length()]])
    gram_error = float(np.linalg.norm(V.conj().T @ V - np.eye(n)))
    if not (gram_error <= RAY_TOL):
        raise EigenError("eigenbasis is not orthonormal")
    r = (V * np.repeat(values, [len(c) for c in clusters])) @ V.conj().T
    r -= A
    r_max = float(np.abs(r).max())
    if not (r_max <= ctol):
        raise EigenError("spectral resolution does not reproduce the matrix")
    scale = math.ldexp(1.0, math.frexp(r_max)[1])
    r /= scale
    return EigenDecomposition(A, values, V, starts, gram_error, scale * float(np.linalg.norm(r)))


def _as_decomp(a) -> EigenDecomposition:
    return a if isinstance(a, EigenDecomposition) else eig(a)


def spectrum(a) -> np.ndarray:
    return _as_decomp(a).values.copy()


# ---------------------------------------------------------------------------
# bridge into the lattice layer


def _boolean_family(values, atom_names: list[str] | None = None) -> SpectralFamily:
    """The family over 2^m, m = len(values), jumping at each distinct value
    to the join of the atoms whose values lie at or below it (atom i is the
    element 1 << i), so its observable function takes the i-th value at the
    i-th atom filter, in ``FiniteOML.atom_index`` order."""
    values = np.asarray(values, dtype=np.float64)
    L = boolean_lattice(len(values), atom_names)
    levels = sorted_unique(values)
    masks = (values <= levels[:, None]) @ (1 << np.arange(len(values)))
    return make_spectral_family(L, zip(levels.tolist(), masks.tolist()))


def spectral_family_of(a) -> SpectralFamily:
    """Family over the Boolean lattice generated by the eigenprojections: 2^m,
    the i-th atom p{i+1} the projection of the i-th distinct eigenvalue."""
    d = _as_decomp(a)
    return _boolean_family(d.values, [f"p{i + 1}" for i in range(d.m)])


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


def verify_spectrum_identity(a) -> SpectrumReport:
    """The observable function's image over quasipoints, and over all dual
    ideals, is the spectrum."""
    d = _as_decomp(a)
    f = observable_fn(spectral_family_of(d))
    img_q = f.image("quasipoints")
    img_d = f.image("dual_ideals")
    sp = d.values
    err = float("inf")
    if len(img_q) == len(sp) and len(img_d) == len(sp):
        err = max(float(np.abs(img_q - sp).max()), float(np.abs(img_d - sp).max()))
    return SpectrumReport(err <= MAT_TOL * d.norm(), sp.copy(), img_q, img_d, err)


# ---------------------------------------------------------------------------
# rays


def normalize_ray(x) -> np.ndarray:
    """x scaled to unit norm.  The norm is np.linalg.norm's own sum, sqrt(re.re +
    im.im), so it is the same bit for bit, without its argument handling."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    re, im = x.real, x.imag
    nrm = math.sqrt(re.dot(re) + im.dot(im))
    if nrm == 0.0:
        raise ValueError("the zero vector spans no ray")
    if not math.isfinite(nrm):
        raise ValueError("the norm of the ray is not finite")
    return x / nrm


def normalize_rays(rows) -> np.ndarray:
    """Each row scaled to unit norm, bit for bit as normalize_ray: the batched
    matmul below makes its two dot products per row."""
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    re, im = rows.real, rows.imag
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        nrm = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    if (nrm == 0.0).any():
        raise ValueError("the zero vector spans no ray")
    if not np.isfinite(nrm).all():
        raise ValueError("the norm of the ray is not finite")
    return rows / nrm[:, None]


def ray_block_size(n: int) -> int:
    """Rays per block, so that a block of n-dimensional complex rays stays within
    RAY_BLOCK_BYTES; the ray layer's working memory is a few such blocks."""
    return max(1, RAY_BLOCK_BYTES // (16 * n))


def _cluster_norms(d: EigenDecomposition, xv: np.ndarray) -> np.ndarray:
    """||P_c x|| for each cluster c from xv = x^H V, of one ray or one row per ray:
    the square roots of the cluster sums of |xv|^2, squared and rooted in place,
    with no sum where every cluster is one column."""
    comps = np.abs(xv)
    comps *= comps
    if d.m < d.n:
        comps = np.add.reduceat(comps, d.starts, axis=-1)
    return np.sqrt(comps, out=comps)


def _component_norms(d: EigenDecomposition, x: np.ndarray) -> np.ndarray:
    """||P_c x|| of a ray or of each row of a block of rays, from one product with
    x conjugated, so the eigenbasis is read in place and never copied."""
    return _cluster_norms(d, x.conj() @ d.basis)


def _supports(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clusters each ray has a component in, and whether any component falls in
    the conditioning band."""
    lo, hi = WARN_BAND
    return comps > RAY_TOL, ((comps >= lo) & (comps <= hi)).any(axis=-1)


def _ray(a, x, end: int | None) -> float:
    """One ray's value: the eigenvalue of its support at index end (-1 for f, 0 for
    g), warning when the support is ill-conditioned, or for end None <Ax,x>, as
    np.vdot(x, A @ x) of the normalized x.  Each runs one product: x^H V or A x."""
    d = _as_decomp(a)
    x = normalize_ray(x)
    if end is None:
        return float(np.vdot(x, d.matrix @ x).real)
    support, band = _supports(_component_norms(d, x))
    if band:
        warnings.warn(
            "ray component within the tolerance band; the support decision is "
            "ill-conditioned",
            stacklevel=3,
        )
    return float(d.values[support.nonzero()[0][end]])


def warn_band(hits: int, total: int) -> None:
    """One warning for a block of rays, counting those whose support decision is
    ill-conditioned."""
    if hits:
        warnings.warn(
            f"{hits} of {total} rays have a component within the tolerance band; "
            "their support decisions are ill-conditioned",
            stacklevel=2,
        )


def ray_obs(a, x) -> float:
    """Largest eigenvalue whose spectral component of the ray is nonzero."""
    return _ray(a, x, -1)


def mirrored_ray(a, x) -> float:
    """Smallest eigenvalue whose spectral component of the ray is nonzero."""
    return _ray(a, x, 0)


def expectation(a, x) -> float:
    """<Ax, x> for the normalized representative of the ray."""
    return _ray(a, x, None)


def _ray_values(d: EigenDecomposition, comps: np.ndarray):
    """f, g and the band hits of rays, one row of cluster norms each."""
    support, band = _supports(comps)
    top = d.m - 1 - np.argmax(support[:, ::-1], axis=1)
    return d.values[top], d.values[np.argmax(support, axis=1)], band


@dataclass(frozen=True, eq=False)
class RayTable:
    """Ray values of a block of k rays."""

    f: np.ndarray            # (k,) observable: largest eigenvalue of the support
    g: np.ndarray            # (k,) mirrored: smallest eigenvalue of the support
    expectation: np.ndarray  # (k,) <Ax, x>
    band: np.ndarray         # (k,) a component in WARN_BAND: the support is ill-conditioned


def ray_table(a, X) -> RayTable:
    """f, g, <Ax,x> and the band hits of the rays in the columns of an n x k block,
    or of a block of unit probes from unit_probes.

    Each column is normalized as by normalize_ray.  The supports of all k rays
    come from one product X^H V (X conjugated, V read in place) reduced over the
    clusters, so each row equals ray_obs and mirrored_ray bit for bit.  <Ax,x>
    is one matrix-vector product and one dot product per ray, batched by
    matmul, so it equals np.vdot(x, A @ x) bit for bit.  A block of unit probes
    is read in O(n) a probe instead (see _probe_table): the same supports up to
    rounding, and <Ax,x> within a few ulp of ||A||.  Band hits are returned,
    not warned about: the caller reports them once per block."""
    d = _as_decomp(a)
    if isinstance(X, _UnitProbes):
        return _probe_table(d, X)
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != d.n:
        raise ValueError(f"expected a block of {d.n}-dimensional rays, got shape {X.shape}")
    rows = normalize_rays(X.T)
    f, g, band = _ray_values(d, _component_norms(d, rows))
    ax = np.matmul(d.matrix, rows[:, :, None])[:, :, 0]
    return RayTable(f, g, np.vecdot(rows, ax).real, band)


def _probe_table(d: EigenDecomposition, p: _UnitProbes) -> RayTable:
    """ray_table of a block of unit probes in O(n) a probe.  The probe e_i + c e_j
    (c = 0, 1 or i) has the norm sqrt(1 + |c|^2) exactly and normalizes to
    u_i e_i + u_j e_j as normalize_rays makes it, so x^H V is u_i V_i +
    conj(u_j) V_j from two rows of V, and <Ax,x> is the dense formula on the
    2 x 2 block of A at i and j."""
    nrm = np.sqrt(1 + np.abs(p.c) ** 2)
    ui, uj = 1 / nrm, p.c / nrm
    xv = d.basis[p.i]
    xv *= ui[:, None]
    vj = d.basis[p.j]
    vj *= uj.conj()[:, None]
    xv += vj
    f, g, band = _ray_values(d, _cluster_norms(d, xv))
    A = d.matrix
    ax_i = A[p.i, p.i] * ui + A[p.i, p.j] * uj
    ax_j = A[p.j, p.i] * ui + A[p.j, p.j] * uj
    return RayTable(f, g, (ui * ax_i + uj.conj() * ax_j).real, band)


def complex_observable(m, x) -> complex:
    """Ray value of an arbitrary matrix via its Hermitian parts, formed from m / 2
    as hermitian_part forms them, so that no sum overflows."""
    half = np.asarray(m, dtype=np.complex128) / 2
    return complex(ray_obs(half + half.conj().T, x), ray_obs((half - half.conj().T) / 1j, x))


def random_ray(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return normalize_ray(v)


def random_rays(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k rays as the rows of a block, bit for bit the rays of k random_ray calls."""
    v = rng.standard_normal((k, 2, n))
    return normalize_rays(v[:, 0] + 1j * v[:, 1])


def _block_f(d: EigenDecomposition, X: np.ndarray) -> np.ndarray:
    """f of the rays in the columns of X, the rows of ray_table without g and
    <Ax,x>; the block's band hits warn once, with their count."""
    f, _, band = _ray_values(d, _component_norms(d, normalize_rays(X.T)))
    warn_band(int(np.count_nonzero(band)), len(band))
    return f


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


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


def _span_law(d: EigenDecomposition, rng: np.random.Generator, k: int) -> tuple[int, int]:
    """Span-law violations f(z) > max(f(x), f(y)) + MAT_TOL ||A||, z = alpha x + beta y,
    and band hits over k random triples drawn as one block: per triple, x and y
    (real, then imaginary parts), then the real and imaginary parts of alpha and
    of beta, the order of two random_ray calls and four scalar draws.  A triple
    whose z is nearly zero spans no ray and is skipped."""
    n = d.n
    g = rng.standard_normal((k, 4 * n + 4))
    x = normalize_rays(g[:, :n] + 1j * g[:, n:2 * n])
    y = normalize_rays(g[:, 2 * n:3 * n] + 1j * g[:, 3 * n:4 * n])
    c = g[:, 4 * n:]
    z = (c[:, :1] + 1j * c[:, 1:2]) * x + (c[:, 2:3] + 1j * c[:, 3:]) * y
    keep = np.linalg.norm(z, axis=1) >= RAY_TOL
    fx, _, bx = _ray_values(d, _component_norms(d, x[keep]))
    fy, _, by = _ray_values(d, _component_norms(d, y[keep]))
    fz, _, bz = _ray_values(d, _component_norms(d, normalize_rays(z[keep])))
    bad = np.count_nonzero(fz > np.maximum(fx, fy) + MAT_TOL * d.norm())
    return int(bad), int(np.count_nonzero(bx | by | bz))


def verify_ray_axioms(a, rng: np.random.Generator, samples: int = 1000) -> RayAxiomReport:
    """Spot-check the ray-function axioms.

    The span law (a ray in the span of two others takes at most the larger
    value) is sampled on random triples; the sublevel criterion checks that
    f(x) <= lambda_i exactly when E(lambda_i) x = x, on 16 random rays and the
    eigenbasis.  E(lambda_i) x is V_{<=i}(V_{<=i}^H x), summed cluster by
    cluster, so no projector is formed.  The random draws follow the seeded
    order of one random_ray call per ray; only the arithmetic runs in blocks of
    ray_block_size(n) triples.  Band hits warn once, with their count.  Totality
    is trivial in finite dimension and only recorded.
    """
    d = _as_decomp(a)
    n = d.n
    span_bad = hits = 0
    size = ray_block_size(n)
    for start in range(0, samples, size):
        bad, band = _span_law(d, rng, min(size, samples - start))
        span_bad += bad
        hits += band
    warn_band(hits, samples)
    probes = np.concatenate([random_rays(n, 16, rng), d.basis.T])
    # f(x) <= lambda_i exactly when x has no component above cluster i
    above = _component_norms(d, probes) > RAY_TOL
    later = np.logical_or.accumulate(above[:, ::-1], axis=1)[:, ::-1]  # any at clusters >= i
    f_below = np.c_[~later[:, 1:], np.ones(len(probes), bool)]
    coef = (probes.conj() @ d.basis).conj()  # row r holds V^H x_r
    ex = np.zeros_like(probes)  # row r becomes E(lambda_i) x_r, one cluster at a time
    sub_bad = 0
    for i, (lo, hi) in enumerate(zip(d.starts, [*d.starts[1:], n])):
        ex += coef[:, lo:hi] @ d.basis[:, lo:hi].T
        fixes = np.linalg.norm(ex - probes, axis=1) <= RAY_TOL
        sub_bad += int(np.count_nonzero(f_below[:, i] != fixes))
    return RayAxiomReport(span_bad == 0 and sub_bad == 0, samples, span_bad,
                          len(probes) * d.m, sub_bad)


# ---------------------------------------------------------------------------
# reconstruction from ray data


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """Matrix-level spectral family: thresholds, each with an orthonormal basis of
    the range of its cumulative projector E(threshold) = B B^H."""

    thresholds: np.ndarray           # (k,)
    bases: tuple[np.ndarray, ...]    # k bases (n, r), r increasing up to n

    @property
    def k(self) -> int:
        return len(self.thresholds)


def projector_family_of(a) -> ProjectorFamily:
    """E(lambda_c) of each cluster c, held as the eigenbasis columns of the
    clusters up to c: views of V, so nothing is copied."""
    d = _as_decomp(a)
    stops = [*d.starts[1:], d.n]
    return ProjectorFamily(d.values.copy(), tuple(d.basis[:, :stop] for stop in stops))


def projector_distance(f1: ProjectorFamily, f2: ProjectorFamily) -> float:
    """Max Frobenius distance between aligned steps; inf on shape mismatch or on
    thresholds apart by more than MAT_TOL times the largest.  The two projectors
    of one step are built at a time."""
    if f1.k != f2.k:
        return float("inf")
    scale = max(np.abs(f1.thresholds).max(), np.abs(f2.thresholds).max())
    if np.abs(f1.thresholds - f2.thresholds).max() > MAT_TOL * scale:
        return float("inf")
    return max(
        float(np.linalg.norm(p @ p.conj().T - q @ q.conj().T))
        for p, q in zip(f1.bases, f2.bases)
    )


class _UnitProbes(NamedTuple):
    """A block of unit probes e_i + c e_j as index arrays i, j and coefficients c;
    e_j has i = j and c = 0."""

    i: np.ndarray
    j: np.ndarray
    c: np.ndarray

    def rows(self, n: int) -> np.ndarray:
        """The probes as unnormalized n-dimensional rows."""
        k = np.arange(len(self.i))
        rows = np.zeros((len(k), n), dtype=np.complex128)
        rows[k, self.i] = 1
        rows[k, self.j] += self.c
        return rows


def unit_probes(n: int, size: int):
    """The unit probes e_j, then e_i + e_j and e_i + i e_j for i < j, as (labels,
    probes) blocks of at most size rays.  A block is held by its index pairs and
    coefficients, so ray_table reads it in O(n) a probe."""
    units = itertools.chain(
        ((f"e{j + 1}", j, j, 0) for j in range(n)),
        ((f"e{i + 1}+{unit}e{j + 1}", i, j, c)
         for i, j in itertools.combinations(range(n), 2) for unit, c in (("", 1), ("i", 1j))),
    )
    while chunk := list(itertools.islice(units, size)):
        labels, i, j, c = zip(*chunk)
        yield labels, _UnitProbes(np.array(i), np.array(j), np.array(c, dtype=np.complex128))


def default_probes(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The unit probes, normalized, then 4n random rays."""
    probes = [normalize_ray(x) for _, block in unit_probes(n, n * n) for x in block.rows(n)]
    return probes + [random_ray(n, rng) for _ in range(4 * n)]


def resolving_probes(d: EigenDecomposition, rng: np.random.Generator) -> list[np.ndarray]:
    """A probe set that spans every cumulative spectral subspace: the
    eigenbasis columns plus the default structured set."""
    return [d.basis[:, j].copy() for j in range(d.n)] + default_probes(d.n, rng)


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
    observed = sorted_unique(vals)
    thresholds = []
    bases = []
    prev_rank = 0
    for lam in observed:
        sel = [p for p, v in zip(probes, vals) if v <= lam]
        mat = np.stack(sel, axis=1)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int((s > RAY_TOL * s[0]).sum())
        if rank <= prev_rank:
            raise ProbeResolutionError(f"no new direction resolved at value {lam!r}")
        prev_rank = rank
        thresholds.append(float(lam))
        bases.append(u[:, :rank])
    if prev_rank != n:
        raise ProbeResolutionError(f"probes resolve only {prev_rank} of {n} dimensions")
    return ProjectorFamily(np.array(thresholds), tuple(bases))


def verify_ray_rebuild(a, probes) -> tuple[bool, float]:
    """The family reconstruct_from_rays rebuilds from ray_obs on the probes, against
    projector_family_of(a): (distance within REBUILD_TOL, distance).  Raises
    ProbeResolutionError where reconstruct_from_rays does."""
    d = _as_decomp(a)
    rebuilt = reconstruct_from_rays(lambda x: ray_obs(d, x), probes)
    dist = projector_distance(rebuilt, projector_family_of(d))
    return dist <= REBUILD_TOL, dist


@dataclass
class InfSupReport:
    passed: bool
    checked: int
    failures: list[float] = field(default_factory=list)


def verify_infsup_extension(a, rng: np.random.Generator, rays: int = 50) -> InfSupReport:
    """The induced value at an atomic quasipoint is the inf over a projector
    chain of the sup of ray values inside each projector, attained at the
    ray projector itself.  Each sup is sampled on 8 random rays of the
    projector's range and y itself; the samples of one chain are read as one
    block."""
    d = _as_decomp(a)
    n = d.n
    rep = InfSupReport(passed=True, checked=0)
    eye = np.eye(n, dtype=np.complex128)
    tol = MAT_TOL * d.norm()
    for _ in range(rays):
        y = random_ray(n, rng)
        # chain: the ray projector, growing coordinate spans around y, identity
        order = rng.permutation(n)
        spans = [np.column_stack([y, eye[:, order[:k]]]) for k in range(n)] + [eye]
        block = []
        for mat in spans:
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            basis = u[:, s > RAY_TOL]
            block += [basis @ random_rays(basis.shape[1], 8, rng).T, y[:, None]]
        f = _block_f(d, np.hstack(block)).reshape(n + 1, 9)
        sups, fy = f.max(axis=1), float(f[0, -1])
        rep.checked += 1
        if abs(sups.min() - fy) > tol or abs(sups[0] - fy) > tol:
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
    A_eps = sum s_c P_c takes each interval's midpoint s_c on the spectral
    increment of that interval.  The report checks the two eps bounds and the
    closed-form evaluation of the step observable through the quasipoints of
    the generated lattice.

    The observable distance is max_c |lambda_c - s_c|.  The operator distance
    is the certified bound (1 + gram_error) f_distance + residual on ||A -
    A_eps|| in the spectral norm, read off eig's own checks: A_eps has A's
    eigenbasis V, so

        ||A - A_eps|| <= ||A - V diag(lambda) V^H|| + ||V diag(lambda - s) V^H||
                      <= residual + ||V||^2 max_c |lambda_c - s_c|,

    and ||V||^2 = ||V^H V|| <= 1 + ||V^H V - I||_F.  So the operator check is
    never looser than the exact distance, and no second eigensolve runs.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    d = _as_decomp(a)
    # Python floats: past the float limit a width is inf, not a numpy warning
    bottom, top = float(d.values.min()), float(d.values.max())
    diam = top - bottom
    # straddle the spectrum tightly enough that one interval suffices
    # whenever eps exceeds the spectral diameter
    margin = (eps - diam) / 4 if eps > diam else eps / 2
    lo = bottom - margin
    hi = top + margin
    if not (hi - lo) / eps < MAX_STEP_INTERVALS:
        raise CostCapError(
            f"the step grid at eps = {eps:g} over [{bottom:g}, {top:g}] has "
            f"{(hi - lo) / eps:.3g} intervals, past the cap of {MAX_STEP_INTERVALS:.0e}"
        )
    m = int(np.floor((hi - lo) / eps)) + 1
    grid = lo + (hi - lo) * np.arange(m + 1) / m
    mids = grid[:-1] / 2 + grid[1:] / 2  # halves: no overflow near the float limit
    star = mids[np.clip(np.searchsorted(grid, d.values, side="left") - 1, 0, m - 1)]
    # sum mids_c P_c as one product V diag(mid of each column) V^H, as eig forms
    # its residual
    a_eps = (d.basis * np.repeat(star, np.diff([*d.starts, d.n]))) @ d.basis.conj().T
    f_dist = float(np.abs(d.values - star).max())
    op_dist = (1 + d.gram_error) * f_dist + d.residual
    # the step observable over the lattice generated by the original
    # projections, one jump per distinct midpoint; closed form: each atom
    # filter sits in exactly one basis-set difference and takes that
    # interval's midpoint there
    f_step = observable_fn(_boolean_family(star))
    closed_ok = bool((f_step.values[f_step.lattice.atom_index()] == star).all())
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
    a, Q: np.ndarray, rng: np.random.Generator, samples: int = 64
) -> RankOneReport:
    """Extend ray data to a projector: the largest eigenvalue whose spectral
    projection meets the range of Q, cross-checked as the sup of ray values
    on random rays of that range and its basis, read as one block; the span
    law is spot-checked on 16 random triples."""
    d = _as_decomp(a)
    Q = np.asarray(Q, dtype=np.complex128)
    # ||P_i Q||_F over the columns q of Q, from the cluster norms of each q
    overlap = np.linalg.norm(_component_norms(d, Q.T), axis=0)
    idx = np.flatnonzero(overlap > RAY_TOL)
    if idx.size == 0:
        raise ValueError("Q has trivial range")
    value = float(d.values[idx[-1]])
    u, s, _ = np.linalg.svd(Q)
    basis = u[:, s > 0.5]
    rays = np.column_stack([basis @ random_rays(basis.shape[1], samples, rng).T, basis])
    sup_ok = abs(float(_block_f(d, rays).max()) - value) <= MAT_TOL * d.norm()
    violations, hits = _span_law(d, rng, 16)
    warn_band(hits, 16)
    span_ok = violations == 0
    return RankOneReport(value, sup_ok, span_ok, sup_ok and span_ok)


@dataclass
class PlateauReport:
    passed: bool
    eigen_rays_ok: bool
    plateau_ok: bool
    values_are_eigenvalues: bool


def verify_eigenvalue_plateaus(a) -> PlateauReport:
    """Finite-dimensional plateau facts: eigenvector rays take their
    eigenvalue, the basis set of each jump projector sits inside the level
    set, and every quasipoint value is an eigenvalue.  Each is compared with
    the matrix's own eigenvalues from eigh, within the cluster width
    CLUSTER_SCALE ||A||; the eigenvector rays are read as one block."""
    d = _as_decomp(a)
    E = spectral_family_of(d)
    f = observable_fn(E)
    w, V = np.linalg.eigh(d.matrix)
    width = CLUSTER_SCALE * d.norm()
    got = _block_f(d, V)
    eigen_ok = bool(
        (np.abs(got[:, None] - d.values).min(axis=1) <= MAT_TOL * d.norm()).all()
        and (np.abs(got - w) <= width).all()
    )
    # the jump projector of the i-th cluster is the i-th atom; its basis set
    # is that atom, whose value must be each eigenvalue of the cluster
    at_atoms = f.values[E.lattice.atom_index()]
    plateau_ok = bool((np.abs(w - np.repeat(at_atoms, np.diff([*d.starts, d.n]))) <= width).all())
    vals_ok = bool((np.abs(w[:, None] - at_atoms).min(axis=0) <= width).all())
    return PlateauReport(eigen_ok and plateau_ok and vals_ok, eigen_ok, plateau_ok, vals_ok)
