"""Each vectorized kernel against its slow definition.

The oracles below are the straightforward loops the kernels replace: the
row-scan meet/join search with integer counts, the one-shot n x n forms of
the law scans that now run in row blocks or square tiles (and of the
decisions that now run before them), the full distributivity
triple scan, the per-element atom join, the pairwise max-law loop, the
filter-minimum loops, Warshall's closure, the transitivity loop and the
order of the construction checks, the per-row loop of the sub-tables of a
sublattice, the literal minimal-ideal
reconstruction, the pair loop for monotone continuity and the p x atoms
loop that extended quasipoint data; on the matrix side, the per-column
phase loop, the per-cluster gap loop with the projector stack eig once
built from it, one projector product per cluster for ray components, the
one-ray formula and loops (with the cumulative projector stack) that the block ray kernel
replaces in verify_ray_axioms, rank_one_extension, verify_infsup_extension
and verify_eigenvalue_plateaus, the projector distance over dense cumulative
stacks, and the unscaled joint diagonalization; the per-element loops of
the observable and mirrored tables, and the three hand loops the Boolean
family builder of the bridge replaced, with step_approx's sum of midpoint
projectors, its two-condition closed form and the second eigensolve its
operator distance once ran; np.unique for the sort path
that replaced it, and the float32 product for the join search's counts in
the index type.  Hypothesis draws random
posets (with and without an added bottom and top), orthoposets Q x Q^op
built from them, reflexive relations (cyclic or not, transitive or not),
random relabelings of
the corpus and of the products 2^m x MO2 and 2^m x O6, random spectral
families on them, tables with NaN and +-inf injected, and Hermitian
matrices with repeated eigenvalues, rotated or diagonal, and value lists
with ties and both signed zeros.  The vector forms
of ``FiniteOML`` and ``FiniteOML.relabeled`` are checked against the scalar
reads they gather and against this file's own ``relabel``.  One law has no
oracle: A scaled by 2^k keeps every cluster and verdict of the matrix layer.
"""

import dataclasses
import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stonespec import _kernels, gelfand, matrix, recon
from stonespec.corpus import benzene, boolean_lattice, corpus, mo
from stonespec.errors import LatticeError, NotObservableError
from stonespec.io import load_lattice, load_matrix, save_lattice, transitive_closure
from stonespec.lattice import (
    FiniteOML,
    _ortho_complement_verdict,
    _reflexive_antisymmetric_problem,
    check_partial_order,
    generated_sublattice,
    principal_ideal,
    verify_structure,
)
from stonespec.spectral import (
    ObservableTable,
    SpectralFamily,
    make_spectral_family,
    mirrored_fn,
    observable_fn,
    random_spectral_family,
    sorted_unique,
)

# ---------------------------------------------------------------------------
# oracles


def warshall(rel):
    out = np.array(rel, dtype=bool)
    for k in range(out.shape[0]):
        out |= out[:, k][:, None] & out[k][None, :]
    return out


def row_scan_bound_tables(leq):
    """Per row a: the c <= a, b whose down-set is as large as the set of
    common lower bounds must be unique (dually for joins)."""
    n = leq.shape[0]
    li = leq.astype(np.int64)
    down = li.sum(axis=0)
    up = li.sum(axis=1)
    common_low = li.T @ li
    common_up = li @ li.T
    meet = np.full((n, n), -1, np.int64)
    join = np.full((n, n), -1, np.int64)
    for a in range(n):
        lower = leq[:, a][:, None] & leq
        hits = lower & (down[:, None] == common_low[a][None, :])
        bad = np.flatnonzero(hits.sum(axis=0) != 1)
        if bad.size:
            return meet, join, _kernels.STATUS_NO_MEET, a, int(bad[0])
        meet[a] = hits.argmax(axis=0)
        upper = leq[a][:, None] & leq.T
        hits = upper & (up[:, None] == common_up[a][None, :])
        bad = np.flatnonzero(hits.sum(axis=0) != 1)
        if bad.size:
            return meet, join, _kernels.STATUS_NO_JOIN, a, int(bad[0])
        join[a] = hits.argmax(axis=0)
    return meet, join, _kernels.STATUS_OK, -1, -1


def least_upper_bounds(leq):
    """[a, b] -> the common upper bound below every other, else -1."""
    n = leq.shape[0]
    join = np.full((n, n), -1, np.int64)
    for a in range(n):
        for b in range(n):
            ub = np.flatnonzero(leq[a] & leq[b])
            least = [c for c in ub if leq[c, ub].all()]
            if len(least) == 1:
                join[a, b] = least[0]
    return join


def one_shot_increasing(L, r):
    """recon.is_completely_increasing as one n x n comparison."""
    v = np.asarray(r.values, dtype=np.float64)
    bad = v[L.join_table] != np.fmax(v[:, None], v[None, :])
    bad[L.bottom, :] = bad[:, L.bottom] = False
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return False, (int(a), int(b))
    return True, None


def one_shot_orthomodularity(leq, meet, join, ortho):
    """_kernels.orthomodularity_witness as one n x n gather."""
    rel = np.take_along_axis(join, meet[:, ortho].T, axis=1)  # [a, b] -> a v (b ^ a')
    bad = leq & (rel != np.arange(leq.shape[0])[None, :])
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return int(a), int(b)
    return -1, -1


def one_shot_ortho_witness(leq, o):
    """_kernels._ortho_witness as one n x n gather of the reversed order."""
    inv = o[o] != np.arange(len(o))
    if inv.any():
        return (int(np.argmax(inv)),)
    rev = leq[np.ix_(o, o)]  # rev[a, b] = a' <= b'
    bad = leq & ~rev.T  # a <= b but not b' <= a'
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return int(a), int(b)
    return None


def one_shot_order_problem(leq):
    """lattice._reflexive_antisymmetric_problem with one n x n mask."""
    diag = np.diagonal(leq)
    if not diag.all():
        return "not reflexive", (int(np.argmin(diag)),)
    sym = leq & leq.T & ~np.eye(leq.shape[0], dtype=bool)
    if sym.any():
        i, j = np.unravel_index(int(np.argmax(sym)), sym.shape)
        return "not antisymmetric", (int(i), int(j))
    return None


def unscaled_diagonalize(A):
    """The joint diagonalization of a normal non-Hermitian matrix on A itself."""
    h1 = (A + A.conj().T) / 2
    h2 = (A - A.conj().T) / 2j
    _, V = np.linalg.eigh(h1 + np.pi * h2)
    V = matrix._fix_phases(V)
    return V, np.diagonal(V.conj().T @ A @ V).copy()


def triple_scan(meet, join):
    """First (a, b, c) with a ^ (b v c) != (a ^ b) v (a ^ c), else None."""
    m, j = meet.tolist(), join.tolist()
    n = len(m)
    for a in range(n):
        ma = m[a]
        for b in range(n):
            for c in range(n):
                if ma[j[b][c]] != j[ma[b]][ma[c]]:
                    return a, b, c
    return None


def atomistic_witness(L):
    atoms = list(L.atoms())
    for p in range(L.n):
        if p != L.bottom and L.big_join([t for t in atoms if L.leq[t, p]]) != p:
            return (p,)
    return None


def pairwise_increasing(L, r):
    nz = [int(p) for p in L.nonzero()]
    for a in nz:
        for b in nz:
            if b < a:
                continue
            j = L.join_table[a, b]
            if float(r.values[j]) != max(float(r.values[a]), float(r.values[b])):
                return False, (a, b)
    return True, None


def loop_f_from_r(L, r):
    ok, witness = pairwise_increasing(L, r)
    if not ok:
        return witness
    vals = np.full(L.n, np.nan)
    for p in L.nonzero():
        vals[p] = np.min(r.values[L.upset(int(p))])
    return vals


def loop_abstract_observable(L, f):
    nz = [int(p) for p in L.nonzero()]
    for g in nz:
        if float(f.values[g]) != float(np.min(f.values[L.upset(g)])):
            return False, ("min-formula", g)
    ok, witness = pairwise_increasing(L, f)
    if not ok:
        return False, ("intersection", *witness)
    return True, None


def loop_monotone_continuous(L, values):
    """The pair loop verify_reconstruction_steps ran for monotone continuity."""
    nz = [int(p) for p in L.nonzero()]
    for p in nz:
        for q in nz:
            if p != q and L.leq[q, p]:  # H_p subset of H_q
                if float(values[q]) != min(float(values[p]), float(values[q])):
                    return False
    return True


def loop_atom_sup(L, atom_values):
    """The p x atoms loop observable_from_quasipoint_data extended its data with."""
    atoms = list(L.atoms())
    vals = np.full(L.n, np.nan)
    for p in L.nonzero():
        vals[p] = max(float(atom_values[t]) for t in atoms if L.leq[t, p])
    return vals


def literal_jumps(L, f):
    """Per attained value, the intersection of the filters of its level set
    (the minimal ideal), which must be the filter of its infimum."""
    nz = [int(p) for p in L.nonzero()]
    jumps = []
    for lam in np.unique(f.values[nz]):
        gens = [p for p in nz if f.values[p] == lam]
        members = np.logical_and.reduce(L.leq[gens], axis=0)
        low = L.big_meet(np.flatnonzero(members))
        assert (members == L.leq[low]).all(), "level ideal is not principal"
        jumps.append((float(lam), low))
    return jumps


def held_value(E, levels, lam):
    """Extension rule off the image: the value at the last level below lam,
    bottom before the first."""
    below = levels[levels < lam]
    return E.lattice.bottom if below.size == 0 else E.value_at(float(below.max()))


def transitivity_gap(leq):
    n = leq.shape[0]
    for i in range(n):
        for j in range(n):
            if not leq[i, j] and any(leq[i, k] and leq[k, j] for k in range(n)):
                return i, j
    return None


def partial_order_problem(leq):
    n = leq.shape[0]
    for i in range(n):
        if not leq[i, i]:
            return "not reflexive", (i,)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i, j] and leq[j, i]:
                return "not antisymmetric", (i, j)
    gap = transitivity_gap(leq)
    return None if gap is None else ("not transitive", gap)


def construction_problem(names, leq):
    """The error FiniteOML raises on a reflexive order with valid names and
    ortho, or None, in the order of its checks: the order (loop oracle),
    bottom, top, distinct bounds, then the first pair (row scan) without a
    unique meet or join."""
    problem = partial_order_problem(leq)
    if problem is not None:
        return f"order is {problem[0]}, witness {problem[1]}"
    n = leq.shape[0]
    bottoms = [i for i in range(n) if leq[i].all()]
    tops = [i for i in range(n) if leq[:, i].all()]
    if len(bottoms) != 1:
        return f"bottom element not unique (candidates {bottoms})"
    if len(tops) != 1:
        return f"top element not unique (candidates {tops})"
    if bottoms == tops:
        return "lattice needs distinct bottom and top"
    _, _, status, a, b = row_scan_bound_tables(leq)
    what = {_kernels.STATUS_NO_MEET: "meet", _kernels.STATUS_NO_JOIN: "join"}.get(status)
    return None if what is None else f"pair ({names[a]}, {names[b]}) has no unique {what}"


def loop_sub_tables(L, embed):
    """The sub-tables sublattice_from_members built row by row: each parent
    bound mapped back through a dict."""
    back = {int(p): i for i, p in enumerate(embed)}
    meet = np.empty((len(embed), len(embed)), np.int64)
    join = np.empty_like(meet)
    for i, p in enumerate(embed):
        meet[i] = [back[int(L.meet_table[p, q])] for q in embed]
        join[i] = [back[int(L.join_table[p, q])] for q in embed]
    return meet, join


def gap_loop_clusters(w, ctol):
    """Basis columns of each cluster, from the loop eig ran over eigenvalue gaps."""
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] < ctol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def column_support(d, x):
    """Support and band verdict of one ray by the formula ray values used before
    the block kernel: V^H x with V conjugated, the cluster sums, the square root."""
    products = d.basis.conj().T @ matrix.normalize_ray(x)
    comps = np.sqrt(np.add.reduceat(np.abs(products) ** 2, d.starts))
    lo, hi = matrix.WARN_BAND
    return np.flatnonzero(comps > matrix.RAY_TOL), bool(((comps >= lo) & (comps <= hi)).any())


def cumulative_stack(d):
    """The (m, n, n) stack of E(lambda_c) = P_0 + ... + P_c."""
    return np.cumsum(np.stack([d.projection(c) for c in range(d.m)]), axis=0)


def stacked_distance(t1, s1, t2, s2):
    """projector_distance on thresholds and dense (k, n, n) cumulative stacks."""
    if len(t1) != len(t2) or np.abs(t1 - t2).max() > 1e-9:
        return float("inf")
    return float(max(np.linalg.norm(p - q) for p, q in zip(s1, s2)))


def loop_ray_axioms(d, rng, samples, tol):
    """verify_ray_axioms one ray at a time, with the cumulative projector stack:
    (span violations, sublevel checks, sublevel violations)."""
    n = d.n
    span_bad = 0
    for _ in range(samples):
        x = matrix.random_ray(n, rng)
        y = matrix.random_ray(n, rng)
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        z = alpha * x + beta * y
        if np.linalg.norm(z) < 1e-9:
            continue
        if matrix.ray_obs(d, z) > max(matrix.ray_obs(d, x), matrix.ray_obs(d, y)) + tol:
            span_bad += 1
    cum = cumulative_stack(d)
    checked = sub_bad = 0
    probes = [matrix.random_ray(n, rng) for _ in range(16)] + [d.basis[:, j] for j in range(n)]
    for x in probes:
        comps = matrix._component_norms(d, x)
        for i in range(d.m):
            checked += 1
            f_below = bool(comps[i + 1:].max(initial=0.0) <= matrix.RAY_TOL)
            fixes = bool(np.linalg.norm(cum[i] @ x - x) <= 1e-9)
            sub_bad += f_below != fixes
    return span_bad, checked, sub_bad


def loop_rank_one(d, Q, rng, samples, tol):
    """rank_one_extension one ray at a time: (value, sup_matches, span_law_ok)."""
    Q = np.asarray(Q, dtype=np.complex128)
    overlap = np.array([float(np.linalg.norm(d.projection(i) @ Q)) for i in range(d.m)])
    value = float(d.values[np.flatnonzero(overlap > matrix.RAY_TOL)[-1]])
    u, s, _ = np.linalg.svd(Q)
    basis = u[:, s > 0.5]
    sup = max(
        matrix.ray_obs(d, basis @ matrix.random_ray(basis.shape[1], rng)) for _ in range(samples)
    )
    sup = max(sup, max(matrix.ray_obs(d, basis[:, j]) for j in range(basis.shape[1])))
    span_ok = True
    for _ in range(16):
        y, z = matrix.random_ray(d.n, rng), matrix.random_ray(d.n, rng)
        w = matrix.normalize_ray(
            (rng.standard_normal() + 1j * rng.standard_normal()) * y
            + (rng.standard_normal() + 1j * rng.standard_normal()) * z
        )
        if matrix.ray_obs(d, w) > max(matrix.ray_obs(d, y), matrix.ray_obs(d, z)) + tol:
            span_ok = False
    return value, abs(sup - value) <= tol, span_ok


def loop_infsup(d, rng, rays, tol):
    """verify_infsup_extension one ray at a time: (checked, failures)."""
    n = d.n
    eye = np.eye(n, dtype=np.complex128)
    failures = []
    for _ in range(rays):
        y = matrix.random_ray(n, rng)
        fy = matrix.ray_obs(d, y)
        spans = [[y]]
        order = rng.permutation(n)
        acc = [y]
        for j in order[:-1]:
            acc = acc + [eye[:, j]]
            spans.append(list(acc))
        spans.append([eye[:, j] for j in range(n)])
        sups = []
        for vecs in spans:
            u, s, _ = np.linalg.svd(np.stack(vecs, axis=1), full_matrices=False)
            basis = u[:, s > 1e-9]
            samples = [basis @ matrix.random_ray(basis.shape[1], rng) for _ in range(8)]
            sups.append(max(matrix.ray_obs(d, v) for v in [*samples, y]))
        if abs(min(sups) - fy) > tol or abs(sups[0] - fy) > tol:
            failures.append(fy)
    return rays, failures


def loop_eigen_rays(d, tol):
    """The eigenvector-ray verdict of verify_eigenvalue_plateaus, one ray at a time:
    within tol ||A|| of a cluster value and the cluster width of eigh's own."""
    w, V = np.linalg.eigh(d.matrix)
    for j in range(d.n):
        got = matrix.ray_obs(d, V[:, j])
        if (min(abs(got - lam) for lam in d.values) > tol * d.norm()
                or abs(got - w[j]) > matrix.CLUSTER_SCALE * d.norm()):
            return False
    return True


def loop_fix_phases(vectors):
    """One column at a time: scale by the phase of the first entry above RAY_TOL."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > matrix.RAY_TOL)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def projector_norms(d, x):
    return np.array([float(np.linalg.norm(d.projection(i) @ x)) for i in range(d.m)])


def projector_support(d, x):
    """Support and conditioning-band verdict of a ray from one projector
    product per cluster."""
    comps = projector_norms(d, matrix.normalize_ray(x))
    lo, hi = matrix.WARN_BAND
    return np.flatnonzero(comps > matrix.RAY_TOL), bool(((comps >= lo) & (comps <= hi)).any())


# ---------------------------------------------------------------------------
# inputs


def product(L1, L2):
    """Componentwise order and complement on pairs, index i1 * n2 + i2."""
    leq = np.kron(L1.leq.astype(np.int64), L2.leq.astype(np.int64)).astype(bool)
    ortho = (L1.ortho[:, None] * L2.n + L2.ortho[None, :]).ravel()
    names = [f"({a},{b})" for a in L1.names for b in L2.names]
    return FiniteOML(names, leq, ortho)


def relabel(L, perm):
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(L.n)
    return FiniteOML(
        [L.names[int(inv[i])] for i in range(L.n)],
        L.leq[np.ix_(inv, inv)],
        perm[L.ortho[inv]],
    )


BASES = dict(corpus())
for _m in (1, 2, 3):
    BASES[f"2^{_m}xMO2"] = product(boolean_lattice(_m), mo(2))
    BASES[f"2^{_m}xO6"] = product(boolean_lattice(_m), benzene())
BASES["MO3xO6"] = product(mo(3), benzene())


@st.composite
def hermitians(draw, min_levels=1, max_n=40):
    """U diag(w) U^H, n <= max_n, with w drawn from at most n distinct levels;
    U is a random unitary or the identity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(max(2, min_levels), max_n))
    levels = rng.uniform(-5.0, 5.0, draw(st.integers(min_levels, n)))
    w = np.concatenate([levels, rng.choice(levels, n - len(levels))])
    if not draw(st.booleans()):
        return np.diag(w)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ np.diag(w) @ u.conj().T


@st.composite
def posets(draw):
    n = draw(st.integers(1, 9))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = np.triu(np.array(bits, dtype=bool).reshape(n, n)) | np.eye(n, dtype=bool)
    if draw(st.booleans()):  # add a bottom and a top
        n += 2
        grown = np.eye(n, dtype=bool)
        grown[1:-1, 1:-1] = rel
        grown[0, :] = grown[:, -1] = True
        rel = grown
    perm = np.array(draw(st.permutations(range(n))))
    return warshall(rel)[np.ix_(perm, perm)]


@st.composite
def reflexive_relations(draw):
    """A reflexive relation on 1 to 8 elements, with a random permutation as
    ortho: random bits, two times in three cut to their upper triangle
    (acyclic), closed or not, with or without an added bottom and top;
    relabeled."""
    n = draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = np.array(bits, dtype=bool).reshape(n, n)
    if draw(st.sampled_from([True, True, False])):  # acyclic: the upper triangle
        rel = np.triu(rel)
    rel |= np.eye(n, dtype=bool)
    if draw(st.booleans()):
        rel = warshall(rel)
    if draw(st.booleans()):  # add a bottom and a top
        n += 2
        grown = np.eye(n, dtype=bool)
        grown[1:-1, 1:-1] = rel
        grown[0, :] = grown[:, -1] = True
        rel = grown
    perm = np.array(draw(st.permutations(range(n))))
    return rel[np.ix_(perm, perm)], np.array(draw(st.permutations(range(n))))


@st.composite
def orthoposets(draw):
    """Q x Q^op for a drawn poset Q, (a, b) <= (c, d) iff a <= c and d <= b, with
    the swap (a, b) -> (b, a), an involution that reverses the order; relabeled.
    Unless Q is a lattice, meets and joins are missing."""
    q = draw(posets())
    k = q.shape[0]
    leq = (q[:, None, :, None] & q.T[None, :, None, :]).reshape(k * k, k * k)
    swap = np.arange(k * k).reshape(k, k).T.ravel()
    perm = np.array(draw(st.permutations(range(k * k))))
    inv = np.argsort(perm)
    return leq[np.ix_(inv, inv)], perm[swap[inv]]


@st.composite
def relabeled(draw):
    L = BASES[draw(st.sampled_from(sorted(BASES)))]
    return relabel(L, draw(st.permutations(range(L.n))))


@st.composite
def set_lattices(draw):
    """Drawn subsets of {0, ..., k-1} (k <= 5), closed under intersection, with
    the full set added (and the empty set, if nothing else was drawn): a
    lattice under inclusion (every finite lattice arises so, given k large
    enough).  Half the time also closed under union, which makes it
    distributive (but Boolean only by chance).  The identity is its ortho, so
    no orthocomplement test passes; relabeled."""
    k = draw(st.integers(1, 5))
    sets = set(draw(st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=12)))
    sets.add(2**k - 1)
    if len(sets) == 1:
        sets.add(0)
    union = draw(st.booleans())
    while True:
        grown = sets | {a & b for a in sets for b in sets}
        if union:
            grown |= {a | b for a in sets for b in sets}
        if grown == sets:
            break
        sets = grown
    members = sorted(sets)
    perm = draw(st.permutations(members))
    leq = np.array([[a & b == a for b in perm] for a in perm], dtype=bool)
    return FiniteOML([str(a) for a in perm], leq, np.arange(len(perm)))


SPECIALS = (np.nan, np.inf, -np.inf)


@st.composite
def tables(draw):
    """A lattice and a table on it: completely increasing (levels possibly
    moved to -inf / +inf), then with some entries overwritten by NaN,
    +-inf or a random level."""
    L = draw(relabeled())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vals = recon.random_increasing_table(L, rng).values.copy()
    nz = L.nonzero()
    levels = np.unique(vals[nz])
    if draw(st.booleans()):
        vals[vals == levels[0]] = -np.inf
    if draw(st.booleans()):
        vals[vals == levels[-1]] = np.inf
    hits = draw(st.lists(st.integers(0, len(nz) - 1), max_size=3))
    for i in hits:
        vals[nz[i]] = draw(st.sampled_from(SPECIALS + (float(rng.choice(levels)),)))
    return L, ObservableTable(L, vals)


# ---------------------------------------------------------------------------
# tests


def decline_signatures(mp):
    """Make bound_tables take the join search of _joins on every input."""
    mp.setattr(_kernels, "_signature_joins", lambda leq, dual=False: None)


@settings(max_examples=300, deadline=None)
@given(posets())
def test_bound_tables_match_row_scan(leq):
    """The join search, with the signature path declined."""
    with pytest.MonkeyPatch.context() as mp:
        decline_signatures(mp)
        fast = _kernels.bound_tables(leq)
    slow = row_scan_bound_tables(leq)
    assert fast[2:] == slow[2:]
    if fast[2] == _kernels.STATUS_OK:
        assert (fast[0] == slow[0]).all() and (fast[1] == slow[1]).all()


@st.composite
def bound_inputs(draw):
    """A reflexive antisymmetric relation and an ortho permutation or None:
    a random poset, an orthoposet, a relabeled corpus lattice or product
    (2^m x MO2, 2^m x O6), or a random acyclic relation, intransitive or a
    non-lattice more often than not."""
    kind = draw(st.sampled_from(["poset", "orthoposet", "lattice", "relation"]))
    if kind == "poset":
        return draw(posets()), None
    if kind == "orthoposet":
        return draw(orthoposets())
    if kind == "lattice":
        L = draw(relabeled())
        return L.leq, L.ortho
    leq, ortho = draw(reflexive_relations())
    assume(_reflexive_antisymmetric_problem(leq) is None)
    return leq, ortho


def reverse_inclusion(masks):
    """[a, b] -> masks[b] is a subset of masks[a]."""
    m = np.array(masks)
    return (m[None, :] & ~m[:, None]) == 0


@settings(max_examples=300, deadline=None)
@given(case=bound_inputs())
@example(case=(np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool), None))
@example(case=(reverse_inclusion([7, 11, 0, 1, 2, 4, 8, 15]), None))
def test_signature_path_matches_search(case):
    """Whenever the signature path answers, for the order or its reverse,
    its table is the least upper bounds of that order, which is transitive;
    bound_tables gives the status, the witness pair and, on success, the
    tables of the search alone and of the row scan.  The examples: the
    intransitive 0 <= 1 <= 2, where S = {1} signs 0 and 1 alike and the
    diagonal of the lookup check declines; and the masks 7, 11, 0, 1, 2,
    4, 8 and 15 by reverse inclusion, signed by the four one-bit masks:
    7 and 11 have the meet 15 but no join (the lookup of 7 & 11 = 3
    misses), so the search reports NO_JOIN at (0, 1) before the missing
    meet of 1 and 2.  Caught: the miss test dropped."""
    leq, ortho = case
    for dual in (False, True):
        join = _kernels._signature_joins(leq, dual)
        if join is not None:
            assert transitivity_gap(leq) is None
            assert np.array_equal(join, least_upper_bounds(leq.T if dual else leq))
    got = _kernels.bound_tables(leq, ortho)
    with pytest.MonkeyPatch.context() as mp:
        decline_signatures(mp)
        assert_same_bounds(got, _kernels.bound_tables(leq, ortho))
    if transitivity_gap(leq) is None:
        assert_same_bounds(got, row_scan_bound_tables(leq))


def test_signatures_or_search_by_lattice(tmp_path):
    """Relabeled files of 2^6 and 2^3 x MO2 (6 and 7 meet-irreducibles) load
    with no call of the join search, their meets by De Morgan, and 2^6 with
    the identity as ortho from the dual signatures; MO8 (16 atoms past the
    bound of 8 at n = 18) and the 64-chain (63) call it once.  Caught: the dual
    check compared with the columns, which declines the dual signatures."""
    rng = np.random.default_rng(16)
    chain = FiniteOML([str(i) for i in range(64)], np.triu(np.ones((64, 64), bool)),
                      np.arange(64)[::-1])
    B6 = boolean_lattice(6)
    cases = {"2^6": (B6, False), "2^3xMO2": (product(boolean_lattice(3), mo(2)), False),
             "2^6 direct": (FiniteOML(B6.names, B6.leq, np.arange(64)), False),
             "MO8": (mo(8), True), "chain64": (chain, True)}
    files = {}
    for name, (L, _) in cases.items():
        files[name] = relabel(L, rng.permutation(L.n)), tmp_path / f"{name}.json"
        save_lattice(*files[name])
    joins, calls = _kernels._joins, []

    def search(leq):
        calls.append(leq.shape[0])
        return joins(leq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_joins", search)
        for name, (M, path) in files.items():
            calls.clear()
            got = load_lattice(path)
            assert calls == ([M.n] if cases[name][1] else []), name
            assert np.array_equal(got.meet_table, M.meet_table)
            assert np.array_equal(got.join_table, M.join_table)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_closure_and_order_check_match_loops(n, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = np.array(bits, dtype=bool).reshape(n, n)
    assert (transitive_closure(rel) == warshall(rel)).all()
    for m in (rel, rel | np.eye(n, dtype=bool), warshall(rel | np.eye(n, dtype=bool))):
        assert check_partial_order(m) == partial_order_problem(m)


def chain_covers(n):
    rel = np.eye(n, dtype=bool)
    rel[np.arange(n - 1), np.arange(1, n)] = True
    return rel


def cover_relation(L):
    rel = np.zeros((L.n, L.n), dtype=bool)
    for a, b in L.cover_pairs():
        rel[a, b] = True
    return rel


def closure_cases():
    """Relations the level closure must get right, relabeled by a fixed draw:
    a 300-element chain of covers (300 levels), a DAG with a 3-cycle inside
    (rows on and above the cycle are closed by the Tarjan pass), the closed
    order of 2^6 (every pair listed), the covers of 2^6 and of the chain
    without their diagonals, the chain with a back edge at its top (every
    row on or above the cycle, 299 components), and two 3-cycles joined
    through an acyclic node (the first component is closed after its
    successor component, and the node between them)."""
    rng = np.random.default_rng(10)
    dag = np.triu(rng.random((40, 40)) < 0.08, 1)
    dag[[20, 25, 31], [25, 31, 20]] = True
    chain = chain_covers(300)
    back = chain.copy()
    back[299, 298] = True
    joined = np.zeros((9, 9), bool)
    joined[[0, 1, 2, 2, 3, 4, 5, 6, 7], [1, 2, 0, 3, 4, 5, 6, 4, 0]] = True
    cases = {
        "chain300": chain,
        "cycle in a DAG": dag,
        "closed 2^6": boolean_lattice(6).leq,
        "covers of 2^6 without diagonal": cover_relation(boolean_lattice(6)),
        "chain300 without diagonal": chain & ~np.eye(300, dtype=bool),
        "chain300 with a back edge at its top": back,
        "two 3-cycles joined through a node": joined,
    }
    for name, rel in cases.items():
        perm = rng.permutation(rel.shape[0])
        yield pytest.param(rel[np.ix_(perm, perm)], id=name)


@pytest.mark.parametrize("scan_bytes", [8, 24, _kernels._SCAN_BYTES])
@pytest.mark.parametrize("rel", closure_cases())
def test_closure_matches_warshall(rel, scan_bytes):
    """Gather budgets of one row, of three one-word rows (an element's
    successors split across blocks) and the default.  Caught: a block's
    rows assigned instead of ORed, the blocks after a level's first skipped."""
    reflexive = rel | np.eye(rel.shape[0], dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", scan_bytes)
        assert (transitive_closure(rel) == warshall(rel)).all()
        assert (transitive_closure(reflexive) == warshall(reflexive)).all()


def test_closure_holds_no_pair_by_word_gather():
    """On the closed order of 2^9 (19683 pairs, 8 words a row) the level
    closure gathers successor rows in blocks of _SCAN_BYTES, and its traced
    peak stays below 40 bytes a pair, most of it the pair index arrays.
    Gathering the rows of a whole level at once took 51 bytes a pair, and a
    gather of every pair's row alone takes 64."""
    leq = relabel(boolean_lattice(9), np.random.default_rng(3).permutation(512)).leq
    pairs = int(leq.sum())
    assert (transitive_closure(leq) == leq).all()
    assert traced_peak(transitive_closure, leq) < 40 * pairs


@settings(max_examples=300, deadline=None)
@given(case=reflexive_relations())
@example(case=(np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool), np.array([2, 1, 0])))
def test_construction_errors_keep_their_order(case):
    """FiniteOML raises what the loop oracles raise, in their order; the
    example is intransitive with no bottom, where transitivity must win.
    Caught: the bounds checked before the join search's transitivity verdict."""
    leq, ortho = case
    names = [f"x{i}" for i in range(leq.shape[0])]
    want = construction_problem(names, leq)
    if want is None:
        L = FiniteOML(names, leq, ortho)
        meet, join, *_ = row_scan_bound_tables(leq)
        assert np.array_equal(L.meet_table, meet) and np.array_equal(L.join_table, join)
    else:
        with pytest.raises(LatticeError) as exc:
            FiniteOML(names, leq, ortho)
        assert str(exc.value) == want


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=150, deadline=None)
@given(case=reflexive_relations())
def test_join_search_decides_transitivity(rows, case):
    """The count comparison of _joins, in blocks of 1 and 3 rows, against
    the transitivity loop, on reflexive relations cyclic or not: it returns
    the loop's first gap exactly when there is one.  Caught: the comparison
    run on the first block only."""
    leq, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", rows * leq.shape[0])
        got = _kernels._joins(leq)
    assert (got if len(got) == 2 else None) == transitivity_gap(leq)


def test_construction_runs_one_cubic_product(tmp_path):
    """The join search, whose count table is the only n^3 product of the
    lattice layer, runs once on the acyclic covering-pair files of MO4 and MO8
    (where the signatures decline) and on no other file, at most once per
    relabeled corpus order, never in the builders that pass tables (2^m,
    ideals, generated sublattices), and never on a cyclic file, which the
    closure refuses as not antisymmetric; every table equals the original's."""
    rng = np.random.default_rng(12)
    bases = {f"2^{m}": boolean_lattice(m) for m in (1, 3, 6)}
    bases |= {f"MO{k}": mo(k) for k in (1, 4, 8)}
    bases |= {f"2^{m}x{q}": product(boolean_lattice(m), Q)
              for m in (1, 2, 3) for q, Q in (("MO2", mo(2)), ("O6", benzene()))}
    files = {}
    for name, L in bases.items():  # save_lattice writes the covering pairs only
        files[name] = relabel(L, rng.permutation(L.n)), tmp_path / f"{name}.json"
        save_lattice(*files[name])
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({"elements": [str(i) for i in range(64)], "ortho": list(range(64)),
                                  "leq": [[i, i + 1] for i in range(63)] + [[63, 62]]}))
    joins, calls = _kernels._joins, []

    def search(leq):
        calls.append(leq.shape[0])
        return joins(leq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_joins", search)
        for name, (M, path) in files.items():
            calls.clear()
            L = load_lattice(path)
            assert calls == ([L.n] if name in ("MO4", "MO8") else []), name
            assert np.array_equal(L.leq, M.leq)
            assert np.array_equal(L.meet_table, M.meet_table)
            assert np.array_equal(L.join_table, M.join_table)
        calls.clear()
        with pytest.raises(LatticeError, match=r"not antisymmetric, witness \(62, 63\)"):
            load_lattice(cyclic)
        assert calls == []
        for L in BASES.values():
            calls.clear()
            perm = rng.permutation(L.n)
            M = relabel(L, perm)
            assert len(calls) <= 1
            for got, want in ((M.meet_table, L.meet_table), (M.join_table, L.join_table)):
                assert np.array_equal(got.take(perm, axis=0).take(perm, axis=1), perm[want])
        calls.clear()
        for m in range(1, 10):
            boolean_lattice(m)
        for L in (boolean_lattice(6), mo(3), product(boolean_lattice(2), mo(2))):
            for a in L.nonzero():
                principal_ideal(L, int(a))
            generated_sublattice(L, rng.choice(L.n, 2))
        assert calls == []


@settings(max_examples=40, deadline=None)
@given(L=relabeled(), data=st.data())
def test_sublattice_tables_match_row_loop(L, data):
    """The sub-tables of every principal ideal and of a generated sublattice,
    gathered through the inverse embedding, equal the per-row dict loop bit
    for bit."""
    subs = [generated_sublattice(L, data.draw(st.lists(st.integers(0, L.n - 1), max_size=3)))]
    for a in L.nonzero():
        try:
            subs.append(principal_ideal(L, int(a)))
        except LatticeError as exc:  # the ideals of a non-orthomodular lattice
            assert "relative complement" in str(exc)
    for sub, embed in subs:
        meet, join = loop_sub_tables(L, embed)
        assert sub.meet_table.dtype == sub.join_table.dtype == np.int16
        assert _kernels.index_dtype(sub.n) == np.int16
        assert np.array_equal(sub.meet_table, meet) and np.array_equal(sub.join_table, join)


def widened(L):
    """L with int64 copies of its tables, the type every builder made before."""
    W = object.__new__(FiniteOML)
    for slot in FiniteOML.__slots__:
        setattr(W, slot, getattr(L, slot))
    W.meet_table, W.join_table = (t.astype(np.int64) for t in (L.meet_table, L.join_table))
    return W


def outcome(fn, L, t):
    """fn(L, t) as text, with tables as bytes and families as their jumps, or
    the type and message of the error it raised."""
    try:
        out = fn(L, t)
    except LatticeError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, ObservableTable):
        return out.values.tobytes()
    return repr(out.jumps() if isinstance(out, SpectralFamily) else out)


def test_index_dtype_holds_every_index():
    """int16 up to 2^15 elements, the next type past it; no n^2 array is built."""
    for n, want in ((2, np.int16), (1 << 15, np.int16), (1 << 15 | 1, np.int32)):
        dt = _kernels.index_dtype(n)
        assert dt == want
        assert np.iinfo(dt).max >= n - 1 and np.iinfo(dt).min < 0


@settings(max_examples=40, deadline=None)
@given(case=tables(), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_int16_tables_match_int64_oracle(tmp_path_factory, case, m, seed):
    """The int16 tables of FiniteOML (De Morgan and direct meets), load_lattice
    and boolean_lattice equal the int64 row-scan oracle, and the spectral and
    recon results on them equal those on int64 copies of the same tables."""
    L, t = case
    want = row_scan_bound_tables(L.leq)[:2]
    path = tmp_path_factory.mktemp("tables") / "L.json"
    save_lattice(L, path)
    B = boolean_lattice(m)
    for M, (meet, join) in (
        (L, want),
        (FiniteOML(L.names, L.leq, np.arange(L.n)), want),  # the identity reverses no order
        (load_lattice(path), want),
        (B, row_scan_bound_tables(B.leq)[:2]),
    ):
        assert M.meet_table.dtype == M.join_table.dtype == np.int16
        assert np.array_equal(M.meet_table, meet) and np.array_equal(M.join_table, join)
    W = widened(L)
    E = random_spectral_family(L, np.random.default_rng(seed))
    EW = make_spectral_family(W, E.jumps())
    for fn in (observable_fn, mirrored_fn):
        assert fn(E).values.tobytes() == fn(EW).values.tobytes()
    tw = ObservableTable(W, t.values)
    for fn in (recon.is_completely_increasing, recon.is_abstract_observable,
               recon.verify_sublevel_ideals, recon.f_from_r, recon.reconstruct):
        assert outcome(fn, L, t) == outcome(fn, W, tw)
    assert verify_structure(L) == verify_structure(W)


@settings(max_examples=60, deadline=None)
@given(relabeled())
def test_structure_matches_triple_scan(L):
    meet, join, status, *_ = row_scan_bound_tables(L.leq)
    assert status == _kernels.STATUS_OK
    assert (meet == L.meet_table).all() and (join == L.join_table).all()
    rep = verify_structure(L)
    witness = triple_scan(meet, join)
    assert rep.is_distributive == (witness is None)
    assert rep.witnesses.get("is_distributive") == witness
    assert rep.witnesses.get("is_atomistic") == atomistic_witness(L)
    lt = L.leq & ~np.eye(L.n, dtype=bool)
    covers = [
        (i, j)
        for i in range(L.n)
        for j in range(L.n)
        if lt[i, j] and not any(lt[i, k] and lt[k, j] for k in range(L.n))
    ]
    assert L.cover_pairs() == covers


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=150, deadline=None)
@given(L=set_lattices())
def test_join_prime_test_matches_triple_scan(rows, L):
    """Distributivity from the join-primes, in blocks of 1 and 3 rows (of 2n
    bytes: int16 down-set sizes), against the triple loop on lattices of sets
    with no orthocomplement, distributive or not; verify_structure's verdict
    and witness too.  Caught: primes taken
    without their block offset, the last block's primes skipped, and up-set
    sizes read as down-set sizes."""
    witness = triple_scan(L.meet_table, L.join_table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", rows * 2 * L.n)
        distributive = _kernels._distributive(L.leq, L.downset_sizes())
        assert distributive == (witness is None)
        rep = verify_structure(L)
    assert rep.is_distributive == (witness is None)
    assert rep.witnesses.get("is_distributive") == witness


def test_distributive_lattices_run_no_triple_scan(monkeypatch):
    """A chain and 2^6 with the identity as ortho fail the orthocomplement
    test; the triple scan ran to its end on such lattices (about 160 s a call
    at n = 2048).  Now it runs only to name a failure."""

    def scan(meet, join):
        raise AssertionError("the triple scan ran on a distributive lattice")

    monkeypatch.setattr(_kernels, "distributivity_witness", scan)
    n = 64
    chain = FiniteOML([str(i) for i in range(n)], np.triu(np.ones((n, n), bool)),
                      np.arange(n)[::-1].copy())
    cube = boolean_lattice(6)
    for L in (chain, FiniteOML(cube.names, cube.leq, np.arange(cube.n))):
        rep = verify_structure(L)
        assert rep.is_distributive and not rep.is_ortho_complemented
        assert "is_distributive" not in rep.witnesses


@pytest.mark.parametrize("name", ["MO3", "2^2xO6"])
def test_triple_scan_skips_rows_comparable_to_all(monkeypatch, name):
    """With bottom and top relabeled to rows 0 and 1 (the only elements
    comparable to every element here), distributivity_witness walks the
    rows from 2 to its witness's row, one _first_pair walk each, and never
    the rows of bottom and top; the witness is the triple loop's."""
    base = BASES[name]
    rest = np.setdiff1d(np.arange(base.n), [base.bottom, base.top])
    perm = np.empty(base.n, np.int64)
    perm[[base.bottom, base.top]] = 0, 1
    perm[rest] = 2 + np.random.default_rng(4).permutation(rest.size)
    L = relabel(base, perm)
    assert np.flatnonzero((L.leq | L.leq.T).all(axis=1)).tolist() == [0, 1]
    witness = triple_scan(L.meet_table, L.join_table)
    walks = []
    first_pair = _kernels._first_pair
    monkeypatch.setattr(_kernels, "_first_pair",
                        lambda *args: walks.append(args) or first_pair(*args))
    assert _kernels.distributivity_witness(L.meet_table, L.join_table) == witness
    assert len(walks) == witness[0] - 1


def test_ortholattices_run_no_orthomodularity_scan(monkeypatch):
    """The gather of every a v (b ^ a') ran on every lattice; now it runs only
    when the orthocomplement test or the row test fails: not on 2^6, MO3 and
    2^2 x MO2, once on the benzene hexagon, with the one-shot witness."""
    calls = []
    scan = _kernels.orthomodularity_witness
    monkeypatch.setattr(_kernels, "orthomodularity_witness",
                        lambda *args: calls.append(args) or scan(*args))
    for L in (boolean_lattice(6), mo(3), BASES["2^2xMO2"]):
        rep = verify_structure(L)
        assert rep.is_ortho_complemented and rep.is_orthomodular
    assert not calls
    L = benzene()
    rep = verify_structure(L)
    assert len(calls) == 1
    assert rep.witnesses["is_orthomodular"] == one_shot_orthomodularity(
        L.leq, L.meet_table, L.join_table, L.ortho) == (1, 2)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", sorted(BASES))
def test_orthomodular_decision_matches_one_shot(rows, name):
    """On every lattice of the corpus and the products with MO2 and O6 (all
    ortholattices), as given and relabeled, the row test (no a < b with
    a' ^ b = 0) in blocks of 1 and 3 rows agrees with the one-shot gather of
    a v (b ^ a'), and verify_structure keeps its verdict and witness.
    Caught: the diagonal left set (every ortholattice fails), cleared at
    rows not offset by the block start."""
    base = BASES[name]
    rng = np.random.default_rng(rows)
    for L in (base, *(relabel(base, rng.permutation(base.n)) for _ in range(2))):
        assert _ortho_complement_verdict(L) == (True, None)
        a, b = one_shot_orthomodularity(L.leq, L.meet_table, L.join_table, L.ortho)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_SCAN_BYTES", rows * L.meet_table.itemsize * L.n)
            assert _kernels._orthomodular(L.leq, L.meet_table, L.ortho, L.bottom) == (a < 0)
            rep = verify_structure(L)
        assert rep.is_orthomodular == (a < 0)
        assert rep.witnesses.get("is_orthomodular") == (None if a < 0 else (a, b))


def test_maps_that_are_no_orthocomplement_keep_the_scan():
    """The identity, and random involutions that swap bottom and top, as
    ortho on the corpus and the products: the row test rests on the
    ortholattice axioms and passes on some of these maps where the scan
    fails, so verify_structure keeps the scan's verdict and witness."""
    rng = np.random.default_rng(8)
    wrong = 0
    for name, L in sorted(BASES.items()):
        rest = rng.permutation(np.setdiff1d(np.arange(L.n), [L.bottom, L.top]))
        orthos = [np.arange(L.n)]
        for _ in range(4):
            k = int(rng.integers(0, rest.size // 2 + 1))
            o = np.arange(L.n)
            o[rest[:k]], o[rest[k:2 * k]] = rest[k:2 * k], rest[:k]
            o[[L.bottom, L.top]] = L.top, L.bottom
            orthos.append(o)
            rest = rng.permutation(rest)
        for o in orthos:
            M = FiniteOML(L.names, L.leq, o)
            a, b = one_shot_orthomodularity(M.leq, M.meet_table, M.join_table, o)
            rep = verify_structure(M)
            assert rep.is_orthomodular == (a < 0)
            assert rep.witnesses.get("is_orthomodular") == (None if a < 0 else (a, b))
            if not rep.is_ortho_complemented:
                wrong += _kernels._orthomodular(M.leq, M.meet_table, o, M.bottom) != (a < 0)
    assert wrong > 0


@pytest.mark.parametrize("name", sorted(BASES))
def test_corpus_and_products_match_triple_scan(name):
    L = BASES[name]
    rep = verify_structure(L)
    assert rep.witnesses.get("is_distributive") == triple_scan(L.meet_table, L.join_table)
    assert rep.witnesses.get("is_atomistic") == atomistic_witness(L)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_table_laws_match_loops(case):
    L, t = case
    assert recon.is_completely_increasing(L, t) == pairwise_increasing(L, t)
    assert recon.is_abstract_observable(L, t) == loop_abstract_observable(L, t)
    want = loop_f_from_r(L, t)
    if isinstance(want, tuple):
        with pytest.raises(NotObservableError) as err:
            recon.f_from_r(L, t)
        assert err.value.witness == want
    else:
        np.testing.assert_array_equal(recon.f_from_r(L, t).values, want)


def nan_at_top_of_two():
    """chain-2 with NaN at top: no pair q < p of nonzero elements, so the
    loop holds, though NaN <= NaN fails on the diagonal."""
    L = BASES["chain-2"]
    vals = np.zeros(L.n)
    vals[L.top] = np.nan
    return L, ObservableTable(L, vals)


@settings(max_examples=150, deadline=None)
@given(tables())
@example(case=nan_at_top_of_two())
def test_monotone_continuity_matches_pair_loop(case):
    """Tables with NaN and +-inf, observable or not."""
    L, t = case
    assert recon._monotone_continuous(L, t.values) == loop_monotone_continuous(L, t.values)


def assert_same_bits(got, want):
    """Equal as float64 bit patterns: NaN where NaN, and the sign of zero kept."""
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def atom_data(L, rng, finite=False):
    """Random atom values from a few levels, ties and both signed zeros among them."""
    levels = [-0.0, 0.0, -1.5, 2.0, rng.standard_normal()] + [np.inf, -np.inf] * (not finite)
    return {int(t): float(rng.choice(levels)) for t in L.atoms()}


@pytest.mark.parametrize("name", sorted(BASES))
def test_atom_sup_matches_atom_loop_on_the_corpus(name):
    L = BASES[name]
    rng = np.random.default_rng(4)
    for _ in range(10):
        data = atom_data(L, rng)
        assert_same_bits(recon._atom_sup(L, data), loop_atom_sup(L, data))


@settings(max_examples=100, deadline=None)
@given(relabeled(), st.integers(0, 2**32 - 1))
def test_atom_sup_matches_atom_loop(L, seed):
    rng = np.random.default_rng(seed)
    data = atom_data(L, rng)
    assert_same_bits(recon._atom_sup(L, data), loop_atom_sup(L, data))
    data = atom_data(L, rng, finite=True)  # a family needs finite thresholds
    want = loop_atom_sup(L, data)
    family, witness = recon.observable_from_quasipoint_data(L, data)
    ok, loop_witness = pairwise_increasing(L, ObservableTable(L, want))
    assert (family is not None, witness) == (ok, loop_witness)


@settings(max_examples=100, deadline=None)
@given(relabeled(), st.integers(0, 2**32 - 1))
def test_reconstruct_matches_minimal_ideals(L, seed):
    E = random_spectral_family(L, np.random.default_rng(seed))
    f = observable_fn(E)
    back = recon.reconstruct(L, f)
    assert back.jumps() == literal_jumps(L, f) == E.jumps()
    levels = np.unique(f.values[L.nonzero()])
    probes = np.concatenate([levels - 1.0, levels + 1.0, (levels[:-1] + levels[1:]) / 2])
    for lam in probes[~np.isin(probes, levels)]:
        assert back.value_at(float(lam)) == held_value(back, levels, lam)


@st.composite
def sublevel_tables(draw):
    """Tables of tables(), or on the same lattice: all n values distinct, or an
    observable table with one level moved to 0.0 and the signs of its zeros
    drawn, optionally with NaN or +-inf on one nonzero element."""
    L, t = draw(tables())
    kind = draw(st.sampled_from(["drawn", "distinct", "signed zeros"]))
    if kind == "drawn":
        return L, t
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "distinct":
        return L, ObservableTable(L, rng.permutation(L.n).astype(np.float64))
    vals = recon.random_increasing_table(L, rng).values.copy()
    nz = L.nonzero()
    zero = vals == rng.choice(np.unique(vals[nz]))
    vals[zero] = np.where(rng.random(L.n) < 0.5, -0.0, 0.0)[zero]
    hit = draw(st.sampled_from((None,) + SPECIALS))
    if hit is not None:
        vals[nz[draw(st.integers(0, len(nz) - 1))]] = hit
    return L, ObservableTable(L, vals)


def unchained_table():
    """On 2^3 (index = bitmask of x, y, z): every nonzero p lies below the
    candidate of its level and each sublevel count matches the candidate's
    down-set, but the candidates x and y v z form no chain, and f(y v z) = 2
    while max(f(y), f(z)) = 3."""
    L = boolean_lattice(3)
    return L, ObservableTable(L, np.array([np.nan, 1, 2, 3, 3, 3, 2, 3], dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(sublevel_tables())
@example(case=unchained_table())
def test_sublevel_family_matches_pairwise_law(case):
    """The sublevel decision against the pairwise max-law loop, its jumps
    (signs of zero included) against the literal minimal ideals, and a
    rejected table's witness from reconstruct against the loops."""
    L, t = case
    family = recon._sublevel_family(L, t.values)
    ok, _ = pairwise_increasing(L, t)
    assert (family is not None) == ok
    if ok:
        assert [(repr(lam), v) for lam, v in family.jumps()] == [
            (repr(lam), v) for lam, v in literal_jumps(L, t)]
    else:
        with pytest.raises(NotObservableError) as err:
            recon.reconstruct(L, t)
        assert err.value.witness == loop_abstract_observable(L, t)[1]


def test_observable_tables_skip_the_witness_scans():
    """On observable tables (finite, with +-inf levels, with signed zeros) no
    n^2 scan runs: the row-block max-law scan and the filter minima raise."""

    def scan(*args):
        raise AssertionError("witness scan ran on an observable table")

    rng = np.random.default_rng(9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recon, "_max_law_witness", scan)
        mp.setattr(recon, "_filter_minima", scan)
        for name in sorted(BASES):
            L = BASES[name]
            for _ in range(4):
                E = random_spectral_family(L, rng)
                f = observable_fn(E)
                assert recon.is_completely_increasing(L, f) == (True, None)
                assert recon.is_abstract_observable(L, f) == (True, None)
                np.testing.assert_array_equal(recon.f_from_r(L, f).values, f.values)
                assert recon.reconstruct(L, f) == E
                vals = f.values.copy()
                vals[vals == E.thresholds[0]] = -np.inf
                vals[vals == E.thresholds[-1]] = np.inf
                vals[vals == E.thresholds[len(E.thresholds) // 2]] = -0.0
                vals[L.bottom] = 7.0  # ignored by the laws, NaN in f_from_r
                g = ObservableTable(L, vals)
                assert recon.is_completely_increasing(L, g) == (True, None)
                assert recon.is_abstract_observable(L, g) == (True, None)
                want = vals.copy()
                want[L.bottom] = np.nan
                np.testing.assert_array_equal(recon.f_from_r(L, g).values, want)


def assert_same_bounds(got, want):
    """Same status and witness, and on success the same tables."""
    assert got[2:] == want[2:]
    if got[2] == _kernels.STATUS_OK:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# bit-row budgets of bound_tables: one row per block, a few rows, the default
# (one block for every lattice drawn here, so nothing is mirrored across blocks)
BLOCK_WORDS = (1, 64, _kernels._BLOCK_WORDS)


@pytest.mark.parametrize("block_words", BLOCK_WORDS)
@settings(max_examples=100, deadline=None)
@given(case=orthoposets())
def test_de_morgan_matches_direct_path_on_orthoposets(block_words, case):
    """Caught: meets from join[o][:, o] without the outer o, meet-ok not
    permuted, the witness row taken from the join mask first, a triangle
    or its ok mask left unmirrored."""
    leq, ortho = case
    assert _kernels._ortho_witness(leq, ortho) is None
    with pytest.MonkeyPatch.context() as mp:
        decline_signatures(mp)
        mp.setattr(_kernels, "_BLOCK_WORDS", block_words)
        fast = _kernels.bound_tables(leq, ortho)
        assert_same_bounds(fast, _kernels.bound_tables(leq))
    assert_same_bounds(fast, row_scan_bound_tables(leq))


@pytest.mark.parametrize("block_words", BLOCK_WORDS)
@settings(max_examples=60, deadline=None)
@given(L=relabeled())
def test_de_morgan_matches_direct_path_on_ortholattices(block_words, L):
    """Caught: a triangle or its ok mask left unmirrored."""
    assert _kernels._ortho_witness(L.leq, L.ortho) is None
    with pytest.MonkeyPatch.context() as mp:
        decline_signatures(mp)
        mp.setattr(_kernels, "_BLOCK_WORDS", block_words)
        fast = _kernels.bound_tables(L.leq, L.ortho)
        assert fast[2] == _kernels.STATUS_OK
        assert_same_bounds(fast, _kernels.bound_tables(L.leq))
    assert_same_bounds(fast, row_scan_bound_tables(L.leq))


def test_non_involutive_ortho_takes_the_direct_path():
    """The identity is an involution that keeps the order, and an atom cycle
    after the complement of MO3 reverses the order without being an
    involution; De Morgan would give wrong meets for both.  Caught: dropping
    either half of _ortho_witness."""
    L = mo(3)
    want = row_scan_bound_tables(L.leq)
    a1, a2, a3 = L.atoms()[:3]
    cycle = np.arange(L.n)
    cycle[[a1, a2, a3]] = [a2, a3, a1]
    turned = L.ortho[cycle]
    assert not (turned[turned] == np.arange(L.n)).all()
    assert (L.leq[np.ix_(turned, turned)] == L.leq.T).all()
    for ortho in (np.arange(L.n), turned):
        assert _kernels._ortho_witness(L.leq, ortho) is not None
        assert_same_bounds(_kernels.bound_tables(L.leq, ortho), want)
        M = FiniteOML(L.names, L.leq, ortho)
        assert np.array_equal(M.meet_table, want[0]) and np.array_equal(M.join_table, want[1])


def check_blocked_scans(L, t):
    """Every row-blocked scan against its one-shot form, on L and table t; the
    distributivity scan against the triple loop."""
    o = L.ortho
    assert recon.is_completely_increasing(L, t) == one_shot_increasing(L, t)
    assert _kernels.orthomodularity_witness(
        L.leq, L.meet_table, L.join_table, o
    ) == one_shot_orthomodularity(L.leq, L.meet_table, L.join_table, o)
    assert _kernels._distributive(L.leq, L.downset_sizes()) == (
        triple_scan(L.meet_table, L.join_table) is None)
    assert (_kernels._ortho_witness(L.leq, o) is None) == bool(
        (L.leq[np.ix_(o, o)] == L.leq.T).all())
    assert _kernels._ortho_witness(L.leq, o) == one_shot_ortho_witness(L.leq, o)
    assert _kernels._reverses_order(L.leq, o) == (one_shot_ortho_witness(L.leq, o) is None)
    assert _reflexive_antisymmetric_problem(L.leq) == one_shot_order_problem(L.leq)
    meet, join, status, *_ = _kernels.bound_tables(L.leq, o)
    assert status == _kernels.STATUS_OK
    assert np.array_equal(meet, L.meet_table) and np.array_equal(join, L.join_table)
    assert _kernels.distributivity_witness(meet, join) == (
        triple_scan(meet, join) or (-1, -1, -1))


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=100, deadline=None)
@given(case=tables())
def test_blocked_scans_match_one_shot(rows, case):
    """Scan budget cut to 1 and 3 rows of 8n bytes; tables carry NaN and +-inf.
    Caught: a witness row without its block offset, a last block cut short."""
    L, t = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", rows * 8 * L.n)
        check_blocked_scans(L, t)


@st.composite
def ortho_cases(draw):
    """An orthoposet, a relabeled lattice of the corpus or the products, or a
    reflexive relation (antisymmetric or not), with its own ortho, the
    identity, or an involution pairing the first entries of its own ortho."""
    leq, ortho = draw(st.one_of(orthoposets(), reflexive_relations(),
                                relabeled().map(lambda L: (L.leq, L.ortho))))
    n = leq.shape[0]
    kind = draw(st.sampled_from(["own", "identity", "involution"]))
    if kind == "identity":
        ortho = np.arange(n)
    elif kind == "involution":
        k = draw(st.integers(0, n // 2))
        o = np.arange(n)
        o[ortho[:k]], o[ortho[k:2 * k]] = ortho[k:2 * k], ortho[:k]
        ortho = o
    return leq, ortho


def mo3_orthos():
    """The orthos of test_non_involutive_ortho_takes_the_direct_path on MO3: the
    identity, and the complement after an atom cycle."""
    L = mo(3)
    a1, a2, a3 = L.atoms()[:3]
    cycle = np.arange(L.n)
    cycle[[a1, a2, a3]] = [a2, a3, a1]
    return [(L.leq, np.arange(L.n)), (L.leq, L.ortho[cycle])]


def two_tile_cycles():
    """Six elements with the 2-cycles 1 <-> 2 and 0 <-> 4: in tiles 3 wide the
    first band holds row 1 in its diagonal tile and row 0 in the next."""
    leq = np.eye(6, dtype=bool)
    leq[[1, 2, 0, 4], [2, 1, 4, 0]] = True
    return leq, np.arange(6)


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=150, deadline=None)
@given(case=ortho_cases())
@example(case=mo3_orthos()[0])
@example(case=mo3_orthos()[1])
@example(case=two_tile_cycles())
def test_order_witnesses_match_one_shot(rows, case):
    """_ortho_witness in blocks of 1 and 3 rows of n bytes, and the
    antisymmetry witness and the reversal decision in square tiles 1 and 3
    elements wide, against their one-shot n x n forms.  Caught: the gather
    of the reversed order taken rows first (b' <= a' read as a' <= b'), the
    diagonal cleared at rows not offset by the block start, a band's pair
    taken from its first tile with a pair set instead of its least row."""
    leq, ortho = case
    want = one_shot_ortho_witness(leq, ortho)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", rows * leq.shape[0])
        assert _kernels._ortho_witness(leq, ortho) == want
        mp.setattr(_kernels, "_SCAN_BYTES", rows * rows)
        assert _kernels._reverses_order(leq, ortho) == (want is None)
        assert _reflexive_antisymmetric_problem(leq) == one_shot_order_problem(leq)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", ["2^3", "MO3", "2^2xO6"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_bottom_at_a_block_edge(rows, name, value):
    """The bottom moved to the first and last row of a block and to the last
    row, with r(bottom) = value, which the max law must ignore.  Caught: the
    bottom row cleared only in the first block, or at an index not offset by
    the block start."""
    base = BASES[name]
    rng = np.random.default_rng(5)
    for pos in (0, rows - 1, rows, base.n - 1):
        perm = rng.permutation(base.n)
        perm[[base.bottom, int(np.argmax(perm == pos))]] = pos, perm[base.bottom]
        L = relabel(base, perm)
        assert L.bottom == pos
        vals = recon.random_increasing_table(L, rng).values.copy()
        vals[L.bottom] = value
        t = ObservableTable(L, vals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_SCAN_BYTES", rows * 8 * L.n)
            assert recon.is_completely_increasing(L, t) == (True, None)
            check_blocked_scans(L, t)


def test_law_scans_build_no_square_temporary():
    """At n = 512 the traced peaks of verify_structure, reconstruct and f_from_r
    stay below 1 MiB; each one-shot scan built 2 MiB float64 or int64 n x n
    temporaries (traced peaks 4.3 MB), which glibc serves from fresh pages."""
    L = boolean_lattice(9)
    f = observable_fn(random_spectral_family(L, np.random.default_rng(1)))
    assert traced_peak(verify_structure, L) < 1 << 20
    assert traced_peak(recon.reconstruct, L, f) < 1 << 20
    assert traced_peak(recon.f_from_r, L, f) < 1 << 20


def test_order_scans_build_no_square_temporary():
    """On a relabeled 2^10 lattice, verify_structure and the reflexivity and
    antisymmetry check allocate at most 0.5 bytes a pair; the one-shot
    orthocomplement verdict and antisymmetry mask took 2.0 (n x n bool
    temporaries)."""
    L = relabel(boolean_lattice(10), np.random.default_rng(3).permutation(1024))
    assert traced_peak(verify_structure, L) <= 0.5 * L.n**2
    assert traced_peak(_reflexive_antisymmetric_problem, L.leq) <= 0.5 * L.n**2


def test_distributivity_scan_builds_no_square_temporary():
    """On the non-distributive 2^6 x O6 (n = 384) verify_structure runs the
    triple scan, which held three n x n int64 arrays per row a (3.6 MB traced);
    the join-prime test that runs before it holds row blocks only."""
    L = product(boolean_lattice(6), benzene())
    assert verify_structure(L).witnesses["is_distributive"] == triple_scan(
        L.meet_table, L.join_table)
    assert traced_peak(_kernels.distributivity_witness, L.meet_table, L.join_table) < 1 << 20
    assert traced_peak(_kernels._distributive, L.leq, L.downset_sizes()) < 1 << 20


def test_signature_path_holds_its_table_and_row_blocks():
    """On relabeled 2^9 (n = 512) the signature path, for the joins and for
    the joins of the reverse, holds its int16 table and row blocks of
    _SCAN_BYTES (2.82 bytes a pair traced); one more n x n int16 temporary
    would pass the bound."""
    L = relabel(boolean_lattice(9), np.random.default_rng(2).permutation(512))
    n = L.n
    for dual in (False, True):
        assert traced_peak(_kernels._signature_joins, L.leq, dual) < 2 * n * n + 8 * _kernels._SCAN_BYTES


def test_bound_tables_hold_one_bit_block_and_one_count_table():
    """The join search of bound_tables (the signature path declined) at
    n = 512 holds at most one block of ANDed bit rows and one count table
    in the index type, next to its table of positions and ok mask (2 + 2 +
    1 bytes a pair): 8.44 bytes a pair traced, bounded by 9, a margin of
    about 1/2.  With a float32 count table and int64 blocks it took 12.66."""
    L = relabel(boolean_lattice(9), np.random.default_rng(2).permutation(512))
    n = L.n
    with pytest.MonkeyPatch.context() as mp:
        decline_signatures(mp)
        peak = traced_peak(_kernels.bound_tables, L.leq, L.ortho)
    assert peak < 9 * n * n


@settings(max_examples=200, deadline=None)
@given(case=reflexive_relations())
@example(case=(np.random.default_rng(3).random((700, 700)) < 0.7, None))
def test_upper_counts_match_float32_product(case):
    """The up-set sizes and common-upper-bound counts of _upper_counts, of
    the index type of n + 1, equal the float32 product of the order
    relabeled by up-set size with its transpose, on reflexive relations
    transitive or not (cyclic ones among them), and on a random 700 x 700
    relation, whose counts pass 2^8."""
    leq, _ = case
    leq = leq | np.eye(leq.shape[0], dtype=bool)
    n = leq.shape[0]
    by_up, pos, up, words, common, gap = _kernels._upper_counts(leq)
    rel = leq.take(by_up, axis=0).take(by_up, axis=1).astype(np.float32)
    assert up.dtype == common.dtype == _kernels.index_dtype(n + 1)
    assert np.array_equal(common, rel @ rel.T)
    assert np.array_equal(up, rel.sum(axis=1))
    assert np.array_equal(pos[by_up], np.arange(n))


# ---------------------------------------------------------------------------
# matrix layer

# Off-support components of a ray.  Support decisions are pinned around
# RAY_TOL = 1e-9 and at both ends of WARN_BAND = (1e-12, 1e-6).  A component
# exactly at a band end is warned about or not by rounding, in either
# formula, so the warning is pinned 1e-3 inside and outside each end.
SUPPORT_COMPONENTS = (1e-12, 1e-10, 1e-9 * (1 - 1e-3), 1e-9 * (1 + 1e-3), 1e-8, 1e-6)
WARNING_COMPONENTS = (
    1e-12 * (1 - 1e-3), 1e-12 * (1 + 1e-3), 1e-10, 1e-9 * (1 - 1e-3), 1e-9 * (1 + 1e-3),
    1e-8, 1e-6 * (1 - 1e-3), 1e-6 * (1 + 1e-3),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1 - 1e-6, 1.0]), st.sampled_from([1 + 1e-6, 2.0])),
        max_size=10,
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_cluster_starts_match_gap_loop(steps, rotate, seed):
    """Gaps in units of the cluster tolerance, within 1e-6 of it on both
    sides.  Each near-tie is followed by a clear gap, so no cluster chains
    two near-ties and the width rule of eig splits where the gap loop does."""
    gaps = [g for step in steps for g in step]
    a = np.diag(1.0 + matrix.CLUSTER_SCALE * np.cumsum([0.0, *gaps]))
    if rotate:
        rng = np.random.default_rng(seed)
        n = a.shape[0]
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = u @ a @ u.conj().T
    d = matrix.eig(a)
    w = np.linalg.eigh(d.matrix)[0]
    ctol = matrix.CLUSTER_SCALE * float(np.abs(w).max())
    assert d.starts.tolist() == [c[0] for c in gap_loop_clusters(w, ctol)]
    assert len(d.starts) == d.m


@settings(max_examples=60, deadline=None)
@given(hermitians())
def test_projection_matches_stacked_clusters(a):
    """P_c from the basis slice of cluster c, bit for bit the stack eig built
    from the gap-loop clusters."""
    d = matrix.eig(a)
    w = np.linalg.eigh(d.matrix)[0]
    ctol = matrix.CLUSTER_SCALE * float(np.abs(w).max())
    V = d.basis
    stacked = np.stack([V[:, c] @ V[:, c].conj().T for c in gap_loop_clusters(w, ctol)])
    assert len(stacked) == d.m
    for c in range(d.m):
        assert np.array_equal(d.projection(c), stacked[c])


@settings(max_examples=100, deadline=None)
@given(hermitians(), st.integers(0, 2**32 - 1))
def test_fix_phases_matches_column_loop(a, seed):
    """On eigh output, and on its columns with a leading run of entries
    shrunk to at most RAY_TOL, sometimes the whole column, sometimes with
    an entry exactly at RAY_TOL."""
    V = np.linalg.eigh(a)[1]
    rng = np.random.default_rng(seed)
    n = V.shape[0]
    shrunk = V.copy()
    for j in range(n):
        k = int(rng.integers(0, n + 1))
        shrunk[:k, j] *= matrix.RAY_TOL * rng.uniform(0.0, 1.0, k)
        if k and rng.random() < 0.5:
            shrunk[k - 1, j] = matrix.RAY_TOL
    for vectors in (V, shrunk):
        assert np.array_equal(matrix._fix_phases(vectors), loop_fix_phases(vectors))


@settings(max_examples=60, deadline=None)
@given(hermitians(), st.integers(0, 2**32 - 1))
def test_component_norms_match_projectors(a, seed):
    d = matrix.eig(a)
    rng = np.random.default_rng(seed)
    rays = [matrix.random_ray(d.n, rng) for _ in range(4)] + list(np.eye(d.n))
    for x in rays:
        got = matrix._component_norms(d, x)
        assert np.abs(got - projector_norms(d, x)).max() <= 1e-14


@settings(max_examples=60, deadline=None)
@given(hermitians(min_levels=2), st.integers(0, 2**32 - 1))
def test_band_rays_match_projectors(a, seed):
    """A unit vector of one cluster plus a small component in another: the
    support and both ray values agree with the projector path, and so does
    the warning off the band ends."""
    d = matrix.eig(a)
    rng = np.random.default_rng(seed)
    for delta in sorted(set(SUPPORT_COMPONENTS + WARNING_COMPONENTS)):
        i, j = rng.choice(d.m, size=2, replace=False)
        u = matrix.normalize_ray(d.projection(i) @ matrix.random_ray(d.n, rng))
        v = matrix.normalize_ray(d.projection(j) @ matrix.random_ray(d.n, rng))
        x = u + delta * v
        support, band = projector_support(d, x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = matrix._supports(matrix._component_norms(d, matrix.normalize_ray(x)))[0]
            f, g = matrix._ray(d, x, -1), matrix._ray(d, x, 0)
        np.testing.assert_array_equal(np.flatnonzero(got), support)
        assert f == float(d.values[support[-1]])
        assert g == float(d.values[support[0]])
        if delta in WARNING_COMPONENTS:
            assert len(caught) == (2 if band else 0)
            assert all("ill-conditioned" in str(c.message) for c in caught)


@settings(max_examples=60, deadline=None)
@given(hermitians(min_levels=2), st.integers(0, 2**32 - 1))
def test_ray_table_matches_column_formula(a, seed):
    """Unnormalized random rays, the eigenbasis columns (several per cluster on
    degenerate spectra) and band rays: supports, f and g as the one-ray formula,
    band hits off the band ends, and <Ax,x> bit for bit np.vdot(x, A @ x) of the
    normalized column."""
    d = matrix.eig(a)
    rng = np.random.default_rng(seed)
    rays = [rng.uniform(0.1, 10.0) * matrix.random_ray(d.n, rng) for _ in range(8)]
    rays += list(d.basis.T)
    ends = (1e-12, 1e-6)  # the band verdict is rounding noise exactly there
    off_ends = [True] * len(rays)
    for delta in sorted(set(SUPPORT_COMPONENTS + WARNING_COMPONENTS)):
        i, j = rng.choice(d.m, size=2, replace=False)
        u = matrix.normalize_ray(d.projection(i) @ matrix.random_ray(d.n, rng))
        v = matrix.normalize_ray(d.projection(j) @ matrix.random_ray(d.n, rng))
        rays.append(u + delta * v)
        off_ends.append(delta not in ends)
    X = np.stack(rays, axis=1)
    t = matrix.ray_table(d, X)
    supports = matrix._supports(matrix._component_norms(d, matrix.normalize_rays(X.T)))[0]
    for k, x in enumerate(rays):
        support, band = column_support(d, x)
        np.testing.assert_array_equal(np.flatnonzero(supports[k]), support)
        assert t.f[k] == d.values[support[-1]] and t.g[k] == d.values[support[0]]
        y = matrix.normalize_ray(x)
        assert t.expectation[k] == np.real(np.vdot(y, d.matrix @ y))
        if off_ends[k]:
            assert t.band[k] == band


def formula_ray_values(d, x):
    """f, g, <Ax,x> and the band verdict of one ray by the formula of the separate
    single-ray paths the shared kernel replaced: np.linalg.norm, the cluster sums
    of abs(x^H V) ** 2, np.flatnonzero of the support, np.vdot(x, A @ x)."""
    x = np.asarray(x, dtype=np.complex128)
    y = x / float(np.linalg.norm(x))
    comps = np.sqrt(np.add.reduceat(np.abs(y.conj() @ d.basis) ** 2, d.starts, axis=-1))
    support = np.flatnonzero(comps > matrix.RAY_TOL)
    lo, hi = matrix.WARN_BAND
    band = bool(((comps >= lo) & (comps <= hi)).any())
    return (float(d.values[support[-1]]), float(d.values[support[0]]),
            float(np.real(np.vdot(y, d.matrix @ y))), band)


@st.composite
def spectra(draw, max_n=24):
    """U diag(w) U^H or diag(w) with every eigenvalue distinct (m = n) or with
    w on at most n // 2 levels (clustered)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_n))
    levels = rng.uniform(-5.0, 5.0, n if draw(st.booleans()) else max(1, n // 2))
    w = np.concatenate([levels, rng.choice(levels, n - len(levels))])
    if not draw(st.booleans()):
        return np.diag(w)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ np.diag(w) @ u.conj().T


@settings(max_examples=60, deadline=None)
@given(spectra(), st.integers(0, 2**32 - 1))
def test_single_ray_calls_match_table_rows_and_formula(a, seed):
    """ray_obs, mirrored_ray and expectation on unnormalized random rays, the
    eigenbasis columns and band rays (a 1e-8 or 1e-10 component in a second
    cluster): each equals its ray_table row and the formula of the separate
    single-ray paths bit for bit, and f and g warn exactly on the band."""
    d = matrix.eig(a)
    rng = np.random.default_rng(seed)
    rays = [rng.uniform(0.1, 10.0) * matrix.random_ray(d.n, rng) for _ in range(4)]
    rays += list(d.basis.T)
    if d.m > 1:
        for delta in (1e-8, 1e-10):
            i, j = rng.choice(d.m, size=2, replace=False)
            u = matrix.normalize_ray(d.projection(i) @ matrix.random_ray(d.n, rng))
            v = matrix.normalize_ray(d.projection(j) @ matrix.random_ray(d.n, rng))
            rays.append(u + delta * v)
    t = matrix.ray_table(d, np.stack(rays, axis=1))
    for k, x in enumerate(rays):
        f, g, e, band = formula_ray_values(d, x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = (matrix.ray_obs(d, x), matrix.mirrored_ray(d, x), matrix.expectation(d, x))
        assert got == (f, g, e) == (t.f[k], t.g[k], t.expectation[k])
        assert bool(t.band[k]) == band
        assert len(caught) == (2 if band else 0)
        assert np.array_equal(matrix.normalize_ray(x), x / np.linalg.norm(x))


@pytest.mark.parametrize("x, message", [
    (np.zeros(3), "the zero vector spans no ray"),
    (np.array([1.0, np.nan, 0.0]), "the norm of the ray is not finite"),
    (np.array([1e200, 1e200, 0.0]), "the norm of the ray is not finite"),
    (np.array([1e154 + 1e154j, 0.0, 0.0]), "the norm of the ray is not finite"),
])
def test_single_ray_calls_refuse_with_the_same_messages(x, message):
    """A zero ray, a NaN ray and rays whose norm overflows, in the dot products
    or in their sum: every single-ray call and ray_table raise ValueError with
    the same message.  A single-ray call issues the overflow warnings that
    np.linalg.norm issues on the ray, and ray_table none."""
    d = matrix.eig(np.diag([1.0, 2.0, 3.0]))
    with warnings.catch_warnings(record=True) as norm_warnings:
        warnings.simplefilter("always")
        np.linalg.norm(x)
    calls = (matrix.normalize_ray, lambda x: matrix.ray_obs(d, x),
             lambda x: matrix.mirrored_ray(d, x), lambda x: matrix.expectation(d, x))
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                call(x)
        assert [str(w.message) for w in caught] == [str(w.message) for w in norm_warnings]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            matrix.ray_table(d, x[:, None])


def loop_probe_labels(n):
    """The unit probe labels in sweep order, from the pair loop."""
    labels = [f"e{j + 1}" for j in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        labels += [f"e{i + 1}+e{j + 1}", f"e{i + 1}+ie{j + 1}"]
    return labels


def sweep_matrices():
    """herm3, rot6, Pauli Y and diag(Y, 2Y, 3) (e_i + i e_j is an eigenvector of
    them, and e_i - i e_j of another eigenvalue), and n <= 12 random, degenerate
    (rotated) and diagonal matrices."""
    golden = Path(__file__).parent / "golden"
    y = np.array([[0, -1j], [1j, 0]])
    blocks = np.zeros((5, 5), dtype=complex)
    blocks[:2, :2], blocks[2:4, 2:4], blocks[4, 4] = y, 2 * y, 3
    out = [load_matrix(golden / "herm3.json"), load_matrix(golden / "rot6.json"), y, blocks]
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 12):
        out.append(matrix.random_hermitian(n, rng))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = rng.choice([-1.0, 0.5, 2.0], n)
        out += [u @ np.diag(w) @ u.conj().T, np.diag(w), np.diag(rng.uniform(-3, 3, n))]
    return out


@pytest.mark.parametrize("a", sweep_matrices())
def test_probe_sweep_matches_dense_table(a):
    """The unit probes as index pairs against the same probes as dense columns:
    labels in the pair loop's order, the same f, g and band hits, and <Ax,x>
    within 4 ulp of ||A|| (the closed form is not the dense dot product)."""
    d = matrix.eig(a)
    tol = 4 * np.finfo(float).eps * d.norm()
    for size in (1, 3, d.n * d.n):
        labels = []
        for block_labels, probes in matrix.unit_probes(d.n, size):
            labels += block_labels
            sparse = matrix.ray_table(d, probes)
            dense = matrix.ray_table(d, probes.rows(d.n).T)
            assert np.array_equal(sparse.f, dense.f) and np.array_equal(sparse.g, dense.g)
            assert np.array_equal(sparse.band, dense.band)
            assert np.abs(sparse.expectation - dense.expectation).max() <= tol
        assert labels == loop_probe_labels(d.n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_random_rays_match_random_ray_calls(n, k, seed):
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    block = matrix.random_rays(n, k, r1)
    assert np.array_equal(block, np.stack([matrix.random_ray(n, r2) for _ in range(k)]))
    assert r1.random() == r2.random()


@settings(max_examples=40, deadline=None)
@given(hermitians(), st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([1e-9, 0.0, -1.0]), st.booleans())
def test_ray_axioms_match_ray_loop(a, seed, samples, tol, broken):
    """Counts and draws as the one-ray loop with the projector stack.  A negative
    MAT_TOL makes span violations, and a basis with one column scaled by 0.9
    breaks the sublevel criterion, so both counts are exercised."""
    d = matrix.eig(a)
    if broken:
        V = d.basis.copy()
        V[:, 0] *= 0.9
        d = dataclasses.replace(d, basis=V)
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore")
        mp.setattr(matrix, "MAT_TOL", tol)
        rep = matrix.verify_ray_axioms(d, r1, samples=samples)
        span_bad, checked, sub_bad = loop_ray_axioms(d, r2, samples, tol * d.norm())
    assert (rep.span_violations, rep.sublevel_checked, rep.sublevel_violations) == (
        span_bad, checked, sub_bad)
    assert rep.span_checked == samples
    assert rep.passed == (span_bad == 0 and sub_bad == 0)
    assert r1.random() == r2.random()


def loop_default_probes(n, rng):
    """Standard basis, pairwise sums, complex pairwise sums, 4n random rays."""
    eye = np.eye(n, dtype=np.complex128)
    probes = [eye[:, j] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(matrix.normalize_ray(eye[:, i] + eye[:, j]))
            probes.append(matrix.normalize_ray(eye[:, i] + 1j * eye[:, j]))
    return probes + [matrix.random_ray(n, rng) for _ in range(4 * n)]


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_default_probes_match_pairwise_loop(n):
    """Bit for bit, in order, and with the same draws as the pairwise loop."""
    r1, r2 = np.random.default_rng(n), np.random.default_rng(n)
    got, want = matrix.default_probes(n, r1), loop_default_probes(n, r2)
    assert len(got) == len(want) == n * n + 4 * n
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert r1.random() == r2.random()


def with_values(d, values):
    """d with its cluster values replaced: ray values and the value of a
    projector no longer follow the spectrum, so the checks can fail."""
    return dataclasses.replace(d, values=values)


@settings(max_examples=40, deadline=None)
@given(hermitians(max_n=12), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 0.0, -1.0]),
       st.booleans())
def test_rank_one_extension_matches_ray_loop(a, seed, tol, broken):
    """Report and draws as the one-ray loop, on the full space, a coordinate
    projector and a random line.  Reversed cluster values break the sup (f no
    longer grows with the support), and a negative MAT_TOL fails every
    comparison."""
    d = matrix.eig(a)
    if broken:
        d = with_values(d, d.values[::-1].copy())
    rng = np.random.default_rng(seed)
    line = matrix.random_ray(d.n, rng)
    coordinates = np.diag((rng.random(d.n) < 0.5).astype(float))
    coordinates[0, 0] = 1.0
    for Q in (np.eye(d.n), coordinates, np.outer(line, line.conj())):
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore")
            mp.setattr(matrix, "MAT_TOL", tol)
            rep = matrix.rank_one_extension(d, Q, r1, samples=16)
            value, sup_ok, span_ok = loop_rank_one(d, Q, r2, 16, tol * d.norm())
        assert (rep.value, rep.sup_matches, rep.span_law_ok) == (value, sup_ok, span_ok)
        assert rep.passed == (sup_ok and span_ok)
        assert r1.random() == r2.random()
        if tol < 0:
            assert not rep.sup_matches and not rep.span_law_ok


@settings(max_examples=40, deadline=None)
@given(hermitians(max_n=8), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 0.0, -1.0]),
       st.booleans())
def test_infsup_extension_matches_ray_loop(a, seed, tol, broken):
    d = matrix.eig(a)
    if broken:
        d = with_values(d, d.values[::-1].copy())
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore")
        mp.setattr(matrix, "MAT_TOL", tol)
        rep = matrix.verify_infsup_extension(d, r1, rays=4)
        checked, failures = loop_infsup(d, r2, 4, tol * d.norm())
    assert (rep.checked, rep.failures, rep.passed) == (checked, failures, not failures)
    assert r1.random() == r2.random()
    if tol < 0:
        assert len(rep.failures) == 4


@settings(max_examples=40, deadline=None)
@given(hermitians(max_n=10), st.sampled_from([1e-9, 0.0, -1.0]), st.booleans())
def test_eigenvalue_plateaus_match_ray_loop(a, tol, broken):
    """Shifted cluster values break the eigenvector rays: f no longer equals
    eigh's eigenvalue."""
    d = matrix.eig(a)
    if broken:
        d = with_values(d, d.values + 1.0)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore")
        mp.setattr(matrix, "MAT_TOL", tol)
        rep = matrix.verify_eigenvalue_plateaus(d)
        assert rep.eigen_rays_ok == loop_eigen_rays(d, tol)
    if broken or tol < 0:
        assert not rep.eigen_rays_ok and not rep.passed
    if broken:  # the plateaus and the quasipoint values are eigh's eigenvalues
        assert not rep.plateau_ok and not rep.values_are_eigenvalues


@settings(max_examples=40, deadline=None)
@given(hermitians(max_n=12), st.integers(0, 2**32 - 1))
def test_projector_distance_matches_stacked_formula(a, seed):
    """Against the dense cumulative stacks, within 1e-12: a decomposition and
    the same one with its eigenbasis turned by a random unitary near I, and
    the family reconstructed from ray values on resolving probes."""
    d = matrix.eig(a)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d.n, d.n)) + 1j * rng.standard_normal((d.n, d.n))
    turn, _ = np.linalg.qr(np.eye(d.n) + 1e-3 * g)
    turned = dataclasses.replace(d, basis=d.basis @ turn)
    fam = matrix.reconstruct_from_rays(
        lambda x: matrix.ray_obs(d, x), matrix.resolving_probes(d, rng))
    assert [b.shape[1] for b in fam.bases] == [*d.starts[1:], d.n]
    dense = [(d.values, cumulative_stack(d)), (turned.values, cumulative_stack(turned)),
             (fam.thresholds, np.stack([b @ b.conj().T for b in fam.bases]))]
    families = [matrix.projector_family_of(d), matrix.projector_family_of(turned), fam]
    for (f1, (t1, s1)), (f2, (t2, s2)) in itertools.product(zip(families, dense), repeat=2):
        want = stacked_distance(t1, s1, t2, s2)
        assert abs(matrix.projector_distance(f1, f2) - want) <= 1e-12


def test_projector_families_build_no_stack():
    """Two families at n = m = 128 and their distance: the m x n x n cumulative
    stack alone is 32 MB, and the parent's traced peak was 96 MB."""
    d = matrix.eig(matrix.random_hermitian(128, np.random.default_rng(15)))
    assert d.m == 128

    def distance():
        return matrix.projector_distance(matrix.projector_family_of(d),
                                         matrix.projector_family_of(d))

    assert traced_peak(distance) < 2 * 2**20


def traced_peak(fn, *args, **kwargs):
    fn(*args, **kwargs)  # first-call set-up is not the call's own memory
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ray_obs_reads_the_eigenbasis_in_place():
    """One ray at n = 512 allocates less than one n x n complex array (4 MB), the
    copy that conjugating V would make."""
    rng = np.random.default_rng(11)
    d = matrix.eig(matrix.random_hermitian(512, rng))
    x = matrix.random_ray(512, rng)
    assert traced_peak(matrix.ray_obs, d, x) < 512 * 512 * 16
    assert traced_peak(matrix.mirrored_ray, d, x) < 512 * 512 * 16


def test_ray_axioms_build_no_projector_stack():
    """At n = 128 the m x n x n cumulative stack alone is 32 MB."""
    A = matrix.random_hermitian(128, np.random.default_rng(12))
    peak = traced_peak(matrix.verify_ray_axioms, A, np.random.default_rng(13), samples=10)
    assert peak < 8 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1 - 1e-6, 1 + 1e-6, 2.0]), min_size=1,
             max_size=24),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_chained_near_ties_pass_the_residual_test(steps, rotate, seed):
    """Gaps below the cluster tolerance chained into runs wider than it: eig raises
    no EigenError, every cluster is narrower than the tolerance, and each cluster
    starts at the first eigenvalue at least the tolerance above the previous start."""
    a = np.diag(1.0 + matrix.CLUSTER_SCALE * np.cumsum([0.0, *steps]))
    if rotate:
        rng = np.random.default_rng(seed)
        n = a.shape[0]
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = u @ a @ u.conj().T
    d = matrix.eig(a)
    w = np.linalg.eigh(d.matrix)[0]
    ctol = matrix.CLUSTER_SCALE * float(np.abs(w).max())
    bounds = [*d.starts.tolist(), len(w)]
    for lo, hi in itertools.pairwise(bounds):
        assert w[hi - 1] - w[lo] < ctol
        if hi < len(w):
            assert w[hi] - w[lo] >= ctol


def test_chained_near_tie_example():
    d = matrix.eig(np.diag([1.0, 1.0, 1 + 0.999999e-8, 1 + 1.999998e-8]))
    assert d.starts.tolist() == [0, 3]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(-40, 30))
@example(seed=0, n=2, k=-40)
def test_scaled_diagonalization_matches_unscaled(seed, n, k):
    """diagonalize works on A / 2^e; on a normal matrix of norm 2^k in the normal
    range V and the entries equal, bit for bit, those of the unscaled formula.
    Caught: entries not scaled back, or scaled back by 2^(e - 1)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    A = (u * w) @ u.conj().T * 2.0**k
    V, entries = gelfand.diagonalize(A)
    V0, entries0 = unscaled_diagonalize(A)
    assert np.array_equal(V, V0) and np.array_equal(entries, entries0)


# ---------------------------------------------------------------------------
# each lattice fact decided once: order reversal, atomism by counts


def fold_joins_below(L, elements):
    """[x] -> the join of the given elements below x (bottom if none), folded
    one element at a time for every x at once: the per-element fold that
    the count test of _kernels._unjoined replaced."""
    acc = np.full(L.n, L.bottom)
    for t in elements:
        above = L.leq[t]
        acc[above] = L.join_table[acc[above], t]
    return acc


def fold_atomistic(L):
    bad = fold_joins_below(L, L.atoms()) != np.arange(L.n)
    return (False, (int(np.argmax(bad)),)) if bad.any() else (True, None)


def chain(n):
    return FiniteOML([str(i) for i in range(n)], np.triu(np.ones((n, n), bool)),
                     np.arange(n)[::-1].copy())


def mo_pairs(k):
    """MOk for any k: bottom, top and k orthocomplementary atom pairs."""
    n = 2 * k + 2
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    ortho = np.arange(n)[::-1].copy()
    ortho[1:-1] = np.arange(1, n - 1) + np.where(np.arange(1, n - 1) % 2, 1, -1)
    return FiniteOML([str(i) for i in range(n)], leq, ortho)


FACTS = dict(BASES)
for _k in (1, 2, 3, 31, 127, 128):  # MO128 has 256 atoms, past the uint8 counts
    FACTS[f"MO{_k}"] = mo_pairs(_k)
for _m in (4, 5):
    FACTS[f"2^{_m}xMO2"] = product(boolean_lattice(_m), mo(2))
    FACTS[f"2^{_m}xO6"] = product(boolean_lattice(_m), benzene())
for _n in (2, 3, 4, 9):  # atomistic only at length 2
    FACTS[f"chain{_n}"] = chain(_n)
FACTS["2^6"] = boolean_lattice(6)
FACTS["2^6 direct"] = FiniteOML(FACTS["2^6"].names, FACTS["2^6"].leq, np.arange(64))
# 8 = 2^3 sets under inclusion, 3 atoms, neither distributive nor atomistic ({2, 8}
# covers only the atom {8}): the power-set rule must not decide it
_SETS = (0, 1, 4, 5, 8, 9, 10, 15)
FACTS["sets8"] = FiniteOML([str(a) for a in _SETS],
                           [[a & b == a for b in _SETS] for a in _SETS], np.arange(8))


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("name", sorted(FACTS))
def test_atomism_by_counts_matches_fold(name, rows):
    """verify_structure's atomism verdict and witness, and the count test's
    failing elements, equal the fold's, in row blocks of 1 and 3 rows and of
    the default budget (the diagonal of each block is cleared at its own
    offset)."""
    L = FACTS[name]
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(_kernels, "_SCAN_BYTES", rows * L.n)
        rep = verify_structure(L)
        bad = _kernels._unjoined(L.leq, L.atoms())
    assert (rep.is_atomistic, rep.witnesses.get("is_atomistic")) == fold_atomistic(L)
    assert np.array_equal(bad, fold_joins_below(L, L.atoms()) != np.arange(L.n))


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=100, deadline=None)
@given(L=st.one_of(set_lattices(), relabeled()), data=st.data())
def test_count_test_matches_fold_on_any_elements(rows, L, data):
    """_unjoined on the atoms, on every element and on a drawn subset, in any
    order, against the fold; the atomism verdict and witness against it too,
    on lattices of sets (distributive or not, atomistic or not) and relabeled
    corpus lattices and products.  Caught: the diagonal cleared at the block's
    first row only, counts that include the element itself twice, and the
    power-set rule applied to a non-distributive lattice."""
    subset = data.draw(st.lists(st.integers(0, L.n - 1), unique=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_BYTES", rows * L.n)
        for elements in (L.atoms(), range(L.n), subset):
            want = fold_joins_below(L, elements) != np.arange(L.n)
            assert np.array_equal(_kernels._unjoined(L.leq, list(elements)), want)
        rep = verify_structure(L)
    assert (rep.is_atomistic, rep.witnesses.get("is_atomistic")) == fold_atomistic(L)


@pytest.mark.parametrize("name", ["MO127", "2^4xMO2", "2^5xMO2", "2^4xO6", "2^5xO6",
                                  "2^6", "2^6 direct"])
def test_structure_runs_one_count_test(monkeypatch, name):
    """verify_structure runs the count test once: for atomism on MO127 and
    the products, where n > 2^|join-primes| decides distributivity with no
    pass, and for distributivity on 2^6, whose join-primes are its atoms and
    whose atomism is read off n = 2^|atoms|."""
    L = FACTS[name]
    real = _kernels._unjoined
    calls = []

    def counted(leq, elements):
        calls.append(sorted(int(e) for e in elements))
        return real(leq, elements)

    monkeypatch.setattr(_kernels, "_unjoined", counted)
    rep = verify_structure(L)
    assert calls == [sorted(L.atoms())]
    assert rep.is_distributive == name.startswith("2^6")


def brute_join_primes(L):
    """The p != 0 with p <= a v b only if p <= a or p <= b, by definition."""
    n, j = L.n, L.join_table
    return [p for p in range(n) if p != L.bottom and all(
        L.leq[p, a] or L.leq[p, b] for a in range(n) for b in range(n) if L.leq[p, j[a, b]])]


@st.composite
def birkhoff_sides(draw):
    """Relabeled lattices on both sides of n <= 2^|join-primes|: chains and
    O6 x chain4 or chain5 within it (24 elements and 5 join-primes, not
    distributive), corpus lattices and products (2^m at it; sets8, MOk and
    the products with MO2 or O6 past it)."""
    kind = draw(st.sampled_from(["sets8", "chain", "O6xchain", "base"]))
    if kind == "sets8":
        L = FACTS["sets8"]
    elif kind == "chain":
        L = chain(draw(st.integers(2, 12)))
    elif kind == "O6xchain":
        L = product(benzene(), chain(draw(st.integers(4, 5))))
    else:
        L = BASES[draw(st.sampled_from(sorted(BASES)))]
    return relabel(L, draw(st.permutations(range(L.n))))


@settings(max_examples=100, deadline=None)
@given(L=birkhoff_sides())
def test_distributive_matches_triple_scan_at_and_past_the_bound(L):
    """_distributive against the triple loop, and every lattice past the
    bound fails the loop.  Caught: the bound taken strictly (2^m fails) and
    the bound alone (O6 x chain passes).  The bound is a shortcut, so the
    verdicts hold without it; test_structure_runs_one_count_test shows it
    is taken."""
    distributive = triple_scan(L.meet_table, L.join_table) is None
    assert _kernels._distributive(L.leq, L.downset_sizes()) == distributive
    if L.n > 1 << len(brute_join_primes(L)):
        assert not distributive


def test_order_reversal_decided_once(monkeypatch, tmp_path):
    """A lattice built from its order decides reversal once, at construction,
    and keeps the verdict that _reverses_order gives: on loaded files, on the
    identity of 2^6 (which reverses no order) and on chains.  Lattices built
    with tables= decide it on first use, once."""
    real = _kernels._reverses_order
    calls = []

    def counted(leq, ortho):
        calls.append(1)
        return real(leq, ortho)

    monkeypatch.setattr(_kernels, "_reverses_order", counted)
    built = {}
    for name in ("B2", "MO2", "benzene-O6", "2^2xO6", "2^6 direct", "chain4"):
        path = tmp_path / "L.json"
        save_lattice(FACTS[name], path)
        del calls[:]
        built[name] = L = load_lattice(path)
        assert len(calls) == 1 and L._reverses == real(L.leq, L.ortho)
    assert not built["2^6 direct"]._reverses and built["MO2"]._reverses
    for L in built.values():
        del calls[:]
        rep = verify_structure(L)
        assert not calls
        assert rep.is_ortho_complemented == _ortho_complement_verdict(L)[0]
    for L in (boolean_lattice(5), generated_sublattice(FACTS["MO3"], [1])[0]):
        del calls[:]
        assert L._reverses is None
        verify_structure(L)
        verify_structure(L)
        assert len(calls) == 1 and L._reverses == real(L.leq, L.ortho) is True


# ---------------------------------------------------------------------------
# the vector forms of FiniteOML against the scalar reads they gather


def assert_vector_forms(L, a, b):
    """Each vector form on the index lists a and b (of one length), and on
    their arrays, tuples and int16 arrays, against the scalar methods, pair
    by pair."""
    every = range(L.n)
    want = {
        "upset_rows": [[L.le(x, y) for y in every] for x in a],
        "downset_rows": [[L.le(y, x) for y in every] for x in a],
        "join_rows": [[L.join(x, y) for y in every] for x in a],
        "le_each": [L.le(x, y) for x, y in zip(a, b)],
        "meet_each": [L.meet(x, y) for x, y in zip(a, b)],
        "complement_each": [L.complement(x) for x in a],
    }
    for cast in (list, tuple, lambda s: np.array(s, dtype=np.int64),
                 lambda s: np.array(s, dtype=np.int16)):
        x, y = cast(a), cast(b)
        got = {
            "upset_rows": L.upset_rows(x), "downset_rows": L.downset_rows(x),
            "join_rows": L.join_rows(x), "le_each": L.le_each(x, y),
            "meet_each": L.meet_each(x, y), "complement_each": L.complement_each(x),
        }
        for name, value in got.items():
            shape = (len(a), L.n) if name.endswith("_rows") else (len(a),)
            assert value.shape == shape and value.tolist() == want[name], name
    if a:  # one index, and one index broadcast against an array
        x = a[0]
        assert L.upset_rows(x).tolist() == want["upset_rows"][0]
        assert L.downset_rows(x).tolist() == want["downset_rows"][0]
        assert L.join_rows(x).tolist() == want["join_rows"][0]
        assert L.complement_each(x) == L.complement(x)
        assert L.le_each(x, np.array(b)).tolist() == [L.le(x, y) for y in b]
        assert L.meet_each(x, np.array(b)).tolist() == [L.meet(x, y) for y in b]


@pytest.mark.parametrize("name", sorted(BASES))
def test_vector_forms_match_scalar_reads(name):
    L = BASES[name]
    rng = np.random.default_rng(22)
    assert_vector_forms(L, list(range(L.n)), list(range(L.n))[::-1])
    for size in (0, 1, 3):
        assert_vector_forms(L, rng.integers(0, L.n, size).tolist(),
                            rng.integers(0, L.n, size).tolist())
    block = slice(1, L.n - 1)
    assert L.upset_rows(block).tolist() == L.upset_rows(np.arange(1, L.n - 1)).tolist()
    assert L.join_rows(block).tolist() == L.join_rows(np.arange(1, L.n - 1)).tolist()
    assert L.upset_rows(block).base is not None  # a slice gives a view


@settings(max_examples=60, deadline=None)
@given(L=relabeled(), data=st.data())
def test_vector_forms_match_scalar_reads_on_relabeled(L, data):
    index = st.integers(0, L.n - 1)
    a = data.draw(st.lists(index, max_size=6))
    b = data.draw(st.lists(index, min_size=len(a), max_size=len(a)))
    assert_vector_forms(L, a, b)


@pytest.mark.parametrize("name", ["B2", "MO3", "2^2xO6"])
def test_vector_forms_read_out_of_range_as_the_tables_do(name):
    """No range check of their own: an index past either end raises
    IndexError, as the table read does, and a negative index in range
    counts from the end, as it does there."""
    L = BASES[name]
    calls = {
        "upset_rows": lambda x: L.upset_rows(x), "downset_rows": lambda x: L.downset_rows(x),
        "join_rows": lambda x: L.join_rows(x), "le_each": lambda x: L.le_each(x, [0, 1]),
        "meet_each": lambda x: L.meet_each([0, 1], x), "complement_each": L.complement_each,
    }
    for name, call in calls.items():
        for bad in ([0, L.n], [-L.n - 1, 1], L.n):
            with pytest.raises(IndexError):
                call(bad)
        got, want = call([-1, 0]), call([L.n - 1, 0])
        assert got.tolist() == want.tolist(), name


def assert_same_lattice(got, want):
    assert got.names == want.names and (got.bottom, got.top) == (want.bottom, want.top)
    for attr in ("leq", "ortho", "meet_table", "join_table"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    assert got.reverses_order() == want.reverses_order()


@pytest.mark.parametrize("name", sorted(BASES))
def test_relabeled_matches_relabel(name):
    L = BASES[name]
    rng = np.random.default_rng(23)
    for perm in (np.arange(L.n), np.arange(L.n)[::-1], rng.permutation(L.n)):
        assert_same_lattice(L.relabeled(perm), relabel(L, perm))
        assert_same_lattice(L.relabeled(perm.tolist()), relabel(L, perm))
    for bad in (np.arange(L.n - 1), np.zeros(L.n, dtype=int), np.arange(1, L.n + 1)):
        with pytest.raises(LatticeError, match="permutation"):
            L.relabeled(bad)


@settings(max_examples=40, deadline=None)
@given(L=relabeled(), data=st.data())
def test_relabeled_matches_relabel_on_relabeled(L, data):
    perm = np.array(data.draw(st.permutations(range(L.n))))
    assert_same_lattice(L.relabeled(perm), relabel(L, perm))


# ---------------------------------------------------------------------------
# observable tables and the Boolean families of the bridge against their loops


def loop_observable(E):
    """f(H_p), per element: the first threshold whose value dominates p."""
    L = E.lattice
    out = np.full(L.n, np.nan)
    for p in L.nonzero().tolist():
        out[p] = next(lam for lam, v in E.jumps() if L.le(p, v))
    return out


def loop_mirrored(E):
    """g(H_p), per element: the first threshold whose complemented value no
    longer dominates p."""
    L = E.lattice
    out = np.full(L.n, np.nan)
    for p in L.nonzero().tolist():
        out[p] = next(lam for lam, v in E.jumps() if not L.le(p, L.complement(v)))
    return out


def assert_tables_match_loops(E):
    assert_same_bits(observable_fn(E).values, loop_observable(E))
    assert_same_bits(mirrored_fn(E).values, loop_mirrored(E))


@pytest.mark.parametrize("name", sorted(BASES))
def test_tables_match_element_loops(name):
    """The counted indices of observable_fn and mirrored_fn, bottom's NaN
    included, on random families and on the one-jump family."""
    L = BASES[name]
    rng = np.random.default_rng(23)
    for _ in range(10):
        assert_tables_match_loops(random_spectral_family(L, rng))
    assert_tables_match_loops(make_spectral_family(L, [(-0.0, L.top)]))


@settings(max_examples=100, deadline=None)
@given(relabeled(), st.integers(0, 2**32 - 1))
def test_tables_match_element_loops_on_relabeled(L, seed):
    assert_tables_match_loops(random_spectral_family(L, np.random.default_rng(seed)))


def loop_eigenvalue_jumps(values):
    """spectral_family_of's jumps as it built them: of ascending distinct
    values, atom i entering at the i-th."""
    return [(float(values[i]), (1 << (i + 1)) - 1) for i in range(len(values))]


def loop_diagonal_jumps(reals):
    """diagonal_spectral_family's jumps as it built them: at each distinct
    entry, the mask of the indices at or below it."""
    jumps = []
    for lam in np.unique(reals):
        mask = 0
        for i in range(len(reals)):
            if reals[i] <= lam:
                mask |= 1 << i
        jumps.append((float(lam), mask))
    return jumps


def loop_step_jumps(star):
    """step_approx's jumps as it built them: at each distinct midpoint, the
    mask grown by the atoms that take it."""
    jumps = []
    mask = 0
    for u in np.unique(star):
        for i in range(len(star)):
            if star[i] == u:
                mask |= 1 << i
        jumps.append((float(u), mask))
    return jumps


def loop_boolean_names(m, atom_names=None):
    """boolean_lattice's element names as it built them: one bit test per
    atom and mask."""
    if atom_names is None:
        atom_names = [f"e{i + 1}" for i in range(m)]
    n = 1 << m
    names = []
    for s in np.arange(n, dtype=np.int16):
        if s == 0:
            names.append("0")
        elif s == n - 1:
            names.append("1")
        else:
            names.append("+".join(atom_names[i] for i in range(m) if s >> i & 1))
    return names


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.booleans(), st.data())
def test_boolean_names_match_bit_loop(m, custom, data):
    """boolean_lattice's names, built by doubling, equal the per-bit loop's,
    with the default atom names and with drawn ones (empty and '+' among
    them, where the loop's names stay unique)."""
    atom_names = None
    if custom:
        atom_names = data.draw(st.lists(st.text("ab+", max_size=3), min_size=m, max_size=m,
                                        unique=True))
        want = loop_boolean_names(m, atom_names)
        assume(len(set(want)) == len(want))
    assert list(boolean_lattice(m, atom_names).names) == loop_boolean_names(m, atom_names)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0])
             | st.floats(), max_size=12).map(lambda xs: np.array(xs, np.float64)),
    st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=12)
    .map(lambda xs: np.array(xs, np.int64)),
    st.lists(st.integers(-2**15, 2**15 - 1), max_size=12).map(lambda xs: np.array(xs, np.int16)),
))
def test_sorted_unique_matches_np_unique(x):
    """sorted_unique equals np.unique bit for bit, in type and in every bit
    of every value: on floats with both signed zeros, both infinities and
    NaNs (one NaN kept), and on ints."""
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_jumps(E, jumps):
    assert E.values.tolist() == [v for _, v in jumps]
    assert_same_bits(E.thresholds, [lam for lam, _ in jumps])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, -1.5, 2.0]) | st.floats(-1e3, 1e3),
                min_size=1, max_size=10))
def test_boolean_family_matches_hand_loops(values):
    """The one builder gives the jumps of the three hand loops it replaced,
    on unsorted values with ties and both signed zeros, and its atom filters
    take the values."""
    values = np.array(values)
    E = matrix._boolean_family(values)
    assert E.lattice.n == 1 << len(values)
    assert_same_jumps(E, loop_diagonal_jumps(values))
    assert_same_jumps(E, loop_step_jumps(values))
    assert (observable_fn(E).values[E.lattice.atom_index()] == values).all()
    distinct = np.unique(values)
    assert_same_jumps(matrix._boolean_family(distinct), loop_eigenvalue_jumps(distinct))


def loop_step_approx(d, eps):
    """step_approx's step operator and closed-form verdict as it computed
    them: a projector per eigenvalue, and per atom the table value and the
    first jump holding it."""
    bottom, top = float(d.values.min()), float(d.values.max())
    diam = top - bottom
    margin = (eps - diam) / 4 if eps > diam else eps / 2
    lo, hi = bottom - margin, top + margin
    m = int(np.floor((hi - lo) / eps)) + 1
    grid = lo + (hi - lo) * np.arange(m + 1) / m
    mids = grid[:-1] / 2 + grid[1:] / 2
    a_eps = np.zeros_like(d.matrix)
    star = np.empty(d.m)
    for i, lam in enumerate(d.values):
        k = min(max(int(np.searchsorted(grid, lam, side="left")) - 1, 0), m - 1)
        star[i] = mids[k]
        a_eps = a_eps + mids[k] * d.projection(i)
    jumps = loop_step_jumps(star)
    f_step = observable_fn(make_spectral_family(boolean_lattice(d.m), jumps))
    stars = np.unique(star)
    closed_ok = True
    for i in range(d.m):
        if float(f_step.values[1 << i]) != float(star[i]):
            closed_ok = False
        hits = [k for k, (_, mask) in enumerate(jumps) if mask >> i & 1]
        if float(stars[hits[0]]) != float(star[i]):
            closed_ok = False
    return a_eps, float(np.abs(d.values - star).max()), closed_ok


@settings(max_examples=60, deadline=None)
@given(hermitians(max_n=12), st.sampled_from([0.01, 0.3, 1.0, 5.0, 100.0]))
def test_step_approx_matches_projector_loop(a, eps):
    """A_eps as one product equals the sum of midpoint projectors within
    MAT_TOL ||A||, and the closed-form verdict, read at the atoms,
    equals the two-condition loop."""
    d = matrix.eig(a)
    a_eps, rep = matrix.step_approx(d, eps)
    want, f_dist, closed_ok = loop_step_approx(d, eps)
    assert np.abs(a_eps - want).max() <= matrix.MAT_TOL * d.norm()
    assert rep.f_distance == f_dist
    assert rep.closed_form_ok == closed_ok


def eigvalsh_op_distance(d, a_eps):
    """||A - A_eps|| as step_approx once computed it: a second eigensolve."""
    return float(np.abs(np.linalg.eigvalsh(d.matrix - a_eps)).max())


@settings(max_examples=80, deadline=None)
@given(st.one_of(hermitians(max_n=12), spectra(max_n=12)),
       st.sampled_from([0.01, 0.3, 1.0, 5.0, 100.0]), st.integers(-100, 100))
@example(np.diag([1.0, 1.0 + 3e-9, 1.0 + 6e-9, 2.0]), 0.3, 0)  # a cluster 3e-9 off its mean
def test_step_approx_bound_matches_eigvalsh(a, eps, k):
    """The certified operator distance against the eigvalsh figure, at A 2^k and
    eps 2^k.  It is not below it by more than rounding: the two n-term products
    A_eps and eig's V diag(lambda) V^H are each within about n u ||A|| of their
    exact values, u the unit roundoff.  It is not above it by more than n
    CLUSTER_SCALE ||A||: it adds eig's residual, at most the cluster width per
    column, and the Gram error.  Away from the eps boundary the verdict is the
    eigvalsh formula's."""
    s = 2.0**k
    d = matrix.eig(a * s)
    eps *= s
    a_eps, rep = matrix.step_approx(d, eps)
    exact = eigvalsh_op_distance(d, a_eps)
    rounding = 2 * d.n * np.finfo(np.float64).eps * d.norm()
    spread = d.n * matrix.CLUSTER_SCALE * d.norm()
    assert exact - rounding <= rep.op_distance <= exact + spread
    if abs(exact - eps) > spread + rounding:
        assert rep.passed == (rep.f_distance <= eps and exact <= eps and rep.closed_form_ok)


def scaled_reports(a, k):
    """eig, ray_table on the eigenbasis and two random rays, step_approx at
    0.3 ||A||, the verify_* helpers and projector_distance of a * 2^k, their
    values divided by 2^k (exact in the normal range), with the same seeded
    draws for each k."""
    s = 2.0**k
    d = matrix.eig(a * s)
    rng = np.random.default_rng(5)
    rays = np.hstack([d.basis, matrix.random_rays(d.n, 2, rng).T])
    t = matrix.ray_table(d, rays)
    _, step = matrix.step_approx(d, 0.3 * d.norm())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        axioms = matrix.verify_ray_axioms(d, rng, samples=20)
        infsup = matrix.verify_infsup_extension(d, rng, rays=2)
        rank_one = matrix.rank_one_extension(d, np.diag(np.arange(d.n) < 1.0), rng, samples=8)
        plateaus = matrix.verify_eigenvalue_plateaus(d)
    spectrum = matrix.verify_spectrum_identity(d)
    fam = matrix.projector_family_of(d)  # against its thresholds moved by 1e-12 of them
    moved = matrix.projector_distance(fam, matrix.ProjectorFamily(fam.thresholds * (1 + 1e-12),
                                                                  fam.bases))
    return (d.starts.tolist(), (d.values / s).tolist(), (t.f / s).tolist(),
            (t.g / s).tolist(), (t.expectation / s).tolist(), t.band.tolist(),
            step.passed, step.closed_form_ok, step.f_distance / s, step.op_distance / s,
            axioms, infsup.passed, [x / s for x in infsup.failures],
            rank_one.value / s, rank_one.passed, plateaus, spectrum.passed,
            spectrum.max_error / s, moved)


@settings(max_examples=40, deadline=None)
@given(st.one_of(hermitians(max_n=8), spectra(max_n=8)), st.integers(-100, 100))
@example(np.diag(np.repeat([-1.5, 0.25, 1.0, 2.0], 3)), -100)
def test_scaling_by_a_power_of_two_scales_every_value(a, k):
    """f_{cA} = c f_A for c = 2^k, k in [-100, 100]: eig keeps A's cluster starts
    and scales its values bit for bit; f, g and <Ax,x> of ray_table and both
    step_approx distances scale by 2^k; every verdict of step_approx and the
    verify_* helpers is A's.  Every tolerance is a constant times ||A||, so none
    of this depends on where ||A|| sits against 1."""
    assert scaled_reports(a, k) == scaled_reports(a, 0)


@pytest.mark.parametrize("k", range(-1074, -990))
def test_subnormal_tolerances_are_refused_not_merged(k):
    """diag(1, 2, 3) 2^k at the bottom of the float range.  While CLUSTER_SCALE
    ||A|| is a normal float, eig keeps the three clusters and their values bit
    for bit; below that it raises ValueError, never a merged spectrum."""
    a = np.diag([1.0, 2.0, 3.0]) * 2.0**k
    if matrix.CLUSTER_SCALE * 3 * 2.0**k >= np.finfo(np.float64).tiny:
        assert matrix.eig(a).values.tolist() == [2.0**k, 2 * 2.0**k, 3 * 2.0**k]
    else:
        with pytest.raises(ValueError, match="too small"):
            matrix.eig(a)
